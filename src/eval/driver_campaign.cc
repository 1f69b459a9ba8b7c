#include "eval/driver_campaign.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "hw/fault_injection.h"
#include "hw/flight_recorder.h"
#include "hw/io_bus.h"
#include "minic/bytecode/patcher.h"
#include "minic/lexer.h"
#include "minic/program.h"
#include "mutation/c_mutator.h"
#include "support/line_bitmap.h"
#include "support/metrics.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"

namespace eval {

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kCompileTime: return "Compile-time check";
    case Outcome::kRunTime: return "Run-time check";
    case Outcome::kDeadCode: return "Dead code";
    case Outcome::kBoot: return "Boot";
    case Outcome::kCrash: return "Crash";
    case Outcome::kInfiniteLoop: return "Infinite loop";
    case Outcome::kHalt: return "Halt";
    case Outcome::kDamagedBoot: return "Damaged boot";
  }
  return "?";
}

const char* outcome_short(Outcome o) {
  switch (o) {
    case Outcome::kCompileTime: return "compile";
    case Outcome::kRunTime: return "runtime";
    case Outcome::kDeadCode: return "dead";
    case Outcome::kBoot: return "boot";
    case Outcome::kCrash: return "crash";
    case Outcome::kInfiniteLoop: return "loop";
    case Outcome::kHalt: return "halt";
    case Outcome::kDamagedBoot: return "damaged";
  }
  return "?";
}

// --- shared by the mutation and fault kernels ---------------------------------

KernelContext check_kernel_preconditions(const char* kind,
                                         const DriverCampaignConfig& config,
                                         SampleSlice slice) {
  // Diagnostics name the configured device and entry so a failing campaign
  // of one device is never mistaken for another's.
  KernelContext ctx;
  ctx.who = std::string(kind) + " [" +
            (config.device.device.empty() ? std::string("?")
                                          : config.device.device) +
            "]: ";
  if (slice.count == 0 || slice.index >= slice.count) {
    throw std::logic_error(ctx.who + "invalid sample slice " +
                           std::to_string(slice.index) + "/" +
                           std::to_string(slice.count) +
                           " (need 0 <= index < count)");
  }
  if (!config.device.ok()) {
    throw std::logic_error(ctx.who +
                           "no device binding configured (set "
                           "DriverCampaignConfig::device; the standard "
                           "bindings live in eval/device_bindings.h)");
  }
  ctx.entry = config.entry.empty() ? config.device.entry : config.entry;
  if (ctx.entry.empty()) {
    throw std::logic_error(ctx.who + "no boot entry configured (neither the "
                           "config nor the device binding names one)");
  }
  return ctx;
}

void check_baseline_boot(const KernelContext& ctx, const minic::RunOutcome& run,
                         const hw::Device& device) {
  if (run.fault != minic::FaultKind::kNone) {
    throw std::logic_error(ctx.who + "unmutated driver faults on healthy "
                           "hardware (entry " + ctx.entry + "): " +
                           run.fault_message);
  }
  if (run.return_value <= 0) {
    throw std::logic_error(ctx.who + "unmutated driver returned a "
                           "non-positive boot fingerprint on healthy "
                           "hardware (entry " + ctx.entry + ")");
  }
  if (device.damaged()) {
    throw std::logic_error(ctx.who + "unmutated driver damaged the healthy "
                           "device: " + device.damage_note());
  }
}

std::vector<size_t> sample_slice(size_t population, unsigned percent,
                                 uint64_t seed, SampleSlice slice,
                                 CampaignSideband* sideband) {
  auto sample = support::sample_indices(population, percent, seed);
  const auto [lo, hi] = sample_slice_bounds(sample.size(), slice);
  if (sideband) {
    sideband->sample_size = sample.size();
    sideband->slice_begin = lo;
    sideband->slice_end = hi;
    sideband->prefix_cache_hit.clear();
    sideband->canonical_hash.clear();
  }
  return std::vector<size_t>(sample.begin() + lo, sample.begin() + hi);
}

void run_boots(const KernelContext& ctx, size_t n, unsigned threads,
               const std::function<void(size_t)>& boot_one) {
  support::ProgressMeter progress(ctx.who + "booting", n);
  std::vector<uint64_t> worker_shares;
  support::parallel_for(
      n, threads,
      [&](size_t i) {
        boot_one(i);
        progress.tick();
      },
      support::Metrics::enabled() ? &worker_shares : nullptr);
  support::Metrics::add_worker_records(worker_shares);
}

BootRig::BootRig(hw::DevicePool& pool, const DeviceBinding& binding,
                 bool record, const hw::FaultPlan* fault)
    : pool_(pool), device_(pool.acquire()) {
  std::shared_ptr<hw::Device> top = device_;
  if (fault != nullptr) {
    shim_ = std::make_shared<hw::FaultInjector>(device_, binding.port_base,
                                                *fault);
    top = shim_;
  }
  if (record) {
    // Outermost shim: the recorder sees exactly the driver-visible traffic —
    // post-fault values, and through the bus observer tap the post-injector
    // IRQ traffic — step-stamped through the bus's probe.
    recorder_ = std::make_shared<hw::FlightRecorder>(top, binding.port_base,
                                                     &bus_);
    bus_.set_irq_observer(recorder_.get());
    top = recorder_;
  }
  // The outermost shim goes at the binding's port window, wired to the
  // binding's IRQ line when it has one — and then the IRQ status window, so
  // drivers can read the in-service bitmap. Every campaign boot goes through
  // here so polled and event-driven bindings stay interchangeable.
  bus_.map(binding.port_base, binding.port_span, std::move(top),
           binding.irq_line);
  if (binding.irq_line >= 0) {
    bus_.map(hw::kIrqStatusPortBase, 1,
             std::make_shared<hw::IrqStatusPort>(&bus_.irq_controller()));
  }
}

BootRig::~BootRig() {
  // Drop the bus mapping and the shims' inner references first: the pool
  // only takes back a device its caller holds the sole reference to.
  bus_ = hw::IoBus();
  recorder_.reset();
  shim_.reset();
  pool_.release(std::move(device_));
}

BootEnd classify_boot(const minic::RunOutcome& run, const BootRig& rig,
                      int64_t clean_fingerprint, std::string* detail) {
  if (run.fault != minic::FaultKind::kNone) {
    *detail = run.fault_message;
    switch (run.fault) {
      case minic::FaultKind::kDevilAssertion:
        return BootEnd::kDevilAssertion;
      case minic::FaultKind::kPanic:
        return BootEnd::kPanic;
      case minic::FaultKind::kStepLimit:
        return BootEnd::kHang;
      case minic::FaultKind::kWatchdog:
        // Wall-clock containment of a wedged boot: same bucket as the step
        // budget, but counted separately (the trip is host-speed dependent).
        support::Metrics::add_watchdog_trip();
        return BootEnd::kHang;
      case minic::FaultKind::kBusFault:
      case minic::FaultKind::kDivByZero:
      case minic::FaultKind::kBadIndex:
      case minic::FaultKind::kStackOverflow:
        return BootEnd::kCrash;
      case minic::FaultKind::kNone:
      case minic::FaultKind::kInternal:
        break;
    }
    throw std::logic_error("unclassifiable fault kind");
  }
  // Boot completed but the system is visibly wrong: persistent device
  // damage or a different world view (wrong fingerprint computed from what
  // the driver read).
  if (rig.device().damaged()) {
    *detail = rig.device().damage_note();
    return BootEnd::kWrongState;
  }
  if (run.return_value != clean_fingerprint) {
    *detail = "wrong boot fingerprint";
    return BootEnd::kWrongState;
  }
  return BootEnd::kClean;
}

namespace {

/// The mutation tables' outcome for each non-clean BootEnd (a clean boot is
/// Boot or Dead code, depending on whether the mutated line ran).
constexpr Outcome kMutantOutcome[] = {Outcome::kRunTime, Outcome::kHalt,
                                      Outcome::kInfiniteLoop, Outcome::kCrash,
                                      Outcome::kDamagedBoot};

/// Byte range one clean-stream token's serialization occupies inside the
/// precomputed canonical key, plus the token's (prefix-offset) line — enough
/// to splice a replacement token's serialization in without re-lexing.
struct KeySpan {
  size_t begin = 0;
  size_t end = 0;
  uint32_t line = 0;
};

/// Everything invariant across mutants, computed once per campaign and
/// shared read-only by all workers (the device pool is internally locked).
struct PreparedCampaign {
  const DriverCampaignConfig* config = nullptr;
  std::string entry;             // resolved: config override or binding default
  minic::PreparedPrefix prefix;  // stubs lexed once
  std::vector<mutation::Site> sites;
  std::vector<mutation::Mutant> mutants;
  int64_t clean_fingerprint = 0;
  /// Clean-tail recording compile + the patcher built from it. `patcher` is
  /// null when the engine is the walker or the clean tail needed the
  /// whole-unit fallback — then every mutant recompiles.
  minic::SplicedProgram clean_tail;
  minic::TailRecording recorded;
  std::unique_ptr<minic::bytecode::Patcher> patcher;
  /// Canonical dedup key of the CLEAN tail and, for every site whose token
  /// appears exactly once in the clean stream (and never via macro
  /// expansion), the key bytes that token owns. Mutants at such sites get
  /// their key by three-way splice instead of a full re-lex.
  std::string clean_key;
  std::unordered_map<uint32_t, KeySpan> key_spans;
  mutable hw::DevicePool device_pool;
};

/// The site-independent residue of one compile+boot, kept only for mutants
/// that canonical duplicates will be classified from.
struct BootSnapshot {
  bool clean = false;       // booted without fault, disk intact, right view
  Outcome outcome = Outcome::kCompileTime;  // valid when !clean
  std::string detail;
  uint64_t steps = 0;
  std::string trace;        // flight-recorder post-mortem (non-clean only)
  support::LineBitmap executed;
  std::map<std::string, std::set<uint32_t>> macro_use_lines;
};

/// Dead-code vs boot classification for a cleanly booting mutant: executed
/// iff the mutated token's line ran (for a site inside a #define body, iff
/// any use of that macro sits on an executed line).
Outcome classify_clean(const PreparedCampaign& prep, const mutation::Site& site,
                       const support::LineBitmap& executed,
                       const std::map<std::string, std::set<uint32_t>>&
                           macro_use_lines) {
  bool ran;
  if (!site.define_name.empty()) {
    ran = false;
    auto uses = macro_use_lines.find(site.define_name);
    if (uses != macro_use_lines.end()) {
      for (uint32_t use_line : uses->second) {
        if (executed.test(use_line)) {
          ran = true;
          break;
        }
      }
    }
  } else {
    ran = executed.test(site.line + prep.prefix.lines);
  }
  return ran ? Outcome::kBoot : Outcome::kDeadCode;
}

/// Appends one token's canonical-key serialization: kind byte, raw line,
/// then the value/spelling for the kinds where it matters. Shared by the
/// slow (full re-lex) and fast (clean-key splice) key paths — they MUST
/// serialize identically byte for byte.
void append_token_key(std::string& key, const minic::Token& t) {
  key.push_back(static_cast<char>(t.kind));
  key.append(reinterpret_cast<const char*>(&t.loc.line), sizeof(t.loc.line));
  if (t.kind == minic::Tok::kIntLit) {
    uint64_t v = t.int_value;
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
  } else if (t.kind == minic::Tok::kIdent ||
             t.kind == minic::Tok::kStringLit) {
    key.append(t.text);
    key.push_back('\0');
  }
}

/// Appends the macro-use-lines section of a canonical key (the '|' sentinel
/// plus each macro's name and sorted use lines).
void append_macro_lines(
    std::string& key,
    const std::map<std::string, std::set<uint32_t>>& macro_use_lines) {
  key.push_back('|');
  for (const auto& [name, lines] : macro_use_lines) {
    key.append(name);
    key.push_back('\0');
    for (uint32_t line : lines) {
      key.append(reinterpret_cast<const char*>(&line), sizeof(line));
    }
    key.push_back('\0');
  }
}

/// Lexes `text` standalone (no seed macros) and returns its single token iff
/// it lexes cleanly to exactly one non-expanded token. This is how both the
/// patcher request derivation and the fast key path model "the mutant's
/// stream is the clean stream with one token swapped".
std::optional<minic::Token> lex_single_token(const std::string& text) {
  support::DiagnosticEngine diags;
  support::SourceBuffer buf("replacement", text);
  minic::LexOutput lexed = minic::lex_unit(buf, diags, {});
  if (diags.has_errors()) return std::nullopt;
  if (lexed.tokens.size() != 2) return std::nullopt;  // token + kEof
  const minic::Token& t = lexed.tokens.front();
  if (t.from_expansion) return std::nullopt;
  return t;
}

/// True when `a` directly followed by `b` could lex as one token (or a
/// different operator) instead of two: both identifier/number characters, or
/// both operator characters. Conservative — false positives only cost a
/// recompile / slow key.
bool may_merge(char a, char b) {
  auto word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  if (word(a) && word(b)) return true;
  constexpr const char* kOps = "&|<>=+-!~^*/%";
  return std::strchr(kOps, a) != nullptr && std::strchr(kOps, b) != nullptr;
}

/// True when splicing `replacement` over `site` could merge with the
/// adjacent driver bytes into different tokens than "clean stream with one
/// token swapped" — then neither the patcher nor the fast key may model the
/// mutant token-locally.
bool splice_may_merge(const std::string& driver, const mutation::Site& site,
                      const std::string& replacement) {
  if (replacement.empty()) return true;
  if (site.offset > 0 &&
      may_merge(driver[site.offset - 1], replacement.front())) {
    return true;
  }
  size_t after = site.offset + site.length;
  if (after < driver.size() &&
      may_merge(replacement.back(), driver[after])) {
    return true;
  }
  return false;
}

/// Binary-operator precedence, mirroring the MiniC parser's table exactly.
/// -1 for anything that is not a binary operator.
int binop_precedence(minic::Tok t) {
  using minic::Tok;
  switch (t) {
    case Tok::kStar: case Tok::kSlash: case Tok::kPercent: return 10;
    case Tok::kPlus: case Tok::kMinus: return 9;
    case Tok::kShl: case Tok::kShr: return 8;
    case Tok::kLt: case Tok::kGt: case Tok::kLe: case Tok::kGe: return 7;
    case Tok::kEq: case Tok::kNe: return 6;
    case Tok::kAmp: return 5;
    case Tok::kCaret: return 4;
    case Tok::kPipe: return 3;
    case Tok::kAmpAmp: return 2;
    case Tok::kPipePipe: return 1;
    default: return -1;
  }
}

bool is_assign_tok(minic::Tok t) {
  using minic::Tok;
  switch (t) {
    case Tok::kAssign: case Tok::kPlusAssign: case Tok::kMinusAssign:
    case Tok::kAndAssign: case Tok::kOrAssign: case Tok::kXorAssign:
    case Tok::kShlAssign: case Tok::kShrAssign:
      return true;
    default:
      return false;
  }
}

/// Grouping class of an operator token for the precedence-safety check:
/// the parser's binary precedence (>= 0), one shared level for all
/// (right-associative) assignment operators, one for the unary-only
/// spellings, and "unknown" for everything else. Swaps within one class
/// never re-associate; swaps across classes are never provably safe.
enum { kClassAssign = -2, kClassUnary = -3, kClassUnknown = -4 };
int grouping_class(minic::Tok t) {
  int p = binop_precedence(t);
  if (p >= 0) return p;
  if (is_assign_tok(t)) return kClassAssign;
  if (t == minic::Tok::kTilde || t == minic::Tok::kBang) return kClassUnary;
  return kClassUnknown;
}

/// True when swapping the operator token at `index` (binary precedence
/// `p_old`) for one of precedence `p_new` provably re-parses to the same
/// tree: no operator token at the same parenthesis/bracket level of the
/// enclosing expression has a precedence in [min, max] — any such
/// neighbour could group differently against the new operator (the swapped
/// token would then bind a different operand than an in-place opcode
/// rewrite preserves). Conservative: treats unary +/- spellings as binary
/// and never scans past an expression boundary.
bool precedence_swap_safe(const std::vector<minic::Token>& tokens,
                          size_t index, int p_old, int p_new) {
  using minic::Tok;
  const int lo = std::min(p_old, p_new);
  const int hi = std::max(p_old, p_new);
  auto boundary = [](Tok k) {
    switch (k) {
      case Tok::kSemi: case Tok::kComma: case Tok::kLBrace:
      case Tok::kRBrace: case Tok::kQuestion: case Tok::kColon:
      case Tok::kEof:
        return true;
      default:
        return is_assign_tok(k);
    }
  };
  int depth = 0;
  for (size_t i = index; i-- > 0;) {
    Tok k = tokens[i].kind;
    if (k == Tok::kRParen || k == Tok::kRBracket) { ++depth; continue; }
    if (k == Tok::kLParen || k == Tok::kLBracket) {
      if (depth == 0) break;  // left the enclosing parenthesis level
      --depth;
      continue;
    }
    if (depth > 0) continue;
    if (boundary(k)) break;
    int p = binop_precedence(k);
    if (p >= lo && p <= hi) return false;
  }
  depth = 0;
  for (size_t i = index + 1; i < tokens.size(); ++i) {
    Tok k = tokens[i].kind;
    if (k == Tok::kLParen || k == Tok::kLBracket) { ++depth; continue; }
    if (k == Tok::kRParen || k == Tok::kRBracket) {
      if (depth == 0) break;
      --depth;
      continue;
    }
    if (depth > 0) continue;
    if (boundary(k)) break;
    int p = binop_precedence(k);
    if (p >= lo && p <= hi) return false;
  }
  return true;
}

/// Operator-swap half of the classification: the replacement must keep the
/// clean parse tree. Same grouping class (equal binary precedence, or the
/// one assignment / unary-prefix level) always does; a cross-precedence
/// binary swap only when every tagged occurrence of the site passes the
/// neighbour scan above. A site whose token never appears in the clean
/// stream (lowered away, or a macro shape that drops tags) is unverifiable
/// and falls back.
bool operator_swap_keeps_tree(const PreparedCampaign& prep, uint32_t site_id,
                              minic::Tok new_op) {
  const std::vector<minic::Token>& tokens = prep.recorded.tokens;
  size_t occurrences = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].site != site_id) continue;
    ++occurrences;
    const int c_old = grouping_class(tokens[i].kind);
    const int c_new = grouping_class(new_op);
    if (c_old == kClassUnknown || c_new == kClassUnknown) return false;
    if (c_old == c_new) continue;
    if (c_old < 0 || c_new < 0) return false;  // across operator shapes
    if (!precedence_swap_safe(tokens, i, c_old, c_new)) return false;
  }
  return occurrences > 0;
}

/// Maps one mutant onto a bytecode patch request, or nullopt when the
/// mutant is not token-local (multi-token replacement, possible token
/// merges, macro-involved renames, O-typo literals, tree-reshaping
/// precedence changes). `prep.patcher` must be non-null. Returning a
/// request does not yet mean the patch applies — the patcher still
/// classifies the lowered patch points.
std::optional<minic::bytecode::PatchRequest> derive_patch_request(
    const PreparedCampaign& prep, const mutation::Mutant& m) {
  const mutation::Site& site = prep.sites[m.site];
  if (splice_may_merge(prep.config->driver, site, m.replacement)) {
    return std::nullopt;
  }
  auto tok = lex_single_token(m.replacement);
  if (!tok) return std::nullopt;

  minic::bytecode::PatchRequest req;
  req.site = static_cast<uint32_t>(m.site);
  switch (site.kind) {
    case mutation::SiteKind::kOperator:
      // A replacement that lexes to an identifier/literal is not an
      // operator swap (defensive; Table 1 never generates one).
      if (tok->kind == minic::Tok::kIdent ||
          tok->kind == minic::Tok::kIntLit ||
          tok->kind == minic::Tok::kStringLit) {
        return std::nullopt;
      }
      // An operator of a different precedence level can re-associate the
      // parse tree (`a | b & c` groups differently than `a | b | c` did);
      // an in-place opcode rewrite preserves the clean tree, so such swaps
      // must recompile unless no neighbour operator can regroup.
      if (!operator_swap_keeps_tree(prep, req.site, tok->kind)) {
        return std::nullopt;
      }
      req.kind = minic::bytecode::PatchRequest::Kind::kOperator;
      req.new_op = tok->kind;
      return req;
    case mutation::SiteKind::kLiteral:
      // O-typos ("Ox1f0") lex to identifiers: structure-changing, fall back.
      if (tok->kind != minic::Tok::kIntLit) return std::nullopt;
      req.kind = minic::bytecode::PatchRequest::Kind::kLiteral;
      req.value = tok->int_value;
      return req;
    case mutation::SiteKind::kIdentifier: {
      if (tok->kind != minic::Tok::kIdent) return std::nullopt;
      // Macro-involved renames change the expanded token stream and move
      // macro-use lines (which snapshots and dedup classification read), so
      // they always recompile. This also keeps the `patched` bit a pure
      // function of the mutant — shard-merge and thread-count invariant.
      if (prep.patcher->is_macro(site.original) ||
          prep.patcher->is_macro(m.replacement)) {
        return std::nullopt;
      }
      req.kind = minic::bytecode::PatchRequest::Kind::kIdentifier;
      req.original = site.original;
      req.replacement = m.replacement;
      return req;
    }
  }
  return std::nullopt;
}

/// The pure per-mutant kernel: splice, compile (tail-only against the
/// cached compiled prefix on the VM engine, whole-unit token splice on the
/// walker), boot, classify. Touches nothing but its own locals and the
/// read-only `prep` (plus the locked disk pool), so any number of these can
/// run concurrently. When `snap` is non-null the site-independent boot
/// residue is captured for duplicate classification.
MutantRecord run_one_mutant(const PreparedCampaign& prep, size_t mutant_ix,
                            BootSnapshot* snap, std::string pre_spliced = {},
                            uint8_t* cache_hit = nullptr) {
  const DriverCampaignConfig& config = *prep.config;
  const mutation::Mutant& m = prep.mutants[mutant_ix];
  const mutation::Site& site = prep.sites[m.site];

  MutantRecord rec;
  rec.mutant_index = mutant_ix;
  rec.site = m.site;

  // --- patch path: token-local mutants skip the front end entirely --------
  std::optional<minic::bytecode::Module> patched;
  if (prep.patcher != nullptr) {
    auto req = derive_patch_request(prep, m);
    if (req) {
      support::StageTimer patch_timer(support::Stage::kPatch);
      patched = prep.patcher->apply(*req);
    }
    if (patched) {
      rec.patched = true;
    } else {
      rec.patch_fallback = true;
    }
  }

  // The boot runs one of three codes: the patched clean module, the tail
  // compile spliced onto the prefix segment (VM), or the whole unit
  // (walker).
  minic::SplicedProgram spliced;
  minic::Program prog;
  const std::map<std::string, std::set<uint32_t>>* macro_uses = nullptr;
  bool compile_ok = true;
  const support::DiagnosticEngine* diags = nullptr;
  if (patched) {
    // A patched boot is a prefix-cache boot: the module aliases the shared
    // segment exactly like the splice its recompile would have taken
    // (patchable mutants never change tail declarations, so their
    // recompile can never hit the whole-unit fallback). Counting it keeps
    // prefix_cache_hits equal to what recompiling every mutant would count.
    if (cache_hit) *cache_hit = 1;
    // The patched module IS the clean tail with operands rewritten; the
    // clean macro-use map is the mutant's too (patch requests never touch
    // macro names, and a macro-body literal patch moves no use lines).
    macro_uses = &prep.clean_tail.macro_use_lines;
  } else {
    // The dedup key phase may have spliced this mutant already; reuse it.
    std::string mutated_driver =
        pre_spliced.empty()
            ? mutation::apply_mutant(config.driver, prep.sites, m)
            : std::move(pre_spliced);
    if (config.engine == minic::ExecEngine::kBytecodeVm) {
      spliced = minic::compile_tail(prep.prefix, mutated_driver);
      if (!spliced.internal_error.empty()) {
        throw std::logic_error("interpreter bug on mutant: " +
                               spliced.internal_error);
      }
      // A *measured* hit: only the tail-compile path counts, not the
      // whole-unit fallback.
      if (cache_hit && !spliced.whole_unit_fallback) *cache_hit = 1;
      macro_uses = &spliced.macro_use_lines;
      compile_ok = spliced.ok();
      diags = &spliced.diags;
    } else {
      prog = minic::compile_with_prefix(prep.prefix, mutated_driver);
      if (prog.ok()) macro_uses = &prog.unit->macro_use_lines;
      compile_ok = prog.ok();
      diags = &prog.diags;
    }
  }
  if (!compile_ok) {
    rec.outcome = Outcome::kCompileTime;
    if (!diags->all().empty()) {
      rec.detail = diags->all().front().to_string();
    }
    if (snap) {
      snap->outcome = rec.outcome;
      snap->detail = rec.detail;
    }
    return rec;
  }

  BootRig rig(prep.device_pool, config.device, config.flight_recorder);
  minic::RunOutcome run;
  if (patched) {
    run = minic::run_module(*patched, rig.bus(), prep.entry,
                            config.step_budget, nullptr, config.watchdog_ms);
  } else if (spliced.ok()) {
    run = minic::run_module(*spliced.module, rig.bus(), prep.entry,
                            config.step_budget, nullptr, config.watchdog_ms);
  } else {
    run = minic::run_unit(*prog.unit, rig.bus(), prep.entry,
                          config.step_budget, config.engine, nullptr,
                          config.watchdog_ms);
  }

  if (run.fault == minic::FaultKind::kInternal) {
    throw std::logic_error("interpreter bug on mutant: " + run.fault_message);
  }
  support::StageTimer classify_timer(support::Stage::kClassify);
  rec.steps = run.steps_used;
  rec.skipped_steps = run.skipped_steps;
  const BootEnd end =
      classify_boot(run, rig, prep.clean_fingerprint, &rec.detail);
  const bool clean = end == BootEnd::kClean;
  rec.outcome = clean ? classify_clean(prep, site, run.executed, *macro_uses)
                      : kMutantOutcome[static_cast<size_t>(end)];
  if (rig.recorder() && !clean) rec.trace = rig.recorder()->render_tail();
  if (snap) {
    snap->clean = clean;
    snap->outcome = rec.outcome;
    snap->detail = rec.detail;
    snap->steps = rec.steps;
    snap->trace = rec.trace;
    if (clean) {
      snap->executed = std::move(run.executed);
      // Copy, not move: the patched path aliases the shared clean map.
      snap->macro_use_lines = *macro_uses;
    }
  }
  return rec;
}

/// Classifies a canonical duplicate from its representative's boot residue
/// against the duplicate's *own* site (stream-identical mutants at
/// different sites can legitimately differ between Boot and Dead code).
MutantRecord classify_duplicate(const PreparedCampaign& prep, size_t mutant_ix,
                                const BootSnapshot& snap) {
  const mutation::Mutant& m = prep.mutants[mutant_ix];
  MutantRecord rec;
  rec.mutant_index = mutant_ix;
  rec.site = m.site;
  rec.deduped = true;
  // Key-equal mutants boot identically, so the representative's step count
  // and post-mortem are this mutant's too.
  rec.steps = snap.steps;
  rec.trace = snap.trace;
  if (snap.clean) {
    rec.outcome = classify_clean(prep, prep.sites[m.site], snap.executed,
                                 snap.macro_use_lines);
  } else {
    rec.outcome = snap.outcome;
    rec.detail = snap.detail;
  }
  return rec;
}

/// Canonical token-class key of a spliced mutant: the lexed (macro-expanded)
/// token stream — kind, line, integer value, spelling for identifiers and
/// strings — plus the macro-use lines the dead-code classification reads.
/// Two mutants with equal keys compile identically and boot identically
/// (spellings that differ only in column positions cannot affect runtime
/// behaviour; runtime messages carry lines, never columns).
std::string canonical_key(const PreparedCampaign& prep,
                          const std::string& mutated_driver) {
  support::DiagnosticEngine diags;
  support::SourceBuffer buf(prep.prefix.name, mutated_driver);
  minic::LexOptions options;
  options.seed_macros = &prep.prefix.macros;
  options.line_offset = prep.prefix.lines;
  minic::LexOutput lexed = minic::lex_unit(buf, diags, options);
  if (diags.has_errors()) {
    // Unlexable mutants keep a raw-text key: their diagnostics may cite
    // spelling-specific columns, so only byte-identical splices dedup.
    return "!" + mutated_driver;
  }
  std::string key;
  key.reserve(lexed.tokens.size() * 8);
  for (const minic::Token& t : lexed.tokens) append_token_key(key, t);
  append_macro_lines(key, lexed.macro_use_lines);
  return key;
}

/// Fast canonical key: splices the replacement token's serialization into
/// the precomputed clean key. Returns nullopt when the mutant is not
/// eligible (define-body site, multi-token site, macro-involved
/// replacement, possible token merges, unlexable replacement) — the caller
/// then takes the slow full-re-lex path. Byte-identical to the slow key for
/// every eligible mutant (a differential ctest enforces this).
std::optional<std::string> fast_canonical_key(const PreparedCampaign& prep,
                                              const mutation::Mutant& m) {
  if (prep.key_spans.empty()) return std::nullopt;
  const mutation::Site& site = prep.sites[m.site];
  if (!site.define_name.empty()) return std::nullopt;
  auto span_it = prep.key_spans.find(static_cast<uint32_t>(m.site));
  if (span_it == prep.key_spans.end()) return std::nullopt;
  // A replacement naming a live macro would expand; slow path handles it.
  if (prep.recorded.macros.count(m.replacement) != 0) return std::nullopt;
  if (splice_may_merge(prep.config->driver, site, m.replacement)) {
    return std::nullopt;
  }
  auto tok = lex_single_token(m.replacement);
  if (!tok) return std::nullopt;
  minic::Token t = *tok;
  t.loc.line = span_it->second.line;  // replacement stays on the site's line
  std::string key;
  key.reserve(prep.clean_key.size() + m.replacement.size() + 16);
  key.append(prep.clean_key, 0, span_it->second.begin);
  append_token_key(key, t);
  key.append(prep.clean_key, span_it->second.end, std::string::npos);
  return key;
}

/// Runs the clean tail through the recording compile and, when it splices
/// cleanly, builds the patcher plus the fast-key spans. Called once per
/// campaign, after the site scan, only on the VM engine.
void build_patch_context(PreparedCampaign& prep) {
  const DriverCampaignConfig& config = *prep.config;
  std::vector<minic::SiteSpan>& spans = prep.recorded.site_spans;
  spans.reserve(prep.sites.size());
  for (size_t s = 0; s < prep.sites.size(); ++s) {
    spans.push_back({static_cast<uint32_t>(prep.sites[s].offset),
                     static_cast<uint32_t>(prep.sites[s].length),
                     static_cast<uint32_t>(s)});
  }
  std::sort(spans.begin(), spans.end(),
            [](const minic::SiteSpan& a, const minic::SiteSpan& b) {
              return a.offset < b.offset;
            });
  prep.clean_tail =
      minic::compile_tail(prep.prefix, config.driver, &prep.recorded);
  // The clean driver compiled whole-unit moments ago (baseline boot), so a
  // missing tail unit can only mean the whole-unit fallback — every mutant
  // then recompiles, exactly as on the walker.
  if (prep.recorded.tail_unit == nullptr) return;
  prep.patcher = std::make_unique<minic::bytecode::Patcher>(
      *prep.clean_tail.module, prep.prefix.compiled->unit,
      *prep.recorded.tail_unit, prep.recorded.macros,
      std::move(prep.recorded.patch));

  // Fast-key spans: serialize the clean stream once, remembering which key
  // bytes each site's token owns. Only sites whose token appears exactly
  // once and never via macro expansion are spliceable.
  struct SpanAgg {
    KeySpan span;
    size_t count = 0;
    bool expanded = false;
  };
  std::string key;
  key.reserve(prep.recorded.tokens.size() * 8);
  std::unordered_map<uint32_t, SpanAgg> agg;
  for (const minic::Token& t : prep.recorded.tokens) {
    size_t begin = key.size();
    append_token_key(key, t);
    if (t.site == minic::kNoSite) continue;
    SpanAgg& a = agg[t.site];
    ++a.count;
    if (t.from_expansion) a.expanded = true;
    a.span = {begin, key.size(), t.loc.line};
  }
  append_macro_lines(key, prep.recorded.tail_macro_use_lines);
  prep.clean_key = std::move(key);
  for (const auto& [site_id, a] : agg) {
    if (a.count == 1 && !a.expanded) prep.key_spans.emplace(site_id, a.span);
  }
}

}  // namespace

DriverCampaignResult run_driver_campaign(const DriverCampaignConfig& config) {
  return run_driver_campaign_slice(config, SampleSlice{});
}

DriverCampaignResult run_driver_campaign_slice(
    const DriverCampaignConfig& config, SampleSlice slice,
    CampaignSideband* sideband) {
  const KernelContext kc =
      check_kernel_preconditions("driver campaign", config, slice);
  PreparedCampaign prep;
  prep.config = &config;
  prep.entry = kc.entry;
  prep.device_pool.set_factory(config.device.make_device);

  // Lex the invariant stub prefix once; every mutant re-lexes only the
  // driver tail. Mutants never touch the stubs (sites are scanned in the
  // driver alone), so the cached tokens are valid for all of them.
  const std::string prefix_text =
      config.stubs.empty() ? std::string() : config.stubs + "\n";
  prep.prefix = minic::prepare_prefix(config.unit_name, prefix_text);
  if (!prep.prefix.ok()) {
    throw std::logic_error(kc.who + "driver stubs do not lex:\n" +
                           prep.prefix.diags.render());
  }

  // --- baseline run -----------------------------------------------------------
  minic::Program clean = minic::compile_with_prefix(prep.prefix,
                                                    config.driver);
  if (!clean.ok()) {
    throw std::logic_error(kc.who + "unmutated driver does not compile:\n" +
                           clean.diags.render());
  }
  DriverCampaignResult result;
  result.device = config.device.device;
  result.entry = prep.entry;
  {
    BootRig rig(prep.device_pool, config.device);
    // The baseline boot doubles as the campaign's deterministic profile
    // run: steps retired and (on the VM) the per-opcode dispatch counts.
    // Every shard recomputes these; merge validation rejects disagreement.
    const bool vm_engine = config.engine == minic::ExecEngine::kBytecodeVm;
    auto run = minic::run_unit(*clean.unit, rig.bus(), prep.entry,
                               config.step_budget, config.engine,
                               vm_engine ? &result.baseline_opcodes : nullptr,
                               config.watchdog_ms);
    result.baseline_steps = run.steps_used;
    check_baseline_boot(kc, run, rig.device());
    result.clean_fingerprint = run.return_value;
  }
  prep.clean_fingerprint = result.clean_fingerprint;

  // --- mutant generation ---------------------------------------------------------
  mutation::CScanOptions scan;
  scan.classes = config.is_cdevil
                     ? mutation::classes_for_cdevil_driver(config.stubs,
                                                           config.driver)
                     : mutation::classes_for_c_driver(config.driver);
  prep.sites = mutation::scan_c_sites(config.driver, scan);
  prep.mutants = mutation::generate_c_mutants(prep.sites, scan.classes);
  result.total_sites = prep.sites.size();
  result.total_mutants = prep.mutants.size();

  // --- clean-tail recording compile (patching + fast dedup keys) ------------------
  if (config.engine == minic::ExecEngine::kBytecodeVm && !prep.sites.empty()) {
    build_patch_context(prep);
  }

  const std::vector<size_t> selected =
      sample_slice(prep.mutants.size(), config.sample_percent, config.seed,
                   slice, sideband);
  result.sampled_mutants = selected.size();
  // prefix_cache_hit is assigned wholesale after the boot phase.
  if (sideband && config.dedup) {
    sideband->canonical_hash.resize(selected.size());
  }

  // --- canonical dedup (phases 1-2) ----------------------------------------------
  // Keys are computed in parallel (per-index writes only); the first-seen
  // mapping is built sequentially afterwards, so it is deterministic at any
  // thread count.
  std::vector<size_t> dup_of(selected.size(), static_cast<size_t>(-1));
  std::vector<uint8_t> wants_snapshot(selected.size(), 0);
  std::vector<std::string> spliced(config.dedup ? selected.size() : 0);
  if (config.dedup && !selected.empty()) {
    std::vector<std::string> keys(selected.size());
    support::parallel_for(selected.size(), config.threads, [&](size_t i) {
      const mutation::Mutant& m = prep.mutants[selected[i]];
      // Token-local mutants splice their key into the precomputed clean
      // key; the rest (define-body sites, macro-involved replacements,
      // token merges) re-lex the spliced driver as before. Byte-identical
      // either way, so dedup grouping never depends on which key path ran
      // (the walker, which builds no patch context, re-lexes every key).
      if (auto fast = fast_canonical_key(prep, m)) {
        keys[i] = std::move(*fast);
      } else {
        spliced[i] = mutation::apply_mutant(config.driver, prep.sites, m);
        keys[i] = canonical_key(prep, spliced[i]);
      }
      if (sideband) sideband->canonical_hash[i] = support::fnv128(keys[i]);
    });
    std::unordered_map<std::string, size_t> first_seen;
    first_seen.reserve(selected.size());
    for (size_t i = 0; i < selected.size(); ++i) {
      auto [it, inserted] = first_seen.emplace(std::move(keys[i]), i);
      if (!inserted) {
        dup_of[i] = it->second;
        wants_snapshot[it->second] = 1;
        ++result.deduped_mutants;
      }
    }
  }

  // --- per-mutant compile + boot (phase 3, parallel map) --------------------------
  // Workers write only their own records[i] / snapshot slots; the
  // order-sensitive tally reduction happens after the join, so the result
  // is identical at any thread count.
  result.records.resize(selected.size());
  std::vector<BootSnapshot> snapshots(config.dedup ? selected.size() : 0);
  std::vector<size_t> unique_ix;
  unique_ix.reserve(selected.size());
  for (size_t i = 0; i < selected.size(); ++i) {
    if (dup_of[i] == static_cast<size_t>(-1)) unique_ix.push_back(i);
  }
  std::vector<uint8_t> cache_hits(selected.size(), 0);
  run_boots(kc, unique_ix.size(), config.threads, [&](size_t u) {
    size_t i = unique_ix[u];
    BootSnapshot* snap = wants_snapshot[i] ? &snapshots[i] : nullptr;
    result.records[i] = run_one_mutant(
        prep, selected[i], snap,
        config.dedup ? std::move(spliced[i]) : std::string(), &cache_hits[i]);
  });
  for (uint8_t hit : cache_hits) result.prefix_cache_hits += hit;
  if (sideband) sideband->prefix_cache_hit = cache_hits;

  // --- duplicate classification (phase 4, sequential) -----------------------------
  for (size_t i = 0; i < selected.size(); ++i) {
    if (dup_of[i] != static_cast<size_t>(-1)) {
      result.records[i] =
          classify_duplicate(prep, selected[i], snapshots[dup_of[i]]);
    }
  }

  for (const MutantRecord& rec : result.records) {
    result.tally.add(rec.outcome, rec.site);
    result.patch_hits += rec.patched ? 1 : 0;
    result.patch_fallbacks += rec.patch_fallback ? 1 : 0;
    result.fast_forwards += rec.skipped_steps != 0 ? 1 : 0;
    result.skipped_steps += rec.skipped_steps;
  }
  return result;
}

}  // namespace eval
