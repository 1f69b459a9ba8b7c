// Bytecode-patch mutation: classification goldens for the Table 1 typo
// rules, patched-vs-recompiled byte identity on every corpus device (the
// tree walker, which recompiles every mutant as a whole unit, is the
// reference), and the corrupted-patch-table guard. The differential suites
// double as coverage of the fast canonical dedup-key path: the walker builds
// no patch context, so every one of its keys is a full re-lex, and dedup
// grouping (the records' `deduped` flags and `deduped_mutants`) must match
// the VM's fast keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "minic/bytecode/patcher.h"
#include "minic/program.h"

namespace {

// ---------------------------------------------------------------------------
// Patchability goldens: a synthetic tail with one lowering per Table 1
// operator rule, sites threaded by hand exactly as the campaign threads
// mutation::scan_c_sites spans.
// ---------------------------------------------------------------------------

const char kGoldenDriver[] =
    "int bin_and(int a, int b) { return a & b; }\n"
    "int bin_or(int a, int b) { return a | b; }\n"
    "int bin_xor(int a, int b) { return a ^ b; }\n"
    "int log_and(int a, int b) { return a && b; }\n"
    "int log_or(int a, int b) { return a || b; }\n"
    "int shift(int a, int b) { return a << b; }\n"
    "int flip(int a) { return ~a; }\n"
    "int sum(int a, int b) { return a + b; }\n"
    "int same(int a, int b) { if (a == b) { return 1; } return 0; }\n"
    "int acc_and(int a) { a &= 5; return a; }\n"
    "int acc_shl(int a) { a <<= 2; return a; }\n"
    "int boot() { return 1; }\n";

/// Finds `token` after `context` in the driver text and appends its span.
/// Sites are added in text order, so the span vector stays sorted.
uint32_t add_site(std::vector<minic::SiteSpan>& spans, const std::string& text,
                  const char* context, const char* token) {
  size_t ctx = text.find(context);
  EXPECT_NE(ctx, std::string::npos) << context;
  size_t off = text.find(token, ctx);
  EXPECT_NE(off, std::string::npos) << token;
  uint32_t id = static_cast<uint32_t>(spans.size());
  spans.push_back({static_cast<uint32_t>(off),
                   static_cast<uint32_t>(std::strlen(token)), id});
  return id;
}

struct GoldenContext {
  minic::PreparedPrefix prefix;
  minic::SplicedProgram clean;
  minic::TailRecording recorded;
  // Site ids in the order add_site assigned them.
  uint32_t amp, pipe, caret, ampamp, pipepipe, shl, tilde, plus, eq, amp_assign,
      lit5, shl_eq;
};

GoldenContext build_golden() {
  GoldenContext g;
  const std::string text = kGoldenDriver;
  std::vector<minic::SiteSpan> spans;
  g.amp = add_site(spans, text, "bin_and", "&");
  g.pipe = add_site(spans, text, "bin_or", "|");
  g.caret = add_site(spans, text, "bin_xor", "^");
  g.ampamp = add_site(spans, text, "log_and", "&&");
  g.pipepipe = add_site(spans, text, "log_or", "||");
  g.shl = add_site(spans, text, "shift", "<<");
  g.tilde = add_site(spans, text, "flip", "~");
  g.plus = add_site(spans, text, "sum(", "+");
  g.eq = add_site(spans, text, "same", "==");
  g.amp_assign = add_site(spans, text, "acc_and", "&=");
  g.lit5 = add_site(spans, text, "acc_and", "5");
  g.shl_eq = add_site(spans, text, "acc_shl", "<<=");

  g.prefix = minic::prepare_prefix("golden.c", "");
  EXPECT_TRUE(g.prefix.ok()) << g.prefix.diags.render();
  EXPECT_NE(g.prefix.compiled, nullptr);
  g.recorded.site_spans = std::move(spans);
  g.clean = minic::compile_tail(g.prefix, text, &g.recorded);
  EXPECT_TRUE(g.clean.ok()) << g.clean.diags.render();
  EXPECT_FALSE(g.clean.whole_unit_fallback);
  EXPECT_NE(g.recorded.tail_unit, nullptr);
  EXPECT_FALSE(g.recorded.patch.points.empty());
  return g;
}

minic::bytecode::Patcher make_patcher(const GoldenContext& g,
                                      minic::bytecode::PatchTable table) {
  return minic::bytecode::Patcher(*g.clean.module,
                                  g.prefix.compiled->unit,
                                  *g.recorded.tail_unit, g.recorded.macros,
                                  std::move(table));
}

std::optional<minic::bytecode::Module> try_op(
    const minic::bytecode::Patcher& p, uint32_t site, minic::Tok new_op) {
  minic::bytecode::PatchRequest req;
  req.kind = minic::bytecode::PatchRequest::Kind::kOperator;
  req.site = site;
  req.new_op = new_op;
  return p.apply(req);
}

// Every Table 1 operator rule, classified: pure operand rewrites patch,
// structure changes (a bitwise op becoming short-circuit control flow, or
// the reverse) fall back to recompilation.
TEST(BytecodePatch, OperatorRulesClassifyPerTable1) {
  auto g = build_golden();
  auto patcher = make_patcher(g, g.recorded.patch);
  using minic::Tok;

  // & -> | rewrites the binop opcode; & -> && needs short-circuit control
  // flow that the lowering does not have.
  EXPECT_TRUE(try_op(patcher, g.amp, Tok::kPipe).has_value());
  EXPECT_FALSE(try_op(patcher, g.amp, Tok::kAmpAmp).has_value());
  // | -> & patches; | -> || falls back.
  EXPECT_TRUE(try_op(patcher, g.pipe, Tok::kAmp).has_value());
  EXPECT_FALSE(try_op(patcher, g.pipe, Tok::kPipePipe).has_value());
  // ^ -> & and ^ -> | are plain opcode swaps.
  EXPECT_TRUE(try_op(patcher, g.caret, Tok::kAmp).has_value());
  EXPECT_TRUE(try_op(patcher, g.caret, Tok::kPipe).has_value());
  // && <-> || swaps the short-circuit jump pair; && -> & would have to
  // un-branch the lowering.
  EXPECT_TRUE(try_op(patcher, g.ampamp, Tok::kPipePipe).has_value());
  EXPECT_FALSE(try_op(patcher, g.ampamp, Tok::kAmp).has_value());
  EXPECT_TRUE(try_op(patcher, g.pipepipe, Tok::kAmpAmp).has_value());
  EXPECT_FALSE(try_op(patcher, g.pipepipe, Tok::kPipe).has_value());
  // << <-> >>, ~ <-> !, + <-> -, == <-> != are all operand rewrites.
  EXPECT_TRUE(try_op(patcher, g.shl, Tok::kShr).has_value());
  EXPECT_TRUE(try_op(patcher, g.tilde, Tok::kBang).has_value());
  EXPECT_TRUE(try_op(patcher, g.plus, Tok::kMinus).has_value());
  EXPECT_TRUE(try_op(patcher, g.eq, Tok::kNe).has_value());
  // Compound assignments patch their base operator in place.
  EXPECT_TRUE(try_op(patcher, g.amp_assign, Tok::kOrAssign).has_value());
  EXPECT_TRUE(try_op(patcher, g.shl_eq, Tok::kShrAssign).has_value());
  // Default-deny: an operator kind the site's lowering cannot express.
  EXPECT_FALSE(try_op(patcher, g.amp, Tok::kAssign).has_value());
}

TEST(BytecodePatch, LiteralRewriteAndUnknownSiteFallBackCorrectly) {
  auto g = build_golden();
  auto patcher = make_patcher(g, g.recorded.patch);

  minic::bytecode::PatchRequest lit;
  lit.kind = minic::bytecode::PatchRequest::Kind::kLiteral;
  lit.site = g.lit5;
  lit.value = 7;
  EXPECT_TRUE(patcher.apply(lit).has_value());

  // A site that lowered to no points (here: an id the table never saw)
  // classifies as fallback, never as a silent no-op patch.
  minic::bytecode::PatchRequest unknown;
  unknown.kind = minic::bytecode::PatchRequest::Kind::kOperator;
  unknown.site = 4096;
  unknown.new_op = minic::Tok::kPipe;
  EXPECT_FALSE(patcher.apply(unknown).has_value());
}

// A corrupted patch table must be rejected loudly at splice time — booting
// the wrong driver would silently poison a whole campaign.
TEST(BytecodePatch, CorruptTableRejectedAtSpliceTime) {
  auto g = build_golden();
  auto table = g.recorded.patch;
  ASSERT_FALSE(table.points.empty());
  const uint32_t site = table.points[0].site;
  table.points[0].insn = 0x00ffffffu;  // past the end of any tail function
  auto corrupt = make_patcher(g, std::move(table));
  EXPECT_THROW((void)try_op(corrupt, site, minic::Tok::kPipe),
               std::runtime_error);

  auto bad_fn = g.recorded.patch;
  const uint32_t fn_site = bad_fn.points[0].site;
  bad_fn.points[0].fn = 0x00ffffffu;  // function index not in the tail
  auto corrupt_fn = make_patcher(g, std::move(bad_fn));
  EXPECT_THROW((void)try_op(corrupt_fn, fn_site, minic::Tok::kPipe),
               std::runtime_error);
}

// Inverse guard, run by the `bytecode_patch_corrupt_table_guard` ctest with
// WILL_FAIL TRUE: splicing through a corrupted table must throw (making
// this test — and the process — fail, which the WILL_FAIL inverts into a
// pass). If the patcher ever starts accepting the corrupt table silently,
// this test passes, the ctest's expected failure disappears, and the suite
// goes red.
TEST(BytecodePatch, DISABLED_CorruptTableSplicesSilently) {
  auto g = build_golden();
  auto table = g.recorded.patch;
  ASSERT_FALSE(table.points.empty());
  const uint32_t site = table.points[0].site;
  table.points[0].insn = 0x00ffffffu;
  auto corrupt = make_patcher(g, std::move(table));
  (void)try_op(corrupt, site, minic::Tok::kPipe);  // must throw
}

// ---------------------------------------------------------------------------
// Campaign differentials: VM vs walker, thread counts, pool recycling.
// ---------------------------------------------------------------------------

const corpus::CampaignDrivers& drivers_for(const char* device) {
  for (const auto& d : corpus::campaign_drivers()) {
    if (std::strcmp(d.device, device) == 0) return d;
  }
  throw std::runtime_error(std::string("no corpus for ") + device);
}

eval::DriverCampaignConfig patch_config(const corpus::CampaignDrivers& d,
                                        bool cdevil) {
  eval::DriverCampaignConfig cfg;
  if (cdevil) {
    auto spec =
        devil::compile_spec(d.spec_file, d.spec(), devil::CodegenMode::kDebug);
    if (!spec.ok()) throw std::runtime_error(spec.diags.render());
    cfg.stubs = spec.stubs;
    cfg.driver = d.cdevil_driver();
    cfg.is_cdevil = true;
  } else {
    cfg.driver = d.c_driver();
  }
  cfg.entry = d.entry;
  cfg.device = eval::binding_for(d.device);
  cfg.sample_percent = std::min(d.sample_percent, 10u);  // keep the test quick
  cfg.flight_recorder = true;  // traces must be patch-invariant too
  return cfg;
}

/// Everything a campaign result reports except the patch telemetry bits:
/// outcomes, details, steps, traces, dedup grouping, baseline — and, between
/// two runs on one engine, cache hits and the baseline opcode profile (the
/// walker produces neither).
void expect_identical(const eval::DriverCampaignResult& a,
                      const eval::DriverCampaignResult& b,
                      bool same_engine = true) {
  EXPECT_EQ(a.clean_fingerprint, b.clean_fingerprint);
  EXPECT_EQ(a.total_sites, b.total_sites);
  EXPECT_EQ(a.total_mutants, b.total_mutants);
  EXPECT_EQ(a.sampled_mutants, b.sampled_mutants);
  EXPECT_EQ(a.deduped_mutants, b.deduped_mutants);
  if (same_engine) {
    EXPECT_EQ(a.prefix_cache_hits, b.prefix_cache_hits);
    EXPECT_TRUE(a.baseline_opcodes == b.baseline_opcodes);
  }
  EXPECT_EQ(a.baseline_steps, b.baseline_steps);
  EXPECT_EQ(a.tally.mutants, b.tally.mutants);
  EXPECT_EQ(a.tally.sites, b.tally.sites);
  EXPECT_EQ(a.tally.total_mutants, b.tally.total_mutants);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].mutant_index, b.records[i].mutant_index) << i;
    EXPECT_EQ(a.records[i].site, b.records[i].site) << i;
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << i;
    EXPECT_EQ(a.records[i].detail, b.records[i].detail) << i;
    EXPECT_EQ(a.records[i].deduped, b.records[i].deduped) << i;
    EXPECT_EQ(a.records[i].steps, b.records[i].steps) << i;
    EXPECT_EQ(a.records[i].trace, b.records[i].trace) << i;
  }
}

/// The patched/fallback split is a pure function of each mutant, so it must
/// agree record-for-record across thread counts and reruns.
void expect_same_patch_bits(const eval::DriverCampaignResult& a,
                            const eval::DriverCampaignResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].patched, b.records[i].patched) << i;
    EXPECT_EQ(a.records[i].patch_fallback, b.records[i].patch_fallback) << i;
  }
  EXPECT_EQ(a.patch_hits, b.patch_hits);
  EXPECT_EQ(a.patch_fallbacks, b.patch_fallbacks);
}

/// When the campaign built a patcher, every unique (non-deduped) record
/// carries exactly one of the two bits; duplicates never carry either.
void expect_bit_partition(const eval::DriverCampaignResult& r) {
  size_t hits = 0, fallbacks = 0;
  for (const auto& rec : r.records) {
    EXPECT_FALSE(rec.patched && rec.patch_fallback);
    if (rec.deduped) {
      EXPECT_FALSE(rec.patched);
      EXPECT_FALSE(rec.patch_fallback);
    }
    hits += rec.patched ? 1 : 0;
    fallbacks += rec.patch_fallback ? 1 : 0;
  }
  EXPECT_EQ(hits, r.patch_hits);
  EXPECT_EQ(fallbacks, r.patch_fallbacks);
  if (r.patch_hits + r.patch_fallbacks > 0) {
    EXPECT_EQ(r.patch_hits + r.patch_fallbacks,
              r.records.size() - r.deduped_mutants);
  }
}

/// The same campaign on the tree walker: every mutant recompiled as a whole
/// unit, every dedup key re-lexed.
eval::DriverCampaignResult run_on_walker(eval::DriverCampaignConfig cfg) {
  cfg.engine = minic::ExecEngine::kTreeWalker;
  return eval::run_driver_campaign(cfg);
}

// Patched boots must be byte-identical to recompiled boots — outcome,
// detail, steps, flight-recorder trace, dedup grouping — on every corpus
// device (polled and interrupt-driven), both driver flavors, at one and at
// four threads.
TEST(BytecodePatch, PatchedMatchesRecompiledOnEveryCorpusDevice) {
  std::vector<corpus::CampaignDrivers> all = corpus::campaign_drivers();
  for (const auto& d : corpus::irq_campaign_drivers()) all.push_back(d);
  size_t total_hits = 0, total_fallbacks = 0;
  for (const auto& d : all) {
    for (bool cdevil : {false, true}) {
      SCOPED_TRACE(std::string(d.device) + (cdevil ? "/CDevil" : "/C"));
      auto cfg = patch_config(d, cdevil);
      cfg.threads = 1;
      auto on1 = eval::run_driver_campaign(cfg);
      auto walker = run_on_walker(cfg);
      cfg.threads = 4;
      auto on4 = eval::run_driver_campaign(cfg);

      expect_identical(on1, walker, /*same_engine=*/false);
      expect_identical(on1, on4);
      expect_same_patch_bits(on1, on4);
      expect_bit_partition(on1);
      EXPECT_EQ(walker.patch_hits, 0u);
      EXPECT_EQ(walker.patch_fallbacks, 0u);
      total_hits += on1.patch_hits;
      total_fallbacks += on1.patch_fallbacks;
    }
  }
  // The patched path must actually engage, or the identity above is vacuous.
  EXPECT_GT(total_hits, 0u);
  EXPECT_GT(total_fallbacks, 0u);
}

// Full-corpus regression for the precedence guard: the busmouse driver's
// `(buttons << 16) | (dy << 8) | dx` is exactly the shape where an in-place
// `|` -> `&` opcode rewrite keeps the clean parse tree while a recompile
// re-associates (`&` binds tighter), so the classifier must recompile it.
// Only the full sample reaches every such mutant.
TEST(BytecodePatch, FullBusmouseSamplePatchedMatchesWalker) {
  const auto& d = drivers_for("busmouse");
  auto cfg = patch_config(d, false);
  cfg.sample_percent = d.sample_percent;  // the full corpus
  cfg.threads = 4;
  auto on = eval::run_driver_campaign(cfg);
  expect_identical(on, run_on_walker(cfg), /*same_engine=*/false);
  expect_bit_partition(on);
  EXPECT_GT(on.patch_hits, 0u);
  EXPECT_GT(on.patch_fallbacks, 0u);
}

// Device-pool recycling across patched boots: running the same campaign
// twice (same pool discipline, fresh pools) is bit-identical, patch
// telemetry included.
TEST(BytecodePatch, PatchedBootsOnRecycledDevicesAreBitIdentical) {
  auto cfg = patch_config(drivers_for("ide"), false);
  cfg.threads = 4;
  auto first = eval::run_driver_campaign(cfg);
  auto second = eval::run_driver_campaign(cfg);
  expect_identical(first, second);
  expect_same_patch_bits(first, second);
  EXPECT_GT(first.patch_hits, 0u);
}

}  // namespace
