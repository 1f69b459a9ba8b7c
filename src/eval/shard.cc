#include "eval/shard.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "support/json_io.h"
#include "support/strings.h"

namespace eval {

namespace {

constexpr const char* kFormatTag = "devil-repro-shard";
// Version 2: records carry interpreter step counts (and flight-recorder
// traces when present), artifacts carry the baseline boot's steps and VM
// opcode profile, and bundles may embed process metrics.
// Version 3: records carry `patched`/`patch_fallback` bits and campaign
// artifacts the matching `patch_hits`/`patch_fallbacks` counters.
// Version 4: opcode indices renumbered (three opcodes removed), so an older
// artifact's baseline opcode profile would read as other opcodes.
constexpr int64_t kFormatVersion = 4;

/// All outcomes, in enum order, for tally serialization and the reverse
/// outcome_short lookup.
constexpr Outcome kAllOutcomes[] = {
    Outcome::kCompileTime, Outcome::kRunTime,      Outcome::kDeadCode,
    Outcome::kBoot,        Outcome::kCrash,        Outcome::kInfiniteLoop,
    Outcome::kHalt,        Outcome::kDamagedBoot,
};

constexpr FaultOutcome kAllFaultOutcomes[] = {
    FaultOutcome::kDevilCheck, FaultOutcome::kDriverPanic,
    FaultOutcome::kCrash,      FaultOutcome::kHang,
    FaultOutcome::kCorruptBoot, FaultOutcome::kCleanBoot,
};

constexpr hw::FaultKind kAllFaultKinds[] = {
    hw::FaultKind::kStuckZero,   hw::FaultKind::kStuckOne,
    hw::FaultKind::kFlipOnce,    hw::FaultKind::kDropWrite,
    hw::FaultKind::kFloatingBus, hw::FaultKind::kNeverReady,
    hw::FaultKind::kLostIrq,     hw::FaultKind::kSpuriousIrq,
    hw::FaultKind::kIrqStorm,    hw::FaultKind::kDelayIrq,
};

/// Reverse lookup of a serialized enum name (`what` names the enum in the
/// diagnostic: "outcome", "fault outcome", "fault kind").
template <class E, size_t N>
E enum_from_name(const E (&all)[N], const char* (*name_of)(E),
                 const std::string& name, const std::string& ctx,
                 const char* what) {
  for (E e : all) {
    if (name == name_of(e)) return e;
  }
  throw std::runtime_error(ctx + ": unknown " + what + " '" + name + "'");
}

bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// Inverse of support::hex128, with artifact-shaped diagnostics.
std::pair<uint64_t, uint64_t> parse_hex128(const std::string& s,
                                           const std::string& ctx) {
  if (s.size() != 32) {
    throw std::runtime_error(ctx + ": expected 32 hex chars, got '" + s + "'");
  }
  uint64_t lanes[2] = {0, 0};
  for (size_t i = 0; i < 32; ++i) {
    char c = s[i];
    uint64_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      throw std::runtime_error(ctx + ": invalid hex char in '" + s + "'");
    }
    lanes[i / 16] = (lanes[i / 16] << 4) | nibble;
  }
  return {lanes[0], lanes[1]};
}

// --- typed field access with artifact-shaped diagnostics ---------------------

using support::require;
using support::require_string;
using support::require_u64;

/// Reads an optional boolean that the writer omits when false.
bool optional_flag(const support::JsonValue& obj, const char* key) {
  const support::JsonValue* v = obj.find(key);
  return v != nullptr && v->as_bool();
}

/// Reads an optional non-negative integer that the writer omits when zero.
size_t optional_size(const support::JsonValue& obj, const char* key,
                     const std::string& ctx) {
  return obj.find(key) ? require_u64(obj, key, ctx) : 0;
}

/// Opcode profiles serialize as zero-suppressed [opcode index, count] pairs
/// in ascending index order — the shard format is internal, so indices are
/// exact and compact (the metrics artifact uses names instead).
support::JsonValue opcode_profile_to_json(
    const minic::bytecode::OpcodeProfile& profile) {
  support::JsonValue pairs = support::JsonValue::array();
  for (size_t i = 0; i < minic::bytecode::kOpCount; ++i) {
    if (profile.counts[i] == 0) continue;
    support::JsonValue pair = support::JsonValue::array();
    pair.push_back(static_cast<int64_t>(i));
    pair.push_back(profile.counts[i]);
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

minic::bytecode::OpcodeProfile opcode_profile_from_json(
    const support::JsonValue& v, const std::string& ctx) {
  minic::bytecode::OpcodeProfile profile;
  int64_t prev = -1;
  for (const support::JsonValue& pair : v.items()) {
    if (pair.items().size() != 2) {
      throw std::runtime_error(ctx + ": opcode entry is not an "
                               "[index, count] pair");
    }
    int64_t ix = pair.items()[0].as_int();
    int64_t count = pair.items()[1].as_int();
    if (ix <= prev || ix >= static_cast<int64_t>(minic::bytecode::kOpCount)) {
      throw std::runtime_error(ctx + ": opcode index " + std::to_string(ix) +
                               " out of range or out of order");
    }
    if (count <= 0) {
      throw std::runtime_error(ctx + ": opcode count must be positive (zero "
                               "rows are suppressed)");
    }
    profile.counts[static_cast<size_t>(ix)] = static_cast<uint64_t>(count);
    prev = ix;
  }
  return profile;
}

// --- the slice steps both artifact kinds share --------------------------------

/// The 0-based kernel slice of a 1-based shard spec.
SampleSlice kernel_slice(ShardSpec spec) {
  if (spec.count == 0 || spec.index == 0 || spec.index > spec.count) {
    throw std::invalid_argument("bad shard spec " + spec.to_string() +
                                ": shard index is 1-based and must be between "
                                "1 and the shard count");
  }
  return SampleSlice{spec.index - 1, spec.count};
}

/// Runs slice `spec` through `kernel` and packages it with its campaign's
/// label, engine and fingerprint.
template <class Result, class Kernel>
CampaignSlice<Result> run_slice(ShardSpec spec, const std::string& label,
                                minic::ExecEngine engine,
                                std::string fingerprint, Kernel kernel) {
  const SampleSlice slice = kernel_slice(spec);
  CampaignSlice<Result> a;
  a.label = label;
  a.engine = minic::exec_engine_name(engine);
  a.fingerprint = std::move(fingerprint);
  a.result = kernel(slice);
  std::tie(a.slice_begin, a.slice_end) =
      sample_slice_bounds(a.result.sample_size, slice);
  return a;
}

using KindFields =
    std::initializer_list<std::pair<const char*, support::JsonValue>>;

/// Serializes the header in artifact key order, with the kind's scalar
/// fields where artifacts have always carried them: after the fingerprint,
/// after the slice bounds, and after the clean fingerprint.
template <class Result>
support::JsonValue header_to_json(const CampaignSlice<Result>& a,
                                  KindFields after_fingerprint,
                                  KindFields after_slice,
                                  KindFields after_clean) {
  const CampaignBaseline& b = a.result;
  support::JsonValue c = support::JsonValue::object();
  auto put = [&c](KindFields fields) {
    for (const auto& [key, value] : fields) c.set(key, value);
  };
  c.set("device", b.device);
  c.set("label", a.label);
  c.set("entry", b.entry);
  c.set("engine", a.engine);
  c.set("fingerprint", a.fingerprint);
  put(after_fingerprint);
  c.set("sample_size", b.sample_size);
  c.set("slice_begin", a.slice_begin);
  c.set("slice_end", a.slice_end);
  put(after_slice);
  c.set("clean_fingerprint", b.clean_fingerprint);
  put(after_clean);
  c.set("baseline_steps", b.baseline_steps);
  c.set("baseline_opcodes", opcode_profile_to_json(b.baseline_opcodes));
  return c;
}

/// Shard-local tally, keyed by the short outcome names in enum order
/// (std::map iteration), zero rows omitted — byte-stable.
template <class O>
support::JsonValue tally_to_json(const std::map<O, size_t>& counts,
                                 const char* (*short_name)(O)) {
  support::JsonValue tally = support::JsonValue::object();
  for (const auto& [outcome, count] : counts) {
    if (count > 0) tally.set(short_name(outcome), count);
  }
  return tally;
}

/// Reads the header of the `position`-th artifact of a `kind` section
/// ("campaign", "fault campaign") into `a`. Returns the context that names
/// the campaign ("campaign ide/C") for the kind's own diagnostics.
template <class Result>
std::string read_header(const support::JsonValue& c, const char* kind,
                        size_t position, CampaignSlice<Result>& a) {
  CampaignBaseline& b = a.result;
  std::string ctx = std::string(kind) + " #" + std::to_string(position);
  b.device = require_string(c, "device", ctx);
  a.label = require_string(c, "label", ctx);
  ctx = std::string(kind) + " " + b.device + "/" + a.label;
  b.entry = require_string(c, "entry", ctx);
  a.engine = require_string(c, "engine", ctx);
  a.fingerprint = require_string(c, "fingerprint", ctx);
  b.sample_size = require_u64(c, "sample_size", ctx);
  a.slice_begin = require_u64(c, "slice_begin", ctx);
  a.slice_end = require_u64(c, "slice_end", ctx);
  b.clean_fingerprint = require(c, "clean_fingerprint", ctx).as_int();
  b.baseline_steps = require_u64(c, "baseline_steps", ctx);
  b.baseline_opcodes = opcode_profile_from_json(
      require(c, "baseline_opcodes", ctx), ctx + " baseline_opcodes");
  return ctx;
}

/// Checks the header against itself — the sample fits the `generated`
/// population (mutants or scenarios), the slice fits the sample — and
/// returns the records, which must fill the slice exactly.
template <class Result>
const support::JsonValue::Array& slice_records(const support::JsonValue& c,
                                               const CampaignSlice<Result>& a,
                                               size_t generated,
                                               const std::string& ctx) {
  const size_t sample_size = a.result.sample_size;
  if (sample_size > generated) {
    throw std::runtime_error(ctx + ": sample of " +
                             std::to_string(sample_size) +
                             " exceeds the generated matrix of " +
                             std::to_string(generated));
  }
  if (a.slice_begin > a.slice_end || a.slice_end > sample_size) {
    throw std::runtime_error(ctx + ": slice [" +
                             std::to_string(a.slice_begin) + ", " +
                             std::to_string(a.slice_end) +
                             ") does not fit the sample of " +
                             std::to_string(sample_size));
  }
  const auto& records = require(c, "records", ctx).items();
  if (records.size() != a.slice_end - a.slice_begin) {
    throw std::runtime_error(
        ctx + ": " + std::to_string(records.size()) +
        " records do not fill the slice of " +
        std::to_string(a.slice_end - a.slice_begin) +
        " (truncated artifact?)");
  }
  return records;
}

// The stored tally and counters must be re-derivable from the records — a
// mismatch means the artifact was edited or corrupted after the run.

void check_counter(const std::string& ctx, const char* field, size_t stored,
                   size_t recounted) {
  if (stored != recounted) {
    throw std::runtime_error(ctx + ": " + field + " says " +
                             std::to_string(stored) +
                             " but the records carry " +
                             std::to_string(recounted) +
                             " (corrupt artifact?)");
  }
}

template <class O, size_t N>
void check_tally(const support::JsonValue& c, const std::string& ctx,
                 const O (&outcomes)[N], const char* (*short_name)(O),
                 const std::map<O, size_t>& recounted) {
  const support::JsonValue& stored = require(c, "tally", ctx);
  for (O o : outcomes) {
    const char* name = short_name(o);
    const size_t stored_count =
        stored.find(name) ? require_u64(stored, name, ctx) : 0;
    const auto it = recounted.find(o);
    const size_t count = it == recounted.end() ? 0 : it->second;
    if (stored_count != count) {
      throw std::runtime_error(ctx + ": tally['" + name + "'] says " +
                               std::to_string(stored_count) +
                               " but the records tally " +
                               std::to_string(count) + " (corrupt artifact?)");
    }
  }
}

// --- per-kind artifact readers -------------------------------------------------

ShardArtifact parse_artifact(const support::JsonValue& c, size_t position) {
  ShardArtifact a;
  DriverCampaignResult& res = a.result;
  const std::string ctx = read_header(c, "campaign", position, a);
  res.dedup = require(c, "dedup", ctx).as_bool();
  res.total_sites = require_u64(c, "total_sites", ctx);
  res.total_mutants = require_u64(c, "total_mutants", ctx);
  const size_t deduped = require_u64(c, "deduped_mutants", ctx);
  const size_t cache_hits = require_u64(c, "prefix_cache_hits", ctx);
  const size_t patch_hits = require_u64(c, "patch_hits", ctx);
  const size_t patch_fallbacks = require_u64(c, "patch_fallbacks", ctx);

  const auto& records = slice_records(c, a, res.total_mutants, ctx);
  res.records.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string rctx = ctx + " record #" + std::to_string(i);
    const support::JsonValue& rj = records[i];
    MutantRecord r;
    r.mutant_index = require_u64(rj, "mutant", rctx);
    r.site = require_u64(rj, "site", rctx);
    r.outcome = enum_from_name(kAllOutcomes, outcome_short,
                               require_string(rj, "outcome", rctx), rctx,
                               "outcome");
    r.steps = require_u64(rj, "steps", rctx);
    if (const support::JsonValue* detail = rj.find("detail")) {
      r.detail = detail->as_string();
    }
    r.deduped = optional_flag(rj, "deduped");
    r.prefix_cache_hit = optional_flag(rj, "cache_hit");
    r.patched = optional_flag(rj, "patched");
    r.patch_fallback = optional_flag(rj, "patch_fallback");
    if (const support::JsonValue* trace = rj.find("trace")) {
      r.trace = trace->as_string();
    }
    if (res.dedup) {
      r.key =
          parse_hex128(require_string(rj, "key", rctx), rctx + " field 'key'");
    } else if (rj.find("key") != nullptr) {
      throw std::runtime_error(rctx + ": has a dedup key but the campaign "
                               "ran with dedup off");
    }
    res.records.push_back(std::move(r));
  }

  recount(res);
  check_counter(ctx, "deduped_mutants", deduped, res.deduped_mutants);
  check_counter(ctx, "prefix_cache_hits", cache_hits, res.prefix_cache_hits);
  check_counter(ctx, "patch_hits", patch_hits, res.patch_hits);
  check_counter(ctx, "patch_fallbacks", patch_fallbacks, res.patch_fallbacks);
  check_tally(c, ctx, kAllOutcomes, outcome_short, res.tally.mutants);
  return a;
}

FaultShardArtifact parse_fault_artifact(const support::JsonValue& c,
                                        size_t position) {
  FaultShardArtifact a;
  FaultCampaignResult& res = a.result;
  const std::string ctx = read_header(c, "fault campaign", position, a);
  res.total_scenarios = require_u64(c, "total_scenarios", ctx);
  const size_t triggered = require_u64(c, "triggered", ctx);

  const auto& records = slice_records(c, a, res.total_scenarios, ctx);
  res.records.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string rctx = ctx + " record #" + std::to_string(i);
    const support::JsonValue& rj = records[i];
    FaultRecord r;
    r.scenario_index = require_u64(rj, "scenario", rctx);
    r.plan.port = static_cast<uint32_t>(require_u64(rj, "port", rctx));
    r.plan.kind = enum_from_name(kAllFaultKinds, hw::fault_kind_name,
                                 require_string(rj, "kind", rctx), rctx,
                                 "fault kind");
    r.plan.after = static_cast<uint32_t>(require_u64(rj, "after", rctx));
    r.plan.mask = static_cast<uint32_t>(optional_size(rj, "mask", rctx));
    r.plan.value = static_cast<uint32_t>(optional_size(rj, "value", rctx));
    r.outcome = enum_from_name(kAllFaultOutcomes, fault_outcome_short,
                               require_string(rj, "outcome", rctx), rctx,
                               "fault outcome");
    r.steps = require_u64(rj, "steps", rctx);
    if (const support::JsonValue* detail = rj.find("detail")) {
      r.detail = detail->as_string();
    }
    r.triggered = optional_flag(rj, "triggered");
    if (const support::JsonValue* trace = rj.find("trace")) {
      r.trace = trace->as_string();
    }
    if (!r.triggered && r.outcome != FaultOutcome::kCleanBoot) {
      throw std::runtime_error(rctx + ": untriggered scenario with outcome '" +
                               fault_outcome_short(r.outcome) +
                               "' (corrupt artifact?)");
    }
    res.records.push_back(std::move(r));
  }

  recount(res);
  check_counter(ctx, "triggered", triggered, res.triggered_scenarios);
  check_tally(c, ctx, kAllFaultOutcomes, fault_outcome_short,
              res.tally.scenarios);
  return a;
}

}  // namespace

ShardSpec parse_shard_spec(const std::string& text) {
  const std::string what = "bad shard spec '" + text + "'";
  size_t slash = text.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument(what + ": expected i/N, e.g. 1/3");
  }
  std::string index_s = text.substr(0, slash);
  std::string count_s = text.substr(slash + 1);
  if (!all_digits(index_s) || !all_digits(count_s) || index_s.size() > 9 ||
      count_s.size() > 9) {
    throw std::invalid_argument(what + ": expected i/N with decimal i and N");
  }
  ShardSpec spec;
  spec.index = static_cast<unsigned>(std::stoul(index_s));
  spec.count = static_cast<unsigned>(std::stoul(count_s));
  if (spec.count == 0) {
    throw std::invalid_argument(what + ": shard count must be >= 1");
  }
  if (spec.index == 0 || spec.index > spec.count) {
    throw std::invalid_argument(what + ": shard index is 1-based and must be "
                                "between 1 and " + std::to_string(spec.count));
  }
  return spec;
}

std::string campaign_fingerprint(const DriverCampaignConfig& config) {
  const std::string entry =
      config.entry.empty() ? config.device.entry : config.entry;
  support::Fnv128 h;
  // Version tag first: a future format change re-keys every fingerprint.
  h.update_field("devil-repro-campaign-v1");
  h.update_field(config.stubs);
  h.update_field(config.driver);
  h.update_field(config.unit_name);
  h.update_field(entry);
  h.update_field(config.device.device);
  h.update_u64(config.device.port_base);
  h.update_u64(config.device.port_span);
  h.update_u64(static_cast<uint64_t>(config.device.irq_line));
  h.update_u64(config.is_cdevil ? 1 : 0);
  h.update_u64(config.sample_percent);
  h.update_u64(config.seed);
  h.update_u64(config.step_budget);
  h.update_field(minic::exec_engine_name(config.engine));
  h.update_u64(config.dedup ? 1 : 0);
  // The recorder changes record contents (traces), so shards must agree.
  h.update_u64(config.flight_recorder ? 1 : 0);
  // Deliberately not hashed: config.threads — results are thread-count
  // invariant (ctest-enforced), so shards may run at different widths.
  return h.hex();
}

ShardArtifact run_campaign_shard(const DriverCampaignConfig& config,
                                 const std::string& label, ShardSpec spec) {
  return run_slice<DriverCampaignResult>(
      spec, label, config.engine, campaign_fingerprint(config),
      [&](SampleSlice slice) {
        return run_driver_campaign_slice(config, slice);
      });
}

std::string fault_campaign_fingerprint(const FaultCampaignConfig& config) {
  support::Fnv128 h;
  // Version tag first, then the full mutation-campaign fingerprint: it
  // already pins the driver, stubs, device binding, entry, seed, step
  // budget and engine; the fault knobs follow.
  h.update_field("devil-repro-fault-campaign-v1");
  h.update_field(campaign_fingerprint(config.base));
  h.update_u64(config.sample_percent);
  h.update_u64(config.triggers.size());
  for (uint32_t t : config.triggers) h.update_u64(t);
  return h.hex();
}

FaultShardArtifact run_fault_campaign_shard(const FaultCampaignConfig& config,
                                            const std::string& label,
                                            ShardSpec spec) {
  return run_slice<FaultCampaignResult>(
      spec, label, config.base.engine, fault_campaign_fingerprint(config),
      [&](SampleSlice slice) {
        return run_fault_campaign_slice(config, slice);
      });
}

// --- serialization -----------------------------------------------------------

std::string serialize_shard_bundle(const ShardBundle& bundle) {
  using support::JsonValue;
  JsonValue root = JsonValue::object();
  root.set("format", kFormatTag);
  root.set("version", kFormatVersion);
  JsonValue shard = JsonValue::object();
  shard.set("index", static_cast<int64_t>(bundle.shard.index));
  shard.set("count", static_cast<int64_t>(bundle.shard.count));
  root.set("shard", std::move(shard));

  JsonValue campaigns = JsonValue::array();
  for (const ShardArtifact& a : bundle.campaigns) {
    const DriverCampaignResult& res = a.result;
    JsonValue c = header_to_json(
        a, {{"dedup", res.dedup}},
        {{"total_sites", res.total_sites},
         {"total_mutants", res.total_mutants}},
        {{"deduped_mutants", res.deduped_mutants},
         {"prefix_cache_hits", res.prefix_cache_hits},
         {"patch_hits", res.patch_hits},
         {"patch_fallbacks", res.patch_fallbacks}});
    c.set("tally", tally_to_json(res.tally.mutants, outcome_short));

    JsonValue records = JsonValue::array();
    for (const MutantRecord& r : res.records) {
      JsonValue rec = JsonValue::object();
      rec.set("mutant", r.mutant_index);
      rec.set("site", r.site);
      rec.set("outcome", outcome_short(r.outcome));
      rec.set("steps", r.steps);
      if (!r.detail.empty()) rec.set("detail", r.detail);
      if (r.deduped) rec.set("deduped", true);
      if (r.prefix_cache_hit) rec.set("cache_hit", true);
      if (r.patched) rec.set("patched", true);
      if (r.patch_fallback) rec.set("patch_fallback", true);
      if (res.dedup) {
        rec.set("key", support::hex128(r.key.first, r.key.second));
      }
      if (!r.trace.empty()) rec.set("trace", r.trace);
      records.push_back(std::move(rec));
    }
    c.set("records", std::move(records));
    campaigns.push_back(std::move(c));
  }
  root.set("campaigns", std::move(campaigns));

  // Fault campaigns ride in their own section, present only when a
  // `--faults` run produced any — plain mutation bundles keep their exact
  // pre-fault serialized form.
  if (!bundle.fault_campaigns.empty()) {
    JsonValue fault_campaigns = JsonValue::array();
    for (const FaultShardArtifact& a : bundle.fault_campaigns) {
      const FaultCampaignResult& res = a.result;
      JsonValue c = header_to_json(
          a, {{"total_scenarios", res.total_scenarios}}, {},
          {{"triggered", res.triggered_scenarios}});
      c.set("tally", tally_to_json(res.tally.scenarios, fault_outcome_short));

      JsonValue records = JsonValue::array();
      for (const FaultRecord& r : res.records) {
        JsonValue rec = JsonValue::object();
        rec.set("scenario", r.scenario_index);
        rec.set("port", static_cast<int64_t>(r.plan.port));
        rec.set("kind", hw::fault_kind_name(r.plan.kind));
        rec.set("after", static_cast<int64_t>(r.plan.after));
        if (r.plan.mask != 0) rec.set("mask", static_cast<int64_t>(r.plan.mask));
        if (r.plan.value != 0) {
          rec.set("value", static_cast<int64_t>(r.plan.value));
        }
        rec.set("outcome", fault_outcome_short(r.outcome));
        rec.set("steps", r.steps);
        if (!r.detail.empty()) rec.set("detail", r.detail);
        if (r.triggered) rec.set("triggered", true);
        if (!r.trace.empty()) rec.set("trace", r.trace);
        records.push_back(std::move(rec));
      }
      c.set("records", std::move(records));
      fault_campaigns.push_back(std::move(c));
    }
    root.set("fault_campaigns", std::move(fault_campaigns));
  }
  // Optional embedded process telemetry (timings only — the merge
  // aggregates it but never validates against it).
  if (bundle.has_metrics) {
    root.set("metrics", process_metrics_to_json(bundle.metrics));
  }
  return to_json(root);
}

ShardBundle parse_shard_bundle(const std::string& text) {
  support::JsonValue root = [&] {
    try {
      return support::parse_json(text);
    } catch (const support::JsonError& e) {
      throw std::runtime_error(std::string("not a shard artifact: ") +
                               e.what());
    }
  }();
  try {
    const std::string ctx = "shard artifact";
    support::check_format(root, ctx, kFormatTag, kFormatVersion);
    ShardBundle bundle;
    const support::JsonValue& shard = require(root, "shard", ctx);
    bundle.shard.index =
        static_cast<unsigned>(require_u64(shard, "index", "shard"));
    bundle.shard.count =
        static_cast<unsigned>(require_u64(shard, "count", "shard"));
    if (bundle.shard.count == 0 || bundle.shard.index == 0 ||
        bundle.shard.index > bundle.shard.count) {
      throw std::runtime_error("shard artifact has invalid shard coordinates " +
                               bundle.shard.to_string());
    }
    const auto& campaigns = require(root, "campaigns", ctx).items();
    bundle.campaigns.reserve(campaigns.size());
    for (size_t i = 0; i < campaigns.size(); ++i) {
      bundle.campaigns.push_back(parse_artifact(campaigns[i], i));
    }
    if (const support::JsonValue* fc = root.find("fault_campaigns")) {
      const auto& fault_campaigns = fc->items();
      bundle.fault_campaigns.reserve(fault_campaigns.size());
      for (size_t i = 0; i < fault_campaigns.size(); ++i) {
        bundle.fault_campaigns.push_back(
            parse_fault_artifact(fault_campaigns[i], i));
      }
    }
    if (const support::JsonValue* metrics = root.find("metrics")) {
      bundle.has_metrics = true;
      bundle.metrics = process_metrics_from_json(*metrics, "shard metrics");
    }
    return bundle;
  } catch (const support::JsonError& e) {
    // Type errors from as_int()/as_string() on present-but-wrong fields.
    throw std::runtime_error(std::string("corrupt shard artifact: ") +
                             e.what());
  }
}

void write_artifact_atomically(const std::string& path,
                               const std::string& text) {
  // Atomic write: the bytes go to `<path>.tmp`, renamed over `path` only
  // after a successful flush+close. A crash, full disk or unwritable
  // directory never leaves a partial artifact at `path` (and never clobbers
  // a good one already there); failures remove the temporary and throw.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ArtifactWriteError(tmp + ": cannot open for writing (does the "
                               "directory exist and allow writes?)");
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.put('\n');
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw ArtifactWriteError(tmp + ": write failed (disk full?)");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    throw ArtifactWriteError(path + ": cannot rename temporary artifact into "
                             "place: " + why);
  }
}

void save_shard_bundle(const std::string& path, const ShardBundle& bundle) {
  write_artifact_atomically(path, serialize_shard_bundle(bundle));
}

ShardBundle load_shard_bundle(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(path + ": cannot open");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error(path + ": read failed");
  }
  try {
    return parse_shard_bundle(buf.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace eval
