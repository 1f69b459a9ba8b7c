#include "eval/campaign_spec.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/device_bindings.h"
#include "eval/shard.h"
#include "support/strings.h"

namespace eval {

namespace {

/// Strict decimal parse for flag values: digits only, at most `max`, so a
/// leading '-', a stray suffix or an out-of-range value is a usage error
/// and never wraps or truncates. Returns false on anything else.
bool parse_count(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty() || text.size() > std::to_string(max).size()) return false;
  if (text.find_first_not_of("0123456789") != std::string::npos) return false;
  uint64_t v = 0;
  for (char c : text) v = v * 10 + static_cast<uint64_t>(c - '0');
  if (v > max) return false;
  *out = v;
  return true;
}

bool parse_trigger_list(const std::string& text, std::vector<uint32_t>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    uint64_t v = 0;
    if (!parse_count(text.substr(pos, comma - pos), kMaxFaultTrigger, &v)) {
      return false;
    }
    out->push_back(static_cast<uint32_t>(v));
    pos = comma + 1;
    if (comma == text.size()) break;
  }
  return !out->empty();
}

minic::ExecEngine engine_from_name(const std::string& name,
                                   const std::string& ctx) {
  if (name == minic::exec_engine_name(minic::ExecEngine::kBytecodeVm)) {
    return minic::ExecEngine::kBytecodeVm;
  }
  if (name == minic::exec_engine_name(minic::ExecEngine::kTreeWalker)) {
    return minic::ExecEngine::kTreeWalker;
  }
  throw std::runtime_error(ctx + ": unknown engine '" + name +
                           "' (known: bytecode-vm, tree-walker)");
}

CampaignKind kind_from_name(const std::string& name, const std::string& ctx) {
  if (name == "driver") return CampaignKind::kDriver;
  if (name == "fault") return CampaignKind::kFault;
  if (name == "spec") return CampaignKind::kSpec;
  throw std::runtime_error(ctx + ": unknown campaign kind '" + name +
                           "' (known: driver, fault, spec)");
}

/// Fills the fields DriverCampaignConfig shares across the C and CDevil
/// variants of one corpus entry.
void fill_common(const CampaignSpec& spec,
                 const corpus::CampaignDrivers& drivers,
                 DriverCampaignConfig* cfg) {
  cfg->device = binding_for(drivers.device);
  cfg->sample_percent = spec.sample_percent == 0 ? drivers.sample_percent
                                                 : spec.sample_percent;
  cfg->seed = spec.seed;
  cfg->step_budget = spec.step_budget;
  cfg->watchdog_ms = spec.watchdog_ms;
  cfg->threads = spec.threads;
  cfg->engine = spec.engine;
  cfg->dedup = spec.dedup;
  cfg->flight_recorder = spec.flight_recorder;
}

/// A corpus spec's debug stubs, compiled once per process. Keyed by the
/// stub file name and the spec text, so a test-built CampaignDrivers with
/// another text never shares an entry. Safe to call from any thread.
const std::string& debug_stubs(const corpus::CampaignDrivers& drivers) {
  static std::mutex mu;
  static std::map<std::string, std::string> cache;  // file '\0' text
  std::string key = std::string(drivers.spec_file) + '\0' + drivers.spec();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto compiled = devil::compile_spec(drivers.spec_file, drivers.spec(),
                                      devil::CodegenMode::kDebug);
  if (!compiled.ok()) {
    throw std::runtime_error("corpus spec '" + std::string(drivers.spec_file) +
                             "' failed to compile:\n" +
                             compiled.diags.render());
  }
  return cache.emplace(std::move(key), std::move(compiled.stubs))
      .first->second;
}

}  // namespace

const char* campaign_kind_name(CampaignKind k) {
  switch (k) {
    case CampaignKind::kDriver: return "driver";
    case CampaignKind::kFault: return "fault";
    case CampaignKind::kSpec: return "spec";
  }
  return "?";
}

std::vector<corpus::CampaignDrivers> campaign_spec_corpus(
    const CampaignSpec& spec) {
  std::vector<corpus::CampaignDrivers> all;
  if (spec.kind == CampaignKind::kSpec) return all;
  all = corpus::campaign_drivers();
  if (spec.kind == CampaignKind::kFault) {
    const auto& irq = corpus::irq_campaign_drivers();
    all.insert(all.end(), irq.begin(), irq.end());
  }
  if (spec.device == "all") return all;
  std::vector<corpus::CampaignDrivers> selected;
  for (const auto& drivers : all) {
    if (spec.device == drivers.device) selected.push_back(drivers);
  }
  return selected;
}

std::vector<std::string> validate_campaign_spec(const CampaignSpec& spec) {
  std::vector<std::string> diags;
  if (spec.kind == CampaignKind::kSpec) {
    if (spec.device != "all") {
      diags.push_back("spec campaigns are not device-scoped: --device must "
                      "stay 'all', got '" + spec.device + "'");
    }
  } else if (spec.device != "all" && campaign_spec_corpus(spec).empty()) {
    std::string known = "all";
    for (const auto& drivers : campaign_spec_corpus(CampaignSpec{
             spec.kind, "all"})) {
      known += std::string(", ") + drivers.device;
    }
    diags.push_back("unknown device '" + spec.device + "' for " +
                    campaign_kind_name(spec.kind) + " campaigns (known: " +
                    known + ")");
  }
  if (spec.sample_percent > 100) {
    diags.push_back("sample_percent must be 0-100 (0 = per-corpus default), "
                    "got " + std::to_string(spec.sample_percent));
  }
  if (spec.step_budget == 0) {
    diags.push_back("step_budget must be >= 1");
  }
  if (spec.fault_sample_percent == 0 || spec.fault_sample_percent > 100) {
    diags.push_back("fault_sample_percent must be 1-100, got " +
                    std::to_string(spec.fault_sample_percent));
  }
  if (spec.fault_triggers.empty()) {
    diags.push_back("fault_triggers must name at least one trigger offset");
  }
  return diags;
}

support::JsonValue campaign_spec_to_json(const CampaignSpec& spec) {
  support::JsonValue v = support::JsonValue::object();
  v.set("format", "devil-repro-campaign-spec");
  v.set("version", 1);
  v.set("kind", campaign_kind_name(spec.kind));
  v.set("device", spec.device);
  v.set("engine", minic::exec_engine_name(spec.engine));
  v.set("seed", spec.seed);
  v.set("sample_percent", static_cast<uint64_t>(spec.sample_percent));
  v.set("step_budget", spec.step_budget);
  v.set("dedup", spec.dedup);
  v.set("flight_recorder", spec.flight_recorder);
  v.set("watchdog_ms", spec.watchdog_ms);
  v.set("threads", static_cast<uint64_t>(spec.threads));
  support::JsonValue triggers = support::JsonValue::array();
  for (uint32_t t : spec.fault_triggers) {
    triggers.push_back(static_cast<uint64_t>(t));
  }
  v.set("fault_triggers", std::move(triggers));
  v.set("fault_sample_percent",
        static_cast<uint64_t>(spec.fault_sample_percent));
  return v;
}

CampaignSpec campaign_spec_from_json(const support::JsonValue& v,
                                     const std::string& ctx) {
  support::check_format(v, ctx, "devil-repro-campaign-spec", 1);
  support::check_known_fields(
      v, ctx,
      {"format", "version", "kind", "device", "engine", "seed",
       "sample_percent", "step_budget", "dedup", "flight_recorder",
       "watchdog_ms", "threads", "fault_triggers", "fault_sample_percent"});
  using support::require;
  using support::require_string;
  using support::require_u64;

  CampaignSpec spec;
  spec.kind = kind_from_name(require_string(v, "kind", ctx), ctx);
  spec.device = require_string(v, "device", ctx);
  spec.engine = engine_from_name(require_string(v, "engine", ctx), ctx);
  spec.seed = require_u64(v, "seed", ctx, kMaxSeed);
  spec.sample_percent =
      static_cast<unsigned>(require_u64(v, "sample_percent", ctx, 100));
  spec.step_budget = require_u64(v, "step_budget", ctx, kMaxStepBudget);
  spec.dedup = require(v, "dedup", ctx).as_bool();
  spec.flight_recorder = require(v, "flight_recorder", ctx).as_bool();
  spec.watchdog_ms = require_u64(v, "watchdog_ms", ctx, kMaxWatchdogMs);
  spec.threads =
      static_cast<unsigned>(require_u64(v, "threads", ctx, kMaxThreads));
  spec.fault_triggers.clear();
  for (const support::JsonValue& t :
       require(v, "fault_triggers", ctx).items()) {
    int64_t raw = t.as_int();
    if (raw < 0 || static_cast<uint64_t>(raw) > kMaxFaultTrigger) {
      throw std::runtime_error(ctx + ": fault_triggers entry out of range "
                               "(0-" + std::to_string(kMaxFaultTrigger) +
                               "), got " + std::to_string(raw));
    }
    spec.fault_triggers.push_back(static_cast<uint32_t>(raw));
  }
  spec.fault_sample_percent =
      static_cast<unsigned>(require_u64(v, "fault_sample_percent", ctx, 100));

  std::vector<std::string> diags = validate_campaign_spec(spec);
  if (!diags.empty()) {
    throw std::runtime_error(ctx + ": " + diags.front());
  }
  return spec;
}

DeviceCampaignConfigs driver_configs_for(
    const CampaignSpec& spec, const corpus::CampaignDrivers& drivers) {
  DeviceCampaignConfigs out;
  out.c = DriverCampaignConfig{};
  out.c.driver = drivers.c_driver();
  fill_common(spec, drivers, &out.c);

  out.cdevil = DriverCampaignConfig{};
  out.cdevil.stubs = debug_stubs(drivers);
  out.cdevil.driver = drivers.cdevil_driver();
  out.cdevil.is_cdevil = true;
  fill_common(spec, drivers, &out.cdevil);
  return out;
}

DeviceFaultConfigs fault_configs_for(const CampaignSpec& spec,
                                     const corpus::CampaignDrivers& drivers) {
  DeviceCampaignConfigs base = driver_configs_for(spec, drivers);
  DeviceFaultConfigs out;
  out.c.base = std::move(base.c);
  out.c.triggers = spec.fault_triggers;
  out.c.sample_percent = spec.fault_sample_percent;
  out.cdevil.base = std::move(base.cdevil);
  out.cdevil.triggers = spec.fault_triggers;
  out.cdevil.sample_percent = spec.fault_sample_percent;
  return out;
}

SpecCampaignConfig spec_campaign_config_for(const CampaignSpec& spec) {
  SpecCampaignConfig cfg;
  cfg.threads = spec.threads;
  cfg.dedup = spec.dedup;
  return cfg;
}

std::string campaign_spec_fingerprint(const CampaignSpec& spec) {
  support::Fnv128 h;
  h.update_field("devil-repro-campaign-spec-v1");
  h.update_field(campaign_kind_name(spec.kind));
  switch (spec.kind) {
    case CampaignKind::kDriver:
      for (const auto& drivers : campaign_spec_corpus(spec)) {
        DeviceCampaignConfigs cfgs = driver_configs_for(spec, drivers);
        h.update_field(campaign_fingerprint(cfgs.c));
        h.update_field(campaign_fingerprint(cfgs.cdevil));
      }
      break;
    case CampaignKind::kFault:
      for (const auto& drivers : campaign_spec_corpus(spec)) {
        DeviceFaultConfigs cfgs = fault_configs_for(spec, drivers);
        h.update_field(fault_campaign_fingerprint(cfgs.c));
        h.update_field(fault_campaign_fingerprint(cfgs.cdevil));
      }
      break;
    case CampaignKind::kSpec:
      // Table 2 has no per-device config; the digest pins the corpus text
      // and the one knob that moves rows (dedup cannot change tallies but
      // does change the deduped column).
      h.update_u64(spec.dedup ? 1 : 0);
      for (const auto& entry : corpus::all_specs()) {
        h.update_field(entry.name);
        h.update_field(entry.text);
      }
      break;
  }
  return h.hex();
}

const std::vector<CampaignFlag>& campaign_spec_flags() {
  static const std::vector<CampaignFlag> flags = {
      {"--faults", nullptr, true,
       "run the fault-injection campaigns instead"},
      {"--spec-campaign", nullptr, true,
       "run the Table 2 Devil-spec mutation campaigns"},
      {"--device", "NAME", true, "campaign device (default: all)"},
      {"--threads", "N", true, "worker threads (0 = all cores)"},
      {"--walker", nullptr, false, "use the tree-walker oracle engine"},
      {"--seed", "N", true, "campaign sampling seed"},
      {"--sample-percent", "N", true,
       "percent of mutants booted (0 = per-corpus default)"},
      {"--step-budget", "N", true, "interpreter steps per boot"},
      {"--no-dedup", nullptr, true,
       "do not flag canonical token-class duplicates"},
      {"--flight-recorder", nullptr, false,
       "attach port-access post-mortems to non-clean records"},
      {"--watchdog-ms", "N", false,
       "wall-clock cap per boot in milliseconds (0 = off)"},
      {"--fault-triggers", "A,B,..", true,
       "fault-campaign trigger offsets (default 0,1,2,7)"},
      {"--fault-sample-percent", "N", true,
       "percent of the fault-scenario matrix booted"},
  };
  return flags;
}

const CampaignFlag* find_campaign_flag(const std::string& flag) {
  for (const CampaignFlag& f : campaign_spec_flags()) {
    if (flag == f.flag) return &f;
  }
  return nullptr;
}

std::string apply_campaign_flag(CampaignSpec& spec, const CampaignFlag& flag,
                                const std::string& value) {
  const std::string name = flag.flag;
  auto kind_conflict = [&](CampaignKind requested) -> std::string {
    if (spec.kind == CampaignKind::kDriver || spec.kind == requested) {
      spec.kind = requested;
      return "";
    }
    return std::string("--faults and --spec-campaign pick different "
                       "campaigns; use one of them");
  };
  uint64_t n = 0;
  if (name == "--faults") return kind_conflict(CampaignKind::kFault);
  if (name == "--spec-campaign") return kind_conflict(CampaignKind::kSpec);
  if (name == "--device") {
    spec.device = value;
    return "";
  }
  if (name == "--walker") {
    spec.engine = minic::ExecEngine::kTreeWalker;
    return "";
  }
  if (name == "--threads") {
    // Digits only: strtoul would silently wrap a leading '-' and clamp
    // out-of-range values, defeating the strict parser.
    if (!parse_count(value, kMaxThreads, &n)) {
      return "--threads: '" + value + "' is not a thread count (0-" +
             std::to_string(kMaxThreads) + "; 0 = all cores)";
    }
    spec.threads = static_cast<unsigned>(n);
    return "";
  }
  if (name == "--seed") {
    if (!parse_count(value, kMaxSeed, &n)) {
      return "--seed: '" + value + "' is not a seed (0-" +
             std::to_string(kMaxSeed) + ")";
    }
    spec.seed = n;
    return "";
  }
  if (name == "--sample-percent") {
    if (!parse_count(value, 100, &n)) {
      return "--sample-percent: '" + value +
             "' is not a percentage (0-100; 0 = per-corpus default)";
    }
    spec.sample_percent = static_cast<unsigned>(n);
    return "";
  }
  if (name == "--step-budget") {
    if (!parse_count(value, kMaxStepBudget, &n) || n == 0) {
      return "--step-budget: '" + value + "' is not a step budget (1-" +
             std::to_string(kMaxStepBudget) + ")";
    }
    spec.step_budget = n;
    return "";
  }
  if (name == "--no-dedup") {
    spec.dedup = false;
    return "";
  }
  if (name == "--flight-recorder") {
    spec.flight_recorder = true;
    return "";
  }
  if (name == "--watchdog-ms") {
    if (!parse_count(value, kMaxWatchdogMs, &n)) {
      return "--watchdog-ms: '" + value + "' is not a millisecond count (0-" +
             std::to_string(kMaxWatchdogMs) + "; 0 disables the watchdog)";
    }
    spec.watchdog_ms = n;
    return "";
  }
  if (name == "--fault-triggers") {
    if (!parse_trigger_list(value, &spec.fault_triggers)) {
      return "--fault-triggers: '" + value +
             "' is not a comma-separated offset list (e.g. 0,1,2,7)";
    }
    return "";
  }
  if (name == "--fault-sample-percent") {
    if (!parse_count(value, 100, &n) || n == 0) {
      return "--fault-sample-percent: '" + value +
             "' is not a percentage (1-100)";
    }
    spec.fault_sample_percent = static_cast<unsigned>(n);
    return "";
  }
  return "unhandled campaign flag '" + name + "'";
}

std::vector<std::string> campaign_spec_to_args(const CampaignSpec& spec) {
  std::vector<std::string> args;
  switch (spec.kind) {
    case CampaignKind::kDriver: break;
    case CampaignKind::kFault: args.push_back("--faults"); break;
    case CampaignKind::kSpec: args.push_back("--spec-campaign"); break;
  }
  args.insert(args.end(), {"--device", spec.device});
  if (spec.engine == minic::ExecEngine::kTreeWalker) {
    args.push_back("--walker");
  }
  args.insert(args.end(), {"--threads", std::to_string(spec.threads)});
  args.insert(args.end(), {"--seed", std::to_string(spec.seed)});
  args.insert(args.end(),
              {"--sample-percent", std::to_string(spec.sample_percent)});
  args.insert(args.end(), {"--step-budget",
                           std::to_string(spec.step_budget)});
  if (!spec.dedup) args.push_back("--no-dedup");
  if (spec.flight_recorder) args.push_back("--flight-recorder");
  args.insert(args.end(), {"--watchdog-ms",
                           std::to_string(spec.watchdog_ms)});
  std::string triggers;
  for (uint32_t t : spec.fault_triggers) {
    triggers += (triggers.empty() ? "" : ",") + std::to_string(t);
  }
  args.insert(args.end(), {"--fault-triggers", triggers});
  args.insert(args.end(), {"--fault-sample-percent",
                           std::to_string(spec.fault_sample_percent)});
  return args;
}

}  // namespace eval
