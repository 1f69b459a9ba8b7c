// The unified campaign request: one serializable value type covering the
// driver-mutation (Tables 3/4), fault-injection and spec-mutation (Table 2)
// campaigns. The CLI flag parser, the campaign service wire format and the
// library entry points all build on this one struct, so a campaign
// configuration has exactly one source of truth:
//
//  - `validate_campaign_spec` turns a bad spec into actionable diagnostics
//    before anything boots;
//  - `campaign_spec_to_json` / `campaign_spec_from_json` are a strict,
//    byte-stable round trip on support/json_io (the wire codec);
//  - the `driver_configs_for` / `fault_configs_for` / `spec_campaign_config_
//    for` derivations produce the per-device DriverCampaignConfig /
//    FaultCampaignConfig / SpecCampaignConfig views the kernels consume —
//    the same configs whether a campaign comes from the CLI, a JSON request
//    or a dispatcher worker, so all of them fingerprint alike;
//  - `campaign_spec_fingerprint` folds those per-device fingerprints into
//    one digest pinning everything that can change results. Thread count,
//    worker count and the watchdog cap are deliberately excluded (they
//    cannot change records or tallies), which is exactly what makes the
//    digest a safe result-cache key;
//  - the flag table (`find_campaign_flag` + `apply_campaign_flag` +
//    `campaign_spec_to_args`) is shared between the CLI parser and the
//    dispatcher's worker argv builder, so flag -> spec field is one table
//    and a spec survives the spec -> argv -> spec round trip bit-exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/drivers.h"
#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/spec_campaign.h"
#include "support/json_io.h"

namespace eval {

/// Which evaluation the spec requests: driver mutation (Tables 3/4), fault
/// injection (the --faults matrix), or Devil-spec mutation (Table 2).
enum class CampaignKind { kDriver, kFault, kSpec };

/// Stable names used in JSON and diagnostics: "driver", "fault", "spec".
[[nodiscard]] const char* campaign_kind_name(CampaignKind k);

/// The largest value of each numeric spec field. The JSON reader and the
/// flag parser both enforce these, so every spec a served request can carry
/// survives the dispatcher's spec -> worker argv -> spec round trip.
/// Percentages are bounded by 100 and need no constant.
inline constexpr uint64_t kMaxSeed = 999'999'999'999'999'999;
inline constexpr uint64_t kMaxStepBudget = 999'999'999'999;
inline constexpr uint64_t kMaxWatchdogMs = 99'999'999;
inline constexpr uint64_t kMaxThreads = 9999;
inline constexpr uint64_t kMaxFaultTrigger = 999'999;

struct CampaignSpec {
  CampaignKind kind = CampaignKind::kDriver;
  /// Corpus device filter ("all" or a device name from the kind's corpus).
  /// Spec campaigns are not device-scoped and require "all".
  std::string device = "all";
  minic::ExecEngine engine = minic::ExecEngine::kBytecodeVm;
  uint64_t seed = 20010325;
  /// Percentage of generated mutants booted; 0 keeps each corpus entry's
  /// own default (the paper's 25% for IDE, full enumeration for busmouse).
  unsigned sample_percent = 0;
  uint64_t step_budget = 3'000'000;
  bool dedup = true;
  bool flight_recorder = false;
  uint64_t watchdog_ms = 10'000;
  /// Worker threads per campaign (0 = all cores). Never fingerprinted:
  /// results are thread-count invariant.
  unsigned threads = 1;
  /// Fault campaigns only: trigger offsets and scenario sample percentage
  /// (FaultCampaignConfig::triggers / sample_percent).
  std::vector<uint32_t> fault_triggers = {0, 1, 2, 7};
  unsigned fault_sample_percent = 100;

  friend bool operator==(const CampaignSpec&, const CampaignSpec&) = default;
};

/// Diagnostics for an unusable spec, one human-readable line each; empty
/// means the spec is runnable. Checks the device filter against the kind's
/// corpus, percentage ranges, the trigger list and the step budget.
[[nodiscard]] std::vector<std::string> validate_campaign_spec(
    const CampaignSpec& spec);

/// Strict, byte-stable JSON round trip (the service wire schema). from_json
/// rejects missing, mistyped, out-of-range and unknown fields with
/// std::runtime_error prefixed by `ctx`; to_json(from_json(x)) reproduces
/// x's exact bytes.
[[nodiscard]] support::JsonValue campaign_spec_to_json(
    const CampaignSpec& spec);
[[nodiscard]] CampaignSpec campaign_spec_from_json(const support::JsonValue& v,
                                                   const std::string& ctx);

/// The corpus entries the spec selects, in report order: the polled
/// mutation corpus for driver campaigns, polled + interrupt-driven for
/// fault campaigns, filtered by `spec.device`. Spec-mutation campaigns
/// iterate corpus::all_specs() instead and get an empty list here.
[[nodiscard]] std::vector<corpus::CampaignDrivers> campaign_spec_corpus(
    const CampaignSpec& spec);

/// The C and CDevil campaign configs for one corpus device, derived from
/// the spec; their config fingerprints (eval/shard.h) key shard merges and
/// the result cache. The CDevil stubs are generated once per process and
/// spec text. Throws std::runtime_error carrying the Devil diagnostics when
/// the corpus spec fails to compile.
struct DeviceCampaignConfigs {
  DriverCampaignConfig c;
  DriverCampaignConfig cdevil;
};
[[nodiscard]] DeviceCampaignConfigs driver_configs_for(
    const CampaignSpec& spec, const corpus::CampaignDrivers& drivers);

/// The fault-campaign sibling: the derived driver configs wrapped with the
/// spec's fault knobs.
struct DeviceFaultConfigs {
  FaultCampaignConfig c;
  FaultCampaignConfig cdevil;
};
[[nodiscard]] DeviceFaultConfigs fault_configs_for(
    const CampaignSpec& spec, const corpus::CampaignDrivers& drivers);

/// Table 2 campaign config derived from the spec (threads, dedup).
[[nodiscard]] SpecCampaignConfig spec_campaign_config_for(
    const CampaignSpec& spec);

/// Digest of everything in the spec that can change campaign results: the
/// kind, then every selected campaign's config fingerprint (driver and
/// fault kinds) or the spec corpus text plus the dedup knob (spec kind).
/// Specs that differ only in threads or watchdog_ms fingerprint
/// identically — the cache-replay guarantee. Derives the configs through
/// `driver_configs_for`; throws std::runtime_error when a corpus Devil spec
/// fails to compile.
[[nodiscard]] std::string campaign_spec_fingerprint(const CampaignSpec& spec);

/// One row of the shared flag table. `value_name` is nullptr for boolean
/// flags; `implies_campaign` marks flags whose presence switches the CLI
/// from the single-typo scenario into campaign mode (engine/telemetry
/// modifier flags do not).
struct CampaignFlag {
  const char* flag;
  const char* value_name;
  bool implies_campaign;
  const char* help;
};

/// The full table, in help order.
[[nodiscard]] const std::vector<CampaignFlag>& campaign_spec_flags();

/// Table lookup; nullptr when `flag` is not a campaign-spec flag.
[[nodiscard]] const CampaignFlag* find_campaign_flag(const std::string& flag);

/// Applies one table flag to the spec. `value` is the flag's argument
/// (ignored for boolean flags). Returns "" on success, else the diagnostic
/// for the CLI's usage error path.
[[nodiscard]] std::string apply_campaign_flag(CampaignSpec& spec,
                                              const CampaignFlag& flag,
                                              const std::string& value);

/// The inverse of the parser: flags that rebuild `spec` exactly through
/// apply_campaign_flag (the dispatcher's worker argv). Every value-carrying
/// field is emitted explicitly, so workers cannot drift from the requested
/// spec even if defaults change.
[[nodiscard]] std::vector<std::string> campaign_spec_to_args(
    const CampaignSpec& spec);

}  // namespace eval
