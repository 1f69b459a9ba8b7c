// Fault-scenario campaigns: the dual of the Tables 3/4 mutation study. The
// driver stays clean and the *device* misbehaves — a deterministic matrix
// of hardware fault scenarios (hw/fault_injection.h) is booted against each
// device's C and CDevil drivers, and the outcomes are bucketed the way the
// paper buckets mutant boots: caught by a Devil check, caught by the
// driver's own panic path, crash, hang, or a silent boot with corrupted
// device state.
//
// The kernel reuses the whole mutation-campaign machinery: the same
// `DeviceBinding`/`DevicePool` plumbing, the same deterministic
// `parallel_for` map-reduce (per-index record writes, tally reduced after
// the join), and the same slice arithmetic — so fault campaigns are
// byte-identical across thread counts, execution engines and process-level
// shards (eval/shard.h) exactly like mutation campaigns.
//
// The fault-free baseline boots once through a census shim. On the VM, a
// scenario its hw::FaultCensus proves equal to that golden boot (the
// trigger is never reached, or a stuck-at fault changes no read) gets the
// golden record instead of a boot; the tree walker boots every scenario.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "eval/driver_campaign.h"
#include "hw/fault_injection.h"

namespace eval {

/// Outcome buckets for one clean-driver boot under an injected hardware
/// fault, in the paper's style (detected / visible failure / silent).
enum class FaultOutcome {
  kDevilCheck,   // a generated Devil assertion caught the bad hardware
  kDriverPanic,  // the driver's own sanity check panicked
  kCrash,        // kernel crash (bus fault, bad index, ...)
  kHang,         // boot never completes (step budget exhausted)
  kCorruptBoot,  // boot "succeeds" but the system is visibly wrong:
                 // device damage or a wrong boot fingerprint
  kCleanBoot,    // boot completes correctly (fault untriggered or absorbed)
};

[[nodiscard]] const char* fault_outcome_name(FaultOutcome o);
/// Short stable name used in shard artifacts ("devil-check", "hang", ...).
[[nodiscard]] const char* fault_outcome_short(FaultOutcome o);

/// Aggregated campaign tally: scenarios per outcome plus the distinct
/// faulted ports contributing to each outcome (the per-port analogue of the
/// mutation tables' "mutation sites" column).
struct FaultTally {
  std::map<FaultOutcome, size_t> scenarios;
  std::map<FaultOutcome, std::set<uint32_t>> ports;
  size_t total = 0;

  void add(FaultOutcome o, uint32_t port) {
    ++scenarios[o];
    ports[o].insert(port);
    ++total;
  }
  [[nodiscard]] size_t scenarios_of(FaultOutcome o) const {
    auto it = scenarios.find(o);
    return it == scenarios.end() ? 0 : it->second;
  }
  [[nodiscard]] size_t ports_of(FaultOutcome o) const {
    auto it = ports.find(o);
    return it == ports.end() ? 0 : it->second.size();
  }
  /// Detected before the system limps on: a Devil check or the driver's
  /// own panic path named the problem.
  [[nodiscard]] size_t detected() const {
    return scenarios_of(FaultOutcome::kDevilCheck) +
           scenarios_of(FaultOutcome::kDriverPanic);
  }
};

/// One scenario's outcome. `scenario_index` points into the full generated
/// matrix (fault_scenario_matrix), `triggered` says whether the fault ever
/// fired (replayed: per the census) — an untriggered scenario boots clean.
struct FaultRecord {
  size_t scenario_index = 0;
  hw::FaultPlan plan;
  FaultOutcome outcome = FaultOutcome::kCleanBoot;
  std::string detail;  // fault message / damage note, when any
  bool triggered = false;
  bool replayed = false;  // given the golden record, unbooted (in memory)
  /// Interpreter steps the boot retired.
  uint64_t steps = 0;
  /// Of `steps`, those the VM's loop fast-forward accounted without
  /// executing. Telemetry kept in memory only: reports and artifacts never
  /// carry it, since the record is identical either way.
  uint64_t skipped_steps = 0;
  /// Flight-recorder post-mortem (non-clean outcomes, recorder enabled via
  /// DriverCampaignConfig::flight_recorder on the base config). The recorder
  /// wraps *outside* the fault injector, so the trace shows the faulted
  /// values the driver actually saw.
  std::string trace;
};

struct FaultCampaignConfig {
  /// Driver, stubs, device binding, entry, engine, threads, step budget and
  /// seed come from the embedded mutation-campaign config; its
  /// mutation-only knobs (sample_percent, dedup) are ignored here but
  /// still pinned by the shard fingerprint.
  DriverCampaignConfig base;
  /// Trigger offsets: every (port, kind, mask) cell of the matrix is
  /// instantiated once per offset, arming the fault on the (offset+1)-th
  /// matching access. The defaults probe the first accesses plus a later
  /// one so polling loops and re-reads get distinct scenarios.
  std::vector<uint32_t> triggers = {0, 1, 2, 7};
  /// Percentage of the scenario matrix booted, sampled deterministically
  /// from a seed folded over the device shape only (never the driver
  /// text), so a device's C and CDevil campaigns boot the same scenarios.
  unsigned sample_percent = 100;
};

struct FaultCampaignResult : CampaignBaseline {
  size_t total_scenarios = 0;  // full matrix, before sampling

  // Counters derived from `records` by recount().
  size_t triggered_scenarios = 0;  // records whose fault actually fired
  /// Boots the loop fast-forward shortened, and the steps it skipped
  /// (sums over the records; in memory only, like FaultRecord's field).
  size_t fast_forwards = 0;
  uint64_t skipped_steps = 0;
  size_t replayed = 0;  // records with the bit set (in memory only)
  FaultTally tally;
  std::vector<FaultRecord> records;  // in sampled-scenario order
};

/// Rebuilds the tally and every counter of `result` from its records (see
/// the DriverCampaignResult overload).
void recount(FaultCampaignResult& result);

/// The deterministic scenario matrix for one device window: for every port
/// in [port_base, port_base + port_span), every fault kind — the three
/// bit-level kinds (stuck-at-0, stuck-at-1, flip-once) over each of the 8
/// low bit masks, then drop-write, floating-bus and never-ready(0) — each
/// instantiated per trigger offset. Event-driven bindings (irq_line >= 0)
/// append event rows after the port rows: lost / spurious / storm(8) /
/// delay(1000 steps) per trigger offset, with `plan.port` naming the IRQ
/// line. Enumeration order is fixed and part of the artifact contract
/// (scenario_index identifies a scenario).
[[nodiscard]] std::vector<hw::FaultPlan> fault_scenario_matrix(
    const DeviceBinding& device, const std::vector<uint32_t>& triggers);

/// The scenario-sampling seed: folded over the device shape (name, port
/// window), the trigger list and the base seed — deliberately NOT the
/// driver or stub text, so the C and CDevil campaigns of one device sample
/// identical scenario subsets and stay comparable.
[[nodiscard]] uint64_t fault_scenario_seed(const FaultCampaignConfig& config);

/// Runs the full fault campaign. Preconditions mirror run_driver_campaign
/// (std::logic_error naming the device otherwise): populated binding, and a
/// clean driver that compiles, boots fault-free without device damage, and
/// returns a positive fingerprint.
[[nodiscard]] FaultCampaignResult run_fault_campaign(
    const FaultCampaignConfig& config);

/// Sliced variant for process-level sharding: identical preparation, but
/// only the sampled scenarios in `slice` are run. The {0, 1} slice is
/// exactly run_fault_campaign.
[[nodiscard]] FaultCampaignResult run_fault_campaign_slice(
    const FaultCampaignConfig& config, SampleSlice slice);

}  // namespace eval
