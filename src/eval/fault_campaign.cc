#include "eval/fault_campaign.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "hw/flight_recorder.h"
#include "hw/io_bus.h"
#include "minic/program.h"
#include "support/metrics.h"
#include "support/strings.h"

namespace eval {

const char* fault_outcome_name(FaultOutcome o) {
  switch (o) {
    case FaultOutcome::kDevilCheck: return "Devil check";
    case FaultOutcome::kDriverPanic: return "Driver panic";
    case FaultOutcome::kCrash: return "Crash";
    case FaultOutcome::kHang: return "Hang";
    case FaultOutcome::kCorruptBoot: return "Corrupt boot";
    case FaultOutcome::kCleanBoot: return "Clean boot";
  }
  return "?";
}

const char* fault_outcome_short(FaultOutcome o) {
  switch (o) {
    case FaultOutcome::kDevilCheck: return "devil-check";
    case FaultOutcome::kDriverPanic: return "panic";
    case FaultOutcome::kCrash: return "crash";
    case FaultOutcome::kHang: return "hang";
    case FaultOutcome::kCorruptBoot: return "corrupt";
    case FaultOutcome::kCleanBoot: return "clean";
  }
  return "?";
}

namespace {

/// The fault tables' outcome for each BootEnd.
constexpr FaultOutcome kScenarioOutcome[] = {
    FaultOutcome::kDevilCheck, FaultOutcome::kDriverPanic,
    FaultOutcome::kHang,       FaultOutcome::kCrash,
    FaultOutcome::kCorruptBoot, FaultOutcome::kCleanBoot,
};

}  // namespace

std::vector<hw::FaultPlan> fault_scenario_matrix(
    const DeviceBinding& device, const std::vector<uint32_t>& triggers) {
  std::vector<hw::FaultPlan> plans;
  plans.reserve((static_cast<size_t>(device.port_span) * (3 * 8 + 3) +
                 (device.irq_line >= 0 ? 4 : 0)) *
                triggers.size());
  for (uint32_t offset = 0; offset < device.port_span; ++offset) {
    const uint32_t port = device.port_base + offset;
    // Bit-level kinds: every single-bit mask of the 8-bit register file.
    for (hw::FaultKind kind : {hw::FaultKind::kStuckZero,
                               hw::FaultKind::kStuckOne,
                               hw::FaultKind::kFlipOnce}) {
      for (uint32_t bit = 0; bit < 8; ++bit) {
        for (uint32_t after : triggers) {
          hw::FaultPlan plan;
          plan.port = port;
          plan.kind = kind;
          plan.after = after;
          plan.mask = 1u << bit;
          plans.push_back(plan);
        }
      }
    }
    // Whole-port kinds.
    for (hw::FaultKind kind : {hw::FaultKind::kDropWrite,
                               hw::FaultKind::kFloatingBus,
                               hw::FaultKind::kNeverReady}) {
      for (uint32_t after : triggers) {
        hw::FaultPlan plan;
        plan.port = port;
        plan.kind = kind;
        plan.after = after;
        plans.push_back(plan);  // kNeverReady freezes reads at value 0
      }
    }
  }
  // Event rows, appended after the port rows so existing scenario indices
  // (part of the artifact contract) are untouched for polled bindings. For
  // the event kinds `plan.port` names the IRQ line; `after` counts genuine
  // raises on it (spurious: device accesses); `value` carries the storm
  // repeat count / delivery delay.
  if (device.irq_line >= 0) {
    for (hw::FaultKind kind : {hw::FaultKind::kLostIrq,
                               hw::FaultKind::kSpuriousIrq,
                               hw::FaultKind::kIrqStorm,
                               hw::FaultKind::kDelayIrq}) {
      for (uint32_t after : triggers) {
        hw::FaultPlan plan;
        plan.port = static_cast<uint32_t>(device.irq_line);
        plan.kind = kind;
        plan.after = after;
        if (kind == hw::FaultKind::kIrqStorm) plan.value = 8;
        if (kind == hw::FaultKind::kDelayIrq) plan.value = 1000;
        plans.push_back(plan);
      }
    }
  }
  return plans;
}

uint64_t fault_scenario_seed(const FaultCampaignConfig& config) {
  // Device shape only — never the driver or stub text — so the C and CDevil
  // campaigns of one device sample identical scenario subsets.
  support::Fnv128 h;
  h.update_field("devil-repro-fault-seed-v1");
  h.update_field(config.base.device.device);
  h.update_u64(config.base.device.port_base);
  h.update_u64(config.base.device.port_span);
  // Folded only for event-driven bindings so polled-device seeds (and the
  // scenario subsets of already-published artifacts) stay byte-identical.
  if (config.base.device.irq_line >= 0) {
    h.update_u64(static_cast<uint64_t>(config.base.device.irq_line));
  }
  h.update_u64(config.triggers.size());
  for (uint32_t t : config.triggers) h.update_u64(t);
  h.update_u64(config.sample_percent);
  h.update_u64(config.base.seed);
  auto [hi, lo] = h.digest();
  return hi ^ lo;
}

FaultCampaignResult run_fault_campaign(const FaultCampaignConfig& config) {
  return run_fault_campaign_slice(config, SampleSlice{});
}

void recount(FaultCampaignResult& result) {
  result.tally = FaultTally();
  result.triggered_scenarios = result.fast_forwards = result.replayed = 0;
  result.skipped_steps = 0;
  for (const FaultRecord& rec : result.records) {
    result.tally.add(rec.outcome, rec.plan.port);
    result.triggered_scenarios += rec.triggered ? 1 : 0;
    result.fast_forwards += rec.skipped_steps != 0 ? 1 : 0;
    result.skipped_steps += rec.skipped_steps;
    result.replayed += rec.replayed ? 1 : 0;
  }
}

FaultCampaignResult run_fault_campaign_slice(const FaultCampaignConfig& config,
                                             SampleSlice slice) {
  const DriverCampaignConfig& base = config.base;
  const KernelContext kc =
      check_kernel_preconditions("fault campaign", base, slice);
  const std::string& who = kc.who;
  const std::string& entry = kc.entry;
  if (config.triggers.empty()) {
    throw std::logic_error(who + "empty trigger list (the scenario matrix "
                           "needs at least one trigger offset)");
  }
  hw::DevicePool device_pool;
  device_pool.set_factory(base.device.make_device);

  // The driver is never mutated here: one compile and, on the VM, one
  // lowering, shared read-only by every scenario worker (each boot builds
  // its own engine state over the const unit or module, so concurrent boots
  // are safe).
  const std::string prefix_text =
      base.stubs.empty() ? std::string() : base.stubs + "\n";
  minic::Program clean =
      minic::compile(base.unit_name, prefix_text + base.driver);
  if (!clean.ok()) {
    throw std::logic_error(who + "driver does not compile:\n" +
                           clean.diags.render());
  }
  std::optional<minic::bytecode::Module> module;
  if (base.engine == minic::ExecEngine::kBytecodeVm) {
    try {
      support::StageTimer timer(support::Stage::kLower);
      module.emplace(minic::bytecode::compile_unit(*clean.unit));
    } catch (const minic::Fault& f) {
      throw std::logic_error(who + "interpreter bug lowering the driver: " +
                             f.message);
    }
  }
  auto boot = [&](hw::IoBus& bus, minic::bytecode::OpcodeProfile* profile) {
    return module ? minic::run_module(*module, bus, entry, base.step_budget,
                                      profile, base.watchdog_ms)
                  : minic::run_unit(*clean.unit, bus, entry, base.step_budget,
                                    base.engine, nullptr, base.watchdog_ms);
  };

  FaultCampaignResult result;
  result.device = base.device.device;
  result.entry = entry;

  // --- fault-free baseline, through the census ---------------------------------
  hw::FaultCensus census(base.device.port_base, base.device.port_span);
  {
    BootRig rig(device_pool, base.device, /*record=*/false, nullptr, &census);
    auto run = boot(rig.bus(), &result.baseline_opcodes);
    result.baseline_steps = run.steps_used;
    check_baseline_boot(kc, run, rig.device());
    result.clean_fingerprint = run.return_value;
  }

  // --- scenario matrix + deterministic sample -------------------------------------
  const std::vector<hw::FaultPlan> matrix =
      fault_scenario_matrix(base.device, config.triggers);
  result.total_scenarios = matrix.size();
  const std::vector<size_t> selected =
      sample_slice(matrix.size(), config.sample_percent,
                   fault_scenario_seed(config), slice, result.sample_size);

  // --- per-scenario boot (parallel map) -------------------------------------------
  // Workers write only their own records[i]; the order-sensitive tally (and
  // the triggered count) is reduced after the join, so the result is
  // identical at any thread count.
  result.records.resize(selected.size());
  run_boots(kc, selected.size(), base.threads, [&](size_t i) {
    const size_t scenario_ix = selected[i];
    const hw::FaultPlan& plan = matrix[scenario_ix];

    FaultRecord rec;
    rec.scenario_index = scenario_ix;
    rec.plan = plan;
    const hw::CensusVerdict verdict =
        module ? census.verdict(plan) : hw::CensusVerdict::kBoots;
    if (verdict != hw::CensusVerdict::kBoots) {
      // The golden record: clean, no detail or trace, the baseline's steps
      // (never fast-forwarded: the census declines capture_state).
      rec.triggered = verdict == hw::CensusVerdict::kAbsorbed;
      rec.replayed = true;
      rec.steps = result.baseline_steps;
      result.records[i] = std::move(rec);
      return;
    }

    // Recorder outermost: the trace shows the post-fault values the driver
    // actually read, not the healthy device's.
    BootRig rig(device_pool, base.device, base.flight_recorder, &plan);
    auto run = boot(rig.bus(), nullptr);
    if (run.fault == minic::FaultKind::kInternal) {
      throw std::logic_error(who + "interpreter bug under fault [" +
                             plan.describe() + "]: " + run.fault_message);
    }
    support::StageTimer classify_timer(support::Stage::kClassify);
    rec.triggered = rig.shim()->fired() > 0;
    rec.steps = run.steps_used;
    rec.skipped_steps = run.skipped_steps;
    rec.outcome = kScenarioOutcome[static_cast<size_t>(classify_boot(
        run, rig, result.clean_fingerprint, &rec.detail))];
    if (rig.recorder() && rec.outcome != FaultOutcome::kCleanBoot) {
      rec.trace = rig.recorder()->render_tail();
    }
    if (!rec.triggered && rec.outcome != FaultOutcome::kCleanBoot) {
      // An unfired fault cannot have changed the traffic; any non-clean
      // outcome here means the shim miscounted or the boot is flaky.
      throw std::logic_error(who + "scenario [" + plan.describe() +
                             "] never triggered yet boot was not clean (" +
                             fault_outcome_short(rec.outcome) + ")");
    }
    result.records[i] = std::move(rec);
  });

  recount(result);
  return result;
}

}  // namespace eval
