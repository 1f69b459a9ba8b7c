// Tables 3/4 campaign: mutate a driver, compile each mutant, boot the
// survivors against a simulated device model, classify the outcome.
//
// The kernel is device-agnostic: everything device-specific — which model
// to construct, where it sits on the port bus, which entry point boots the
// driver — comes in through `DeviceBinding`. The standard bindings (and the
// historical IDE-named compat wrapper) live in eval/device_bindings.h, the
// only campaign file that names concrete devices.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "eval/outcome.h"
#include "hw/device_pool.h"
#include "hw/io_bus.h"
#include "minic/program.h"
#include "mutation/site.h"

namespace hw {
class FaultInjector;
class FlightRecorder;
struct FaultPlan;
}  // namespace hw

namespace eval {

/// Binds a campaign to one device model: the port window the device claims
/// on the simulated bus, how to construct it, and the boot entry point its
/// drivers implement. Devices are recycled between mutant boots through a
/// reset-based `hw::DevicePool`, so `make_device` must return power-on-state
/// instances and the model's `reset()` must restore that state (cheaply —
/// the hw models keep a dirty bit so clean recycles are a register wipe).
struct DeviceBinding {
  /// Short device name used in diagnostics and reports ("ide", "busmouse").
  std::string device;
  /// I/O window mapped as [port_base, port_base + port_span).
  uint32_t port_base = 0;
  uint32_t port_span = 0;
  /// Default boot entry point for this device's drivers; used when
  /// DriverCampaignConfig::entry is empty.
  std::string entry;
  /// IRQ line the device raises on, or -1 for a purely polled binding.
  /// Event-driven bindings also get the IRQ status window
  /// (hw::IrqStatusPort at hw::kIrqStatusPortBase) mapped per boot.
  int irq_line = -1;
  /// Constructs a power-on-state device. Must be thread-safe: the pool
  /// invokes it concurrently from campaign workers.
  hw::DevicePool::Factory make_device;

  [[nodiscard]] bool ok() const { return make_device != nullptr; }
};

struct DriverCampaignConfig {
  /// Generated Devil stubs, prepended to the driver. Empty for the plain C
  /// driver.
  std::string stubs;
  /// The driver translation unit that gets mutated (contains MUT markers).
  std::string driver;
  std::string unit_name = "driver.c";
  /// Boot entry point; empty derives the binding's default entry.
  std::string entry;
  /// The device under test. Must be populated (see eval/device_bindings.h
  /// for the standard bindings); run_driver_campaign throws otherwise.
  DeviceBinding device;
  /// True when identifier classes should be derived from the Devil stubs.
  bool is_cdevil = false;

  /// The paper tests a random 25% of the generated mutants (§4.2).
  unsigned sample_percent = 25;
  uint64_t seed = 20010325;  // deterministic campaigns; any seed works
  uint64_t step_budget = 3'000'000;
  /// Wall-clock cap per boot in milliseconds; 0 disables the watchdog. A
  /// trip classifies as a hang (mutation: infinite loop; fault campaign:
  /// hang) and bumps the watchdog_trips timing counter. Deliberately NOT
  /// part of the campaign fingerprint: the deterministic step budget always
  /// bounds a boot first unless the host wedges, so the cap only contains
  /// pathological wall time and never changes deterministic results.
  uint64_t watchdog_ms = 10'000;
  /// Worker threads booting mutants; 0 = hardware_concurrency. Results are
  /// identical at any thread count (records stay in mutant-index order and
  /// the tally is reduced after the join).
  unsigned threads = 1;
  /// Execution engine for mutant boots. Both engines yield byte-identical
  /// campaign results (ctest-enforced). The bytecode VM is the fast
  /// default: the invariant stub prefix is parsed, typechecked and lowered
  /// once per campaign (`minic::prepare_prefix`), and every mutant compiles
  /// only the driver tail onto the cached segment (`minic::compile_tail`).
  /// The tree walker is the differential oracle: every mutant compiles as a
  /// whole unit (`minic::compile_with_prefix`) and runs on `minic::run_unit`.
  minic::ExecEngine engine = minic::ExecEngine::kBytecodeVm;
  /// Skip compiling/booting mutants whose spliced unit lexes to a token
  /// stream already seen this campaign (canonical token-class hash:
  /// token kinds, values and lines, plus macro-use lines). Duplicates stay
  /// visible in the records — classified against their own site from the
  /// representative's boot — and tallies are unchanged.
  bool dedup = true;
  /// Wrap every boot's device in a `hw::FlightRecorder` and attach the
  /// rendered port-access tail to each non-clean record (`MutantRecord::
  /// trace`). Off by default — it is part of the campaign fingerprint, so
  /// shards must agree on it. Traces are engine-invariant (the step-stamped
  /// charge discipline is) and deterministic at any thread count.
  bool flight_recorder = false;
};

struct MutantRecord {
  size_t mutant_index = 0;  // into the full mutant list
  size_t site = 0;
  Outcome outcome = Outcome::kCompileTime;
  std::string detail;       // fault message / diagnostic code, when any
  /// True when this mutant's unit was a canonical duplicate: its outcome
  /// was classified from the representative's boot without recompiling.
  bool deduped = false;
  /// Interpreter steps the boot retired (0 for compile-time outcomes;
  /// duplicates carry their representative's — identical — count).
  uint64_t steps = 0;
  /// Flight-recorder post-mortem: the rendered tail of port accesses, only
  /// for non-clean boots and only when the config enables the recorder.
  std::string trace;
  /// True when this mutant booted a patched copy of the clean tail bytecode
  /// (no per-mutant front end ran). Telemetry only — the boot itself is
  /// byte-identical to a recompiled one.
  bool patched = false;
  /// True when the campaign built a patcher but this mutant was
  /// structure-changing (or otherwise ineligible) and recompiled instead.
  /// Duplicates carry neither bit: they never boot at all.
  bool patch_fallback = false;
  /// Of `steps`, those the VM's loop fast-forward accounted without
  /// executing (0 for duplicates, which never boot). Telemetry kept in
  /// memory only: reports and artifacts never carry it, since the record is
  /// identical either way.
  uint64_t skipped_steps = 0;
};

/// What every campaign result (mutation or fault) and every shard slice of
/// one (eval/shard.h SliceHeader) carries about the campaign's setup.
struct CampaignBaseline {
  /// Device name and entry the campaign ran against (from the binding /
  /// config), echoed so reports can label tables per device.
  std::string device;
  std::string entry;
  /// The unmutated driver's boot on healthy hardware: the fingerprint every
  /// other boot is checked against, the steps it retired, and its
  /// per-opcode dispatch profile (bytecode engine only; all-zero on the
  /// walker). Deterministic campaign telemetry: every shard recomputes the
  /// same values, and merge validation rejects disagreement.
  int64_t clean_fingerprint = 0;
  uint64_t baseline_steps = 0;
  minic::bytecode::OpcodeProfile baseline_opcodes;
};

struct DriverCampaignResult : CampaignBaseline {
  size_t total_sites = 0;
  size_t total_mutants = 0;    // before sampling
  size_t sampled_mutants = 0;
  size_t deduped_mutants = 0;  // sampled mutants that skipped compile+boot
  /// Mutants compiled through the per-campaign compiled-prefix cache
  /// (tail-only parse/typecheck/lower spliced onto the shared segment, or a
  /// patched copy of the clean tail). Always 0 on the tree walker, which
  /// compiles whole units.
  size_t prefix_cache_hits = 0;
  /// Mutants booted from a patched clean-tail module (sum of the records'
  /// `patched` bits) vs mutants that fell back to a recompile while
  /// the campaign had a patcher (`patch_fallback` bits). Both zero on the
  /// tree walker or when the campaign could not build a patcher.
  size_t patch_hits = 0;
  size_t patch_fallbacks = 0;
  /// Boots the loop fast-forward shortened, and the steps it skipped
  /// (sums over the records; in memory only, like MutantRecord's field).
  size_t fast_forwards = 0;
  uint64_t skipped_steps = 0;
  Tally tally;
  std::vector<MutantRecord> records;  // one per sampled mutant
};

/// One contiguous slice of the sampled mutant sequence, in sample order:
/// slice `index` of `count` covers sample positions
/// [sample_slice_bounds(S, slice)) of the S sampled mutants. The default
/// {0, 1} is the whole sample. Slicing never changes which mutants are
/// sampled — every slice derives the full deterministic sample and takes
/// its subrange, so N slices tile the unsharded campaign exactly.
struct SampleSlice {
  size_t index = 0;
  size_t count = 1;
};

/// Floor partition of `sample_size` positions into `slice.count` contiguous
/// ranges: [begin, end) for `slice.index`. Slices differ in size by at most
/// one; when count > sample_size some slices are empty.
[[nodiscard]] inline std::pair<size_t, size_t> sample_slice_bounds(
    size_t sample_size, SampleSlice slice) {
  return {sample_size * slice.index / slice.count,
          sample_size * (slice.index + 1) / slice.count};
}

/// Per-record sideband a shard artifact (eval/shard.h) needs beyond the
/// MutantRecords: which records compiled through the prefix cache, and the
/// canonical dedup-key hash of each record so a merge can re-dedup across
/// shards. Vectors are indexed like DriverCampaignResult::records;
/// `canonical_hash` is empty when the config has dedup off.
struct CampaignSideband {
  size_t sample_size = 0;   // full sample size, before slicing
  size_t slice_begin = 0;   // this run's slice, in sample positions
  size_t slice_end = 0;
  std::vector<uint8_t> prefix_cache_hit;
  std::vector<std::pair<uint64_t, uint64_t>> canonical_hash;
};

/// Runs the campaign against the configured device binding. Preconditions
/// (std::logic_error naming the device and entry otherwise): the binding is
/// populated, and the unmutated unit compiles, boots without fault or
/// device damage, and returns a positive fingerprint.
[[nodiscard]] DriverCampaignResult run_driver_campaign(
    const DriverCampaignConfig& config);

/// Sliced variant: the full campaign prepared identically (baseline boot,
/// site scan, deterministic sample), but only the mutants in `slice` are
/// deduped, compiled and booted. Dedup is slice-local: canonical duplicates
/// are only detected within the slice, so `deduped_mutants`,
/// `prefix_cache_hits`, the records' `deduped` flags and the tally are
/// slice-local too (eval/merge.h re-dedups across slices so a merged run
/// is byte-identical to the unsharded one). `sampled_mutants` is the slice
/// record count; the sideband (optional) reports the global sample size.
/// The {0, 1} slice is exactly run_driver_campaign.
[[nodiscard]] DriverCampaignResult run_driver_campaign_slice(
    const DriverCampaignConfig& config, SampleSlice slice,
    CampaignSideband* sideband = nullptr);

/// Classifies one already-compiled-or-failed mutant run; exposed for tests.
[[nodiscard]] const char* outcome_short(Outcome o);

// --- shared by the mutation and fault kernels (eval/fault_campaign.cc) ------

/// A kernel run's diagnostic prefix and resolved boot entry.
struct KernelContext {
  std::string who;    // e.g. "driver campaign [ide]: "
  std::string entry;  // the config's override, else the binding's default
};

/// The preconditions both kernels check before any work: a valid `slice`, a
/// populated device binding and a resolvable boot entry. `kind` names the
/// kernel in diagnostics ("driver campaign", "fault campaign"); violations
/// throw std::logic_error.
[[nodiscard]] KernelContext check_kernel_preconditions(
    const char* kind, const DriverCampaignConfig& config, SampleSlice slice);

/// The check both kernels run on the unmutated driver's boot on healthy
/// hardware: no fault, a positive boot fingerprint and an undamaged
/// `device`. Violations throw std::logic_error naming device and entry.
void check_baseline_boot(const KernelContext& ctx, const minic::RunOutcome& run,
                         const hw::Device& device);

/// The deterministic sample of a campaign over `population` mutants or
/// scenarios, cut to `slice`. Every slice derives the full sample, so N
/// slices together boot exactly what the unsharded campaign would. The
/// sideband (optional) gets the sample size and slice bounds; its
/// per-record vectors are cleared.
[[nodiscard]] std::vector<size_t> sample_slice(size_t population,
                                               unsigned percent, uint64_t seed,
                                               SampleSlice slice,
                                               CampaignSideband* sideband);

/// Runs `boot_one(i)` for every i in [0, n) on `threads` workers, with a
/// progress heartbeat and the per-worker record telemetry. Workers write
/// only per-index state and every order-sensitive reduction happens after
/// the join, so results are identical at any thread count.
void run_boots(const KernelContext& ctx, size_t n, unsigned threads,
               const std::function<void(size_t)>& boot_one);

/// One boot's device stack: a pooled device, the optional fault shim around
/// it, and the optional flight recorder outermost, mapped on a fresh bus at
/// the binding's window. The destructor tears it down in reverse (bus
/// mapping, recorder, shim) and recycles the device into its pool.
class BootRig {
 public:
  BootRig(hw::DevicePool& pool, const DeviceBinding& binding,
          bool record = false, const hw::FaultPlan* fault = nullptr);
  BootRig(const BootRig&) = delete;
  BootRig& operator=(const BootRig&) = delete;
  ~BootRig();

  [[nodiscard]] hw::IoBus& bus() { return bus_; }
  /// The pooled device below every shim, where damage is recorded.
  [[nodiscard]] const hw::Device& device() const { return *device_; }
  [[nodiscard]] const hw::FaultInjector* shim() const { return shim_.get(); }
  [[nodiscard]] const hw::FlightRecorder* recorder() const {
    return recorder_.get();
  }

 private:
  hw::DevicePool& pool_;
  hw::IoBus bus_;
  std::shared_ptr<hw::Device> device_;
  std::shared_ptr<hw::FaultInjector> shim_;
  std::shared_ptr<hw::FlightRecorder> recorder_;
};

/// How a finished boot ended, in the buckets both kernels tally; each maps
/// them onto its own outcome enum, in this order.
enum class BootEnd {
  kDevilAssertion,  // a generated Devil check fired
  kPanic,           // the driver's own sanity check panicked
  kHang,            // step budget exhausted, or the wall-clock watchdog
  kCrash,           // bus fault, division by zero, bad index, stack overflow
  kWrongState,      // booted, but the device is damaged or the fingerprint
                    // differs from the clean boot's
  kClean,
};

/// Buckets a finished (non-internal-error) boot on `rig`, counting watchdog
/// trips in the process metrics. The fault message or damage note goes to
/// `detail`.
[[nodiscard]] BootEnd classify_boot(const minic::RunOutcome& run,
                                    const BootRig& rig,
                                    int64_t clean_fingerprint,
                                    std::string* detail);

}  // namespace eval
