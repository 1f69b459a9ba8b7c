// Mutation hunt: injects the same classic typo into the C driver and the
// Devil driver and shows when (or whether) each toolchain notices — the
// paper's core claim in one runnable scenario.
//
// The typo: the developer confuses the drive-select value with a command
// byte (an inattention error, §3.1).
//
// With `--threads N` it additionally runs the full Tables 3/4 campaigns on
// the parallel engine (N worker threads, 0 = all cores) and prints the
// comparison — the whole paper evaluation in seconds. `--device
// {ide,busmouse,all}` picks the device under test (default: all).
//
// Every campaign entry point consumes one eval::CampaignSpec: the flag
// parser below fills the spec through the shared flag table
// (eval/campaign_spec.h), the same table the campaign service uses to
// rebuild worker argv — so flag -> spec field lives in exactly one place.
//
// Campaigns also shard across processes: `--shard i/N --out FILE` runs the
// i-th of N slices of every selected campaign and writes a mergeable JSON
// artifact; `--merge FILE...` recombines one artifact per shard into output
// byte-identical to the single-process campaign run (tables, tallies and
// engine counters included). Mismatched configurations, duplicate or
// missing shards and corrupt artifacts are rejected with diagnostics.
//
// `--faults` flips the experiment: the drivers stay clean and the *device*
// misbehaves. Each selected device's C and CDevil drivers boot against the
// deterministic fault-scenario matrix (stuck bits, flipped reads, dropped
// writes, floating bus, wedged status — eval/fault_campaign.h) and the
// outcomes are bucketed Tables-3/4-style. The interrupt-driven corpora
// ("ide-irq", "busmouse-irq") add event-fault rows — lost, spurious,
// storming and delayed interrupts — where the CDevil handlers' in-service
// guards detect what classic C absorbs. Fault campaigns compose with
// `--shard`/`--merge` exactly like mutation campaigns.
//
// `--spec-campaign` runs the Table 2 experiment instead: mutate the Devil
// specifications themselves and count what the Devil compiler rejects.
//
// `--serve ENDPOINT` turns the binary into a long-running campaign daemon
// (src/serve): clients submit campaign requests over a socket, each job
// fans out to `--shard` worker subprocesses of this same binary, and the
// merged report streams back byte-identical to the single-process run.
// `--dispatch ENDPOINT` is the matching client: the campaign flags build
// the request spec, the served report prints on stdout and a one-line
// cache/fan-out telemetry summary prints on stderr.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/campaign_spec.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/merge.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "eval/shard.h"
#include "eval/spec_campaign.h"
#include "hw/ide_disk.h"
#include "hw/io_bus.h"
#include "minic/program.h"
#include "serve/campaign_service.h"
#include "serve/dispatcher.h"
#include "serve/wire.h"
#include "support/metrics.h"
#include "support/subprocess.h"

namespace {

uint64_t g_start_ns = 0;  // process start, for the metrics wall clock

void report(const char* label, const std::string& name,
            const std::string& unit, minic::ExecEngine engine) {
  std::printf("%s\n", label);
  minic::Program prog = minic::compile(name, unit);
  if (!prog.ok()) {
    std::printf("  -> caught at COMPILE TIME:\n     %s\n\n",
                prog.diags.all().front().to_string().c_str());
    return;
  }
  hw::IoBus bus;
  auto disk = std::make_shared<hw::IdeDisk>();
  bus.map(0x1f0, 8, disk);
  auto out = minic::run_unit(*prog.unit, bus, "ide_boot", 3'000'000, engine);
  switch (out.fault) {
    case minic::FaultKind::kNone:
      std::printf("  -> NOT DETECTED: kernel boots (fingerprint %lld%s)\n\n",
                  static_cast<long long>(out.return_value),
                  disk->damaged() ? ", disk damaged!" : "");
      return;
    case minic::FaultKind::kDevilAssertion:
      std::printf("  -> caught at RUN TIME by a Devil assertion:\n     %s\n\n",
                  out.fault_message.c_str());
      return;
    case minic::FaultKind::kStepLimit:
      std::printf("  -> kernel hangs (infinite loop), tedious to debug\n\n");
      return;
    default:
      std::printf("  -> kernel halts: %s\n\n", out.fault_message.c_str());
      return;
  }
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  size_t pos = text.find(from);
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

/// Stamps the process section and writes the metrics artifact; maps write
/// failures to exit code 2 (like shard artifacts — same atomic write path).
int write_metrics_artifact(const std::string& path,
                           eval::MetricsArtifact artifact, unsigned threads) {
  artifact.process = eval::capture_process_metrics(
      threads, support::monotonic_ns() - g_start_ns);
  try {
    eval::save_metrics_artifact(path, artifact);
  } catch (const eval::ArtifactWriteError& e) {
    std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "wrote metrics artifact to %s\n", path.c_str());
  return 0;
}

/// `--assert-counters` telemetry line (stderr, so reports stay comparable).
void print_fast_forwards(const char* device, const char* what,
                         size_t fast_forwards, uint64_t skipped_steps) {
  std::fprintf(stderr,
               "%s %s: %zu boot(s) fast-forwarded, %llu steps skipped\n",
               device, what, fast_forwards,
               static_cast<unsigned long long>(skipped_steps));
}

/// Runs one device's full C vs CDevil driver campaigns from the spec and
/// prints the paper's Tables 3/4 plus the headline comparison. With
/// `assert_counters` (the CI Release smoke) the exit code additionally
/// verifies that the throughput machinery actually engaged: canonical
/// dedup skipped at least one mutant and the compiled-prefix cache served
/// every unique compile.
bool run_device_campaigns(const eval::CampaignSpec& spec,
                          const corpus::CampaignDrivers& drivers,
                          bool assert_counters,
                          eval::MetricsArtifact* metrics) {
  eval::DeviceCampaignConfigs cfgs;
  try {
    cfgs = eval::driver_configs_for(spec, drivers);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s", e.what());
    return false;
  }
  auto c_res = eval::run_driver_campaign(cfgs.c);
  auto d_res = eval::run_driver_campaign(cfgs.cdevil);

  std::fputs(
      eval::render_device_section(drivers.device, c_res, d_res).c_str(),
      stdout);
  if (metrics) {
    const char* engine = minic::exec_engine_name(spec.engine);
    metrics->campaigns.push_back(
        eval::campaign_metrics_row(c_res, "C", engine));
    metrics->campaigns.push_back(
        eval::campaign_metrics_row(d_res, "CDevil", engine));
  }
  if (!assert_counters) return true;
  // The walker engine compiles whole units by design, so cache hits and
  // bytecode patches (which run on top of the cache) are only expected on
  // the bytecode VM.
  const bool expect_cache = spec.engine == minic::ExecEngine::kBytecodeVm;
  print_fast_forwards(drivers.device, "C", c_res.fast_forwards,
                      c_res.skipped_steps);
  print_fast_forwards(drivers.device, "CDevil", d_res.fast_forwards,
                      d_res.skipped_steps);
  // The IDE C campaign's infinite-loop mutants spin on exact cycles, so the
  // VM's loop fast-forward must have engaged there.
  if (spec.engine == minic::ExecEngine::kBytecodeVm &&
      std::strcmp(drivers.device, "ide") == 0 && c_res.fast_forwards == 0) {
    std::fprintf(stderr, "FAIL: ide C campaign fast-forwarded no boot\n");
    return false;
  }
  auto check = [expect_cache, &drivers](
                   const char* what, const eval::DriverCampaignResult& r) {
    if (r.deduped_mutants == 0) {
      std::fprintf(stderr, "FAIL: %s %s campaign deduped 0 mutants\n",
                   drivers.device, what);
      return false;
    }
    size_t unique = r.sampled_mutants - r.deduped_mutants;
    if (expect_cache &&
        (r.prefix_cache_hits == 0 || r.prefix_cache_hits > unique)) {
      std::fprintf(stderr,
                   "FAIL: %s %s campaign compiled %zu of %zu unique mutants "
                   "through the prefix cache\n",
                   drivers.device, what, r.prefix_cache_hits, unique);
      return false;
    }
    // Real corpora always hold both token-local mutants (patch hits) and
    // structure-changing ones (fallbacks), and only unique mutants carry
    // either bit.
    if (expect_cache &&
        (r.patch_hits == 0 || r.patch_fallbacks == 0 ||
         r.patch_hits + r.patch_fallbacks > unique)) {
      std::fprintf(stderr,
                   "FAIL: %s %s campaign patched %zu / fell back %zu over "
                   "%zu unique mutants\n",
                   drivers.device, what, r.patch_hits, r.patch_fallbacks,
                   unique);
      return false;
    }
    return true;
  };
  return check("C", c_res) & check("CDevil", d_res);
}

/// Runs one device's C vs CDevil fault campaigns and prints the paired
/// fault tables. With `assert_counters` the exit code verifies the paper
/// shape: the faults must actually fire, and the CDevil driver must detect
/// strictly more injected hardware faults than its classic-C twin.
bool run_device_fault_campaigns(const eval::CampaignSpec& spec,
                                const corpus::CampaignDrivers& drivers,
                                bool assert_counters,
                                eval::MetricsArtifact* metrics) {
  eval::DeviceFaultConfigs cfgs;
  try {
    cfgs = eval::fault_configs_for(spec, drivers);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s", e.what());
    return false;
  }
  auto c_res = eval::run_fault_campaign(cfgs.c);
  auto d_res = eval::run_fault_campaign(cfgs.cdevil);

  std::fputs(
      eval::render_fault_section(drivers.device, c_res, d_res).c_str(),
      stdout);
  if (metrics) {
    const char* engine = minic::exec_engine_name(spec.engine);
    metrics->fault_campaigns.push_back(
        eval::fault_metrics_row(c_res, "C", engine));
    metrics->fault_campaigns.push_back(
        eval::fault_metrics_row(d_res, "CDevil", engine));
  }
  if (!assert_counters) return true;
  bool ok = true;
  // Hang scenarios spin on exact cycles (a stuck status bit polled
  // forever), so on the VM any campaign with one must have fast-forwarded.
  for (const auto& [what, r] : {std::pair{"C", &c_res},
                                std::pair{"CDevil", &d_res}}) {
    print_fast_forwards(drivers.device, what, r->fast_forwards,
                        r->skipped_steps);
    if (spec.engine == minic::ExecEngine::kBytecodeVm &&
        r->tally.scenarios_of(eval::FaultOutcome::kHang) != 0 &&
        r->fast_forwards == 0) {
      std::fprintf(stderr, "FAIL: %s %s fault campaign has Hang records but "
                   "fast-forwarded no boot\n", drivers.device, what);
      ok = false;
    }
  }
  if (c_res.triggered_scenarios == 0 || d_res.triggered_scenarios == 0) {
    std::fprintf(stderr, "FAIL: %s fault campaigns triggered no faults "
                 "(C %zu, CDevil %zu)\n",
                 drivers.device, c_res.triggered_scenarios,
                 d_res.triggered_scenarios);
    ok = false;
  }
  if (d_res.tally.detected() <= c_res.tally.detected()) {
    std::fprintf(stderr, "FAIL: %s CDevil driver detected %zu injected "
                 "faults, not strictly more than the C driver's %zu\n",
                 drivers.device, d_res.tally.detected(),
                 c_res.tally.detected());
    ok = false;
  }
  // Event-driven corpora additionally assert the margin on the event rows
  // alone: the CDevil handler's in-service guard must catch interrupt
  // faults (spurious deliveries) the classic C driver absorbs silently.
  auto event_detected = [](const eval::FaultCampaignResult& r) {
    size_t n = 0;
    for (const auto& rec : r.records) {
      if (rec.plan.is_event_fault() &&
          (rec.outcome == eval::FaultOutcome::kDevilCheck ||
           rec.outcome == eval::FaultOutcome::kDriverPanic)) {
        ++n;
      }
    }
    return n;
  };
  bool has_event_rows = false;
  for (const auto& rec : c_res.records) {
    if (rec.plan.is_event_fault()) {
      has_event_rows = true;
      break;
    }
  }
  if (has_event_rows && event_detected(d_res) <= event_detected(c_res)) {
    std::fprintf(stderr, "FAIL: %s CDevil driver detected %zu event faults, "
                 "not strictly more than the C driver's %zu\n",
                 drivers.device, event_detected(d_res),
                 event_detected(c_res));
    ok = false;
  }
  return ok;
}

/// Runs the campaigns for every corpus device the spec selects
/// (`spec.device` "all" runs each of them — the CI smoke path).
int run_campaigns(const eval::CampaignSpec& spec, bool assert_counters,
                  eval::MetricsArtifact* metrics) {
  std::printf("Running full mutation campaigns (%u thread(s), 0 = all "
              "cores, %s engine, device %s)...\n\n",
              spec.threads, minic::exec_engine_name(spec.engine),
              spec.device.c_str());
  bool ok = true;
  for (const auto& drivers : eval::campaign_spec_corpus(spec)) {
    ok &= run_device_campaigns(spec, drivers, assert_counters, metrics);
  }
  if (assert_counters) {
    std::printf("counter assertions: %s\n", ok ? "OK" : "FAILED");
  }
  return ok ? 0 : 1;
}

/// `--faults`: runs the fault-injection campaigns for every selected
/// device.
int run_fault_campaigns(const eval::CampaignSpec& spec, bool assert_counters,
                        eval::MetricsArtifact* metrics) {
  std::printf("Running fault-injection campaigns (%u thread(s), 0 = all "
              "cores, %s engine, device %s)...\n\n",
              spec.threads, minic::exec_engine_name(spec.engine),
              spec.device.c_str());
  bool ok = true;
  for (const auto& drivers : eval::campaign_spec_corpus(spec)) {
    ok &= run_device_fault_campaigns(spec, drivers, assert_counters, metrics);
  }
  if (assert_counters) {
    std::printf("fault assertions: %s\n", ok ? "OK" : "FAILED");
  }
  return ok ? 0 : 1;
}

/// `--spec-campaign`: Table 2 — mutate the Devil specifications themselves
/// and count what the Devil compiler rejects. With `assert_counters` the
/// exit code additionally verifies that the splice built every corpus
/// mutant's token stream (none re-lexed) and, unless `--no-dedup`, that
/// dedup skipped at least one check per spec; the counts go to stderr.
int run_spec_campaigns(const eval::CampaignSpec& spec, bool assert_counters) {
  std::printf("Running spec mutation campaigns (%u thread(s), 0 = all "
              "cores)...\n\n",
              spec.threads);
  eval::SpecCampaignConfig config = eval::spec_campaign_config_for(spec);
  std::vector<eval::SpecCampaignRow> rows;
  for (const auto& entry : corpus::all_specs()) {
    rows.push_back(eval::run_spec_campaign(entry, config));
  }
  std::fputs(eval::render_table2(rows).c_str(), stdout);
  if (!assert_counters) return 0;
  bool ok = true;
  for (const eval::SpecCampaignRow& row : rows) {
    std::fprintf(stderr,
                 "%s: %zu checks, %zu deduped, %zu spliced, %zu re-lexed\n",
                 row.name.c_str(), row.mutants - row.deduped, row.deduped,
                 row.mutants - row.relexed, row.relexed);
    if (row.relexed != 0) {
      std::fprintf(stderr, "FAIL: %s spec campaign re-lexed %zu mutants\n",
                   row.name.c_str(), row.relexed);
      ok = false;
    }
    if (config.dedup && row.deduped == 0) {
      std::fprintf(stderr, "FAIL: %s spec campaign deduped 0 mutants\n",
                   row.name.c_str());
      ok = false;
    }
  }
  std::printf("counter assertions: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

/// `--shard i/N --out FILE`: runs slice i/N of every selected campaign and
/// writes one mergeable bundle (fault campaigns when the spec says so,
/// mutation campaigns otherwise). Progress goes to stderr; stdout stays
/// quiet so shard invocations compose in scripts.
int run_shard(const eval::CampaignSpec& campaign, eval::ShardSpec spec,
              const std::string& out_path, const std::string& metrics_path) {
  eval::ShardBundle bundle;
  bundle.shard = spec;
  const bool faults = campaign.kind == eval::CampaignKind::kFault;
  for (const auto& drivers : eval::campaign_spec_corpus(campaign)) {
    if (faults) {
      eval::DeviceFaultConfigs cfgs;
      try {
        cfgs = eval::fault_configs_for(campaign, drivers);
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "%s", e.what());
        return 1;
      }
      bundle.fault_campaigns.push_back(
          eval::run_fault_campaign_shard(cfgs.c, "C", spec));
      bundle.fault_campaigns.push_back(
          eval::run_fault_campaign_shard(cfgs.cdevil, "CDevil", spec));
      const auto& c =
          bundle.fault_campaigns[bundle.fault_campaigns.size() - 2];
      const auto& d = bundle.fault_campaigns.back();
      std::fprintf(stderr,
                   "shard %s [%s faults]: C records %zu of %zu sampled, "
                   "CDevil records %zu of %zu sampled\n",
                   spec.to_string().c_str(), drivers.device, c.records.size(),
                   c.sample_size, d.records.size(), d.sample_size);
      continue;
    }
    eval::DeviceCampaignConfigs cfgs;
    try {
      cfgs = eval::driver_configs_for(campaign, drivers);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "%s", e.what());
      return 1;
    }
    bundle.campaigns.push_back(
        eval::run_campaign_shard(cfgs.c, "C", spec));
    bundle.campaigns.push_back(
        eval::run_campaign_shard(cfgs.cdevil, "CDevil", spec));
    const auto& c = bundle.campaigns[bundle.campaigns.size() - 2];
    const auto& d = bundle.campaigns.back();
    std::fprintf(stderr,
                 "shard %s [%s]: C records %zu of %zu sampled, "
                 "CDevil records %zu of %zu sampled\n",
                 spec.to_string().c_str(), drivers.device, c.records.size(),
                 c.sample_size, d.records.size(), d.sample_size);
  }
  if (!metrics_path.empty()) {
    // Embed the process timings in the bundle (so --merge can aggregate
    // them across the shard fleet) ...
    bundle.has_metrics = true;
    bundle.metrics = eval::capture_process_metrics(
        campaign.threads, support::monotonic_ns() - g_start_ns);
  }
  eval::save_shard_bundle(out_path, bundle);
  std::fprintf(stderr, "wrote shard %s artifact to %s\n",
               spec.to_string().c_str(), out_path.c_str());
  if (!metrics_path.empty()) {
    // ... and write this shard's own metrics artifact (deterministic rows
    // are shard-local: they cover this slice only).
    eval::MetricsArtifact artifact;
    for (const eval::ShardArtifact& a : bundle.campaigns) {
      artifact.campaigns.push_back(eval::shard_metrics_row(a));
    }
    for (const eval::FaultShardArtifact& a : bundle.fault_campaigns) {
      artifact.fault_campaigns.push_back(eval::shard_fault_metrics_row(a));
    }
    artifact.process = bundle.metrics;
    try {
      eval::save_metrics_artifact(metrics_path, artifact);
    } catch (const eval::ArtifactWriteError& e) {
      std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
      return 2;
    }
    std::fprintf(stderr, "wrote metrics artifact to %s\n",
                 metrics_path.c_str());
  }
  return 0;
}

/// `--merge FILE...`: loads one bundle per shard, recombines them and
/// prints the same per-device sections as the single-process campaign run
/// (eval/merge.h render_merged_report — the shared renderer guarantees
/// byte identity).
int run_merge(const std::vector<std::string>& paths,
              const std::string& metrics_path) {
  std::vector<eval::ShardBundle> bundles;
  bundles.reserve(paths.size());
  for (const std::string& path : paths) {
    bundles.push_back(eval::load_shard_bundle(path));
  }
  auto merged = eval::merge_shard_bundles(bundles);
  auto fault_merged = eval::merge_fault_bundles(bundles);
  std::fputs(eval::render_merged_report(merged, fault_merged).c_str(),
             stdout);
  if (!metrics_path.empty()) {
    // Deterministic rows come from the merged results — byte-identical to
    // the single-process run's rows (the merge guarantee extends to steps
    // and baseline telemetry). Timings are the aggregate of whatever the
    // shard bundles embedded.
    eval::MetricsArtifact artifact;
    for (const auto& m : merged) {
      artifact.campaigns.push_back(
          eval::campaign_metrics_row(m.result, m.label, m.engine));
    }
    for (const auto& m : fault_merged) {
      artifact.fault_campaigns.push_back(
          eval::fault_metrics_row(m.result, m.label, m.engine));
    }
    eval::merge_bundle_metrics(bundles, &artifact.process);
    try {
      eval::save_metrics_artifact(metrics_path, artifact);
    } catch (const eval::ArtifactWriteError& e) {
      std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
      return 2;
    }
    std::fprintf(stderr, "wrote metrics artifact to %s\n",
                 metrics_path.c_str());
  }
  return 0;
}

/// `--serve ENDPOINT`: runs the campaign daemon until SIGINT/SIGTERM. The
/// signals are blocked before the service threads start (they inherit the
/// mask), so shutdown is always the orderly sigwait -> stop() path.
int run_serve(const std::string& target, const char* argv0, unsigned workers,
              std::string scratch_dir, const std::string& metrics_path) {
  serve::ServiceConfig config;
  config.listen_target = target;
  config.dispatch.worker_binary = support::self_executable_path();
  if (config.dispatch.worker_binary.empty()) {
    config.dispatch.worker_binary = argv0;
  }
  if (workers != 0) config.dispatch.workers = workers;
  if (scratch_dir.empty()) {
    char tmpl[] = "/tmp/devil-serve-XXXXXX";
    if (!mkdtemp(tmpl)) {
      std::fprintf(stderr, "mutation_hunt: cannot create scratch directory "
                   "under /tmp: %s\n", std::strerror(errno));
      return 1;
    }
    scratch_dir = tmpl;
  }
  config.dispatch.scratch_dir = scratch_dir;

  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  serve::CampaignService service(config);
  try {
    service.start();
  } catch (const serve::WireError& e) {
    std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "serving campaigns on %s (%u worker(s), scratch %s)\n",
               service.endpoint().c_str(), config.dispatch.workers,
               scratch_dir.c_str());
  int sig = 0;
  sigwait(&signals, &sig);
  std::fprintf(stderr, "caught signal %d, shutting down\n", sig);
  service.stop();
  if (!metrics_path.empty()) {
    // The daemon's own telemetry: the service counters (jobs, cache hits,
    // worker fan-out) ride the standard process-metrics artifact.
    return write_metrics_artifact(metrics_path, eval::MetricsArtifact{},
                                  config.dispatch.workers);
  }
  return 0;
}

/// `--dispatch ENDPOINT`: submits the spec to a `--serve` daemon, prints
/// the served report on stdout and one telemetry line on stderr.
int run_dispatch(const std::string& target, const eval::CampaignSpec& spec,
                 unsigned workers, bool use_cache, unsigned kill_shard) {
  serve::CampaignRequest request;
  request.spec = spec;
  request.workers = workers;
  request.use_cache = use_cache;
  request.kill_shard = kill_shard;

  serve::CampaignResponse response;
  try {
    int fd = serve::connect_endpoint(target);
    serve::write_frame(fd, serve::serialize_campaign_request(request));
    std::string payload;
    bool got = serve::read_frame(fd, 256u << 20, &payload);
    ::close(fd);
    if (!got) {
      std::fprintf(stderr, "mutation_hunt: %s closed the connection without "
                   "a response\n", target.c_str());
      return 1;
    }
    response = serve::parse_campaign_response(payload);
  } catch (const serve::WireError& e) {
    std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
    return 1;
  }
  if (!response.ok) {
    std::fprintf(stderr, "mutation_hunt: dispatch failed: %s\n",
                 response.error.c_str());
    return 1;
  }
  std::fputs(response.report.c_str(), stdout);
  std::fprintf(stderr,
               "dispatch: fingerprint=%s cache_hit=%d workers_spawned=%llu "
               "worker_retries=%llu\n",
               response.fingerprint.c_str(), response.cache_hit ? 1 : 0,
               static_cast<unsigned long long>(response.workers_spawned),
               static_cast<unsigned long long>(response.worker_retries));
  return 0;
}

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: mutation_hunt [MODE] [OPTIONS]\n"
      "\n"
      "Modes (default: run the single-typo scenario):\n"
      "  --threads N          run the Tables 3/4 campaigns on N workers\n"
      "                       (0 = all cores)\n"
      "  --faults             run the fault-injection campaigns instead:\n"
      "                       clean drivers against the deterministic\n"
      "                       hardware-fault scenario matrix\n"
      "  --spec-campaign      run the Table 2 spec-mutation campaign:\n"
      "                       mutate the Devil specs, count compiler\n"
      "                       rejections\n"
      "  --shard I/N --out F  run slice I of N of every selected campaign\n"
      "                       and write a mergeable shard artifact to F\n"
      "                       (fault campaigns when --faults is given)\n"
      "  --merge FILE...      merge one artifact per shard and print the\n"
      "                       single-process campaign report\n"
      "  --serve ENDPOINT     run the campaign daemon: accept campaign\n"
      "                       requests on ENDPOINT (a port binds\n"
      "                       127.0.0.1, \"0\" picks an ephemeral port;\n"
      "                       anything else is a unix socket path), fan\n"
      "                       each job out to shard workers, cache results\n"
      "                       by config fingerprint\n"
      "  --dispatch ENDPOINT  submit the campaign described by the flags\n"
      "                       to a --serve daemon and print the served\n"
      "                       report (byte-identical to the local run)\n"
      "\n"
      "Campaign flags (shared by local runs, shards and --dispatch):\n");
  for (const eval::CampaignFlag& flag : eval::campaign_spec_flags()) {
    std::string head = flag.flag;
    if (flag.value_name) head += std::string(" ") + flag.value_name;
    std::fprintf(to, "  %-20s %s\n", head.c_str(), flag.help);
  }
  std::fprintf(
      to,
      "\n"
      "Other options:\n"
      "  --list-devices       print the campaign device names, one per\n"
      "                       line; after --faults, lists the fault-campaign\n"
      "                       corpus (adds the interrupt-driven devices)\n"
      "  --metrics FILE       write a campaign metrics artifact to FILE:\n"
      "                       deterministic counters (steps, opcode\n"
      "                       profiles, tallies — byte-identical at any\n"
      "                       thread count and across shard merges) plus\n"
      "                       process timings; composes with --faults,\n"
      "                       --shard (also embeds timings in the bundle),\n"
      "                       --merge (aggregates embedded timings) and\n"
      "                       --serve (service counters on shutdown)\n"
      "  --progress           throttled records/s + ETA heartbeat on stderr\n"
      "                       (per-job heartbeats under --serve)\n"
      "  --assert-counters    fail unless dedup + prefix cache engaged\n"
      "                       (and, unless --walker,\n"
      "                       bytecode patching both hit and fell back)\n"
      "                       (with --faults: fail unless faults fired and\n"
      "                       CDevil detected strictly more than C)\n"
      "                       (with --spec-campaign: fail if any mutant\n"
      "                       was re-lexed or, with dedup on, none deduped)\n"
      "  --workers N          --serve/--dispatch: shard workers per job\n"
      "                       (daemon default 3; 0 = daemon default)\n"
      "  --scratch DIR        --serve: artifact/log directory (default: a\n"
      "                       fresh directory under /tmp)\n"
      "  --no-cache           --dispatch: bypass the daemon's result cache\n"
      "                       for this request (the fresh result still\n"
      "                       populates it)\n"
      "  --kill-shard K       --dispatch: kill shard K's first worker\n"
      "                       attempt to exercise the retry path (the\n"
      "                       report must come back byte-identical)\n"
      "  --help               this message\n");
  return to == stdout ? 0 : 2;
}

[[nodiscard]] int flag_error(const std::string& message) {
  std::fprintf(stderr, "mutation_hunt: %s\n\n", message.c_str());
  return usage(stderr);
}

}  // namespace

int main(int argc, char** argv) {
  g_start_ns = support::monotonic_ns();
  eval::CampaignSpec spec;
  bool campaign_flag_given = false;  // any flag that switches to campaigns
  bool assert_counters = false;
  std::string shard_spec_text;
  std::string out_path;
  std::string metrics_path;
  std::vector<std::string> merge_paths;
  bool merge_given = false;
  std::string serve_target;
  std::string dispatch_target;
  unsigned workers = 0;
  bool workers_given = false;
  std::string scratch_dir;
  bool no_cache = false;
  unsigned kill_shard = 0;
  bool kill_shard_given = false;

  // Strict flag parsing: an unrecognised flag is a hard error with a usage
  // message, never silently ignored — a typoed `--theads 8` must not
  // quietly run the default scenario and exit 0. Campaign flags resolve
  // through the shared table (eval/campaign_spec.h), so the CLI and the
  // service workers parse identically by construction.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) return nullptr;
      (void)flag;
      return argv[++i];
    };
    if (const eval::CampaignFlag* flag = eval::find_campaign_flag(arg)) {
      std::string flag_value;
      if (flag->value_name) {
        const char* v = value(arg.c_str());
        if (!v) return flag_error(arg + " needs a value");
        flag_value = v;
      }
      std::string error = eval::apply_campaign_flag(spec, *flag, flag_value);
      if (!error.empty()) return flag_error(error);
      if (flag->implies_campaign) campaign_flag_given = true;
    } else if (arg == "--progress") {
      support::ProgressMeter::set_enabled(true);
    } else if (arg == "--metrics") {
      const char* v = value("--metrics");
      if (!v) return flag_error("--metrics needs a file path");
      metrics_path = v;
    } else if (arg == "--assert-counters") {
      assert_counters = true;
    } else if (arg == "--shard") {
      const char* v = value("--shard");
      if (!v) return flag_error("--shard needs a value (e.g. 1/3)");
      shard_spec_text = v;
    } else if (arg == "--out") {
      const char* v = value("--out");
      if (!v) return flag_error("--out needs a file path");
      out_path = v;
    } else if (arg == "--merge") {
      merge_given = true;
      // Everything after --merge is an artifact path; a flag-shaped arg
      // here is almost certainly a misplaced option, not a file, and gets
      // the strict-parser treatment (prefix genuine `--foo` files with ./).
      while (i + 1 < argc) {
        const std::string path = argv[++i];
        if (path.rfind("--", 0) == 0) {
          return flag_error("'" + path + "' after --merge: flags must come "
                            "before --merge (artifact files only from here; "
                            "prefix a file literally named like a flag "
                            "with ./)");
        }
        merge_paths.push_back(path);
      }
    } else if (arg == "--serve") {
      const char* v = value("--serve");
      if (!v) return flag_error("--serve needs an endpoint (a port or a "
                                "unix socket path)");
      serve_target = v;
    } else if (arg == "--dispatch") {
      const char* v = value("--dispatch");
      if (!v) return flag_error("--dispatch needs an endpoint (a port, "
                                "host:port or a unix socket path)");
      dispatch_target = v;
    } else if (arg == "--workers") {
      const char* v = value("--workers");
      if (!v) return flag_error("--workers needs a value");
      const std::string text = v;
      const bool digits =
          !text.empty() && text.size() <= 3 &&
          text.find_first_not_of("0123456789") == std::string::npos;
      if (!digits) {
        return flag_error("--workers: '" + text +
                          "' is not a worker count (0-999; 0 = daemon "
                          "default)");
      }
      workers = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      workers_given = true;
    } else if (arg == "--scratch") {
      const char* v = value("--scratch");
      if (!v) return flag_error("--scratch needs a directory path");
      scratch_dir = v;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--kill-shard") {
      const char* v = value("--kill-shard");
      if (!v) return flag_error("--kill-shard needs a 1-based shard index");
      const std::string text = v;
      const bool digits =
          !text.empty() && text.size() <= 3 &&
          text.find_first_not_of("0123456789") == std::string::npos;
      if (!digits || text == "0") {
        return flag_error("--kill-shard: '" + text +
                          "' is not a 1-based shard index (1-999)");
      }
      kill_shard = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      kill_shard_given = true;
    } else if (arg == "--list-devices") {
      // One name per line, so CI scripts can iterate the corpus registry
      // instead of hardcoding the device list. Mode-aware: after --faults
      // the listing is the fault-campaign corpus, which appends the
      // interrupt-driven devices to the polled mutation corpus.
      eval::CampaignSpec listing = spec;
      listing.device = "all";
      for (const auto& drivers : eval::campaign_spec_corpus(listing)) {
        std::printf("%s\n", drivers.device);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(stdout);
    } else {
      return flag_error("unknown flag '" + arg + "'");
    }
  }

  // `--metrics` turns the telemetry collector on for the rest of the run
  // (instrumentation points are single relaxed atomic loads otherwise).
  if (!metrics_path.empty()) support::Metrics::set_enabled(true);

  if (merge_given) {
    if (campaign_flag_given || assert_counters ||
        !shard_spec_text.empty() || !out_path.empty() ||
        !serve_target.empty() || !dispatch_target.empty() ||
        spec.engine != minic::ExecEngine::kBytecodeVm) {
      return flag_error("--merge takes only artifact files and --metrics "
                        "(the merged report is determined by the artifacts "
                        "themselves)");
    }
    if (merge_paths.empty()) {
      return flag_error("--merge needs at least one artifact file");
    }
    try {
      return run_merge(merge_paths, metrics_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
      return 1;
    }
  }

  if ((no_cache || kill_shard_given) && dispatch_target.empty()) {
    return flag_error(std::string(no_cache ? "--no-cache" : "--kill-shard") +
                      " only makes sense with --dispatch (it is a request "
                      "knob for the campaign daemon)");
  }
  if (workers_given && serve_target.empty() && dispatch_target.empty()) {
    return flag_error("--workers only makes sense with --serve or "
                      "--dispatch (local campaigns take --threads)");
  }
  if (!scratch_dir.empty() && serve_target.empty()) {
    return flag_error("--scratch only makes sense with --serve");
  }

  if (!serve_target.empty()) {
    if (!dispatch_target.empty()) {
      return flag_error("--serve and --dispatch are different roles; pick "
                        "one");
    }
    if (campaign_flag_given || assert_counters ||
        !shard_spec_text.empty() || !out_path.empty() ||
        spec != eval::CampaignSpec{}) {
      return flag_error("--serve runs a daemon: campaign flags belong on "
                        "the --dispatch requests, not on the server");
    }
    return run_serve(serve_target, argv[0], workers, scratch_dir,
                     metrics_path);
  }

  if (!dispatch_target.empty()) {
    if (!shard_spec_text.empty() || !out_path.empty()) {
      return flag_error("--dispatch sends a whole campaign to the daemon; "
                        "sharding is the daemon's job (--shard/--out do "
                        "not compose)");
    }
    if (assert_counters) {
      return flag_error("--assert-counters applies to local campaign runs "
                        "(the daemon's report carries no counter verdict)");
    }
    if (!metrics_path.empty()) {
      return flag_error("--metrics does not compose with --dispatch (the "
                        "daemon runs the campaign; point --metrics at a "
                        "local run or the daemon itself)");
    }
    std::vector<std::string> diags = eval::validate_campaign_spec(spec);
    if (!diags.empty()) {
      for (const std::string& d : diags) {
        std::fprintf(stderr, "mutation_hunt: %s\n", d.c_str());
      }
      return 2;
    }
    return run_dispatch(dispatch_target, spec, workers, !no_cache,
                        kill_shard);
  }

  if (!out_path.empty() && shard_spec_text.empty()) {
    return flag_error("--out only makes sense with --shard I/N");
  }

  const bool campaign_mode =
      campaign_flag_given || assert_counters || !metrics_path.empty();

  // A typoed device name (or a spec the selected kind cannot run) exits 2
  // before any campaigning starts.
  if (campaign_mode || !shard_spec_text.empty()) {
    std::vector<std::string> diags = eval::validate_campaign_spec(spec);
    if (!diags.empty()) {
      for (const std::string& d : diags) {
        std::fprintf(stderr, "mutation_hunt: %s\n", d.c_str());
      }
      return 2;
    }
  }

  if (!shard_spec_text.empty()) {
    if (out_path.empty()) {
      return flag_error("--shard needs --out FILE for the artifact");
    }
    if (assert_counters) {
      return flag_error("--assert-counters applies to full campaign runs, "
                        "not shards (counters are shard-local; merge the "
                        "artifacts instead)");
    }
    if (spec.kind == eval::CampaignKind::kSpec) {
      return flag_error("--spec-campaign has no shard slices; run it whole "
                        "or --dispatch it");
    }
    eval::ShardSpec shard;
    try {
      shard = eval::parse_shard_spec(shard_spec_text);
    } catch (const std::invalid_argument& e) {
      return flag_error(e.what());
    }
    try {
      return run_shard(spec, shard, out_path, metrics_path);
    } catch (const eval::ArtifactWriteError& e) {
      // The artifact could not be written (unwritable path, full disk):
      // exit 2 like the other preflight failures, never a partial file.
      std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
      return 1;
    }
  }

  if (campaign_mode) {
    if (spec.kind == eval::CampaignKind::kSpec) {
      int rc = run_spec_campaigns(spec, assert_counters);
      if (!metrics_path.empty()) {
        int metrics_rc = write_metrics_artifact(
            metrics_path, eval::MetricsArtifact{}, spec.threads);
        if (metrics_rc != 0) return metrics_rc;
      }
      return rc;
    }
    eval::MetricsArtifact artifact;
    eval::MetricsArtifact* metrics =
        metrics_path.empty() ? nullptr : &artifact;
    int rc = spec.kind == eval::CampaignKind::kFault
                 ? run_fault_campaigns(spec, assert_counters, metrics)
                 : run_campaigns(spec, assert_counters, metrics);
    if (metrics) {
      int metrics_rc = write_metrics_artifact(metrics_path,
                                              std::move(artifact),
                                              spec.threads);
      if (metrics_rc != 0) return metrics_rc;
    }
    return rc;
  }

  std::printf("Scenario: selecting the drive, the developer writes the\n"
              "IDENTIFY command byte instead of the drive-select value.\n\n");

  // --- original C driver: ATA_LBA -> WIN_IDENTIFY at the select site -----
  std::string c_driver = replace_once(
      corpus::c_ide_driver(), "outb(ATA_LBA, IDE_SELECT);",
      "outb(WIN_IDENTIFY, IDE_SELECT);");
  report("[1] C driver, `outb(WIN_IDENTIFY, IDE_SELECT)`:", "ide_c.c",
         c_driver, spec.engine);

  // --- Devil driver, debug stubs: set_Drive(WIN_IDENTIFY) ----------------
  auto debug = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                   devil::CodegenMode::kDebug);
  std::string d_driver = replace_once(corpus::cdevil_ide_driver(),
                                      "set_Drive(MASTER)",
                                      "set_Drive(WIN_IDENTIFY)");
  report("[2] Devil driver (debug stubs), `set_Drive(WIN_IDENTIFY)`:",
         "ide.dil", debug.stubs + "\n" + d_driver, spec.engine);

  // --- Devil driver, production stubs: same typo -------------------------
  auto prod = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kProduction);
  report("[3] Devil driver (production stubs), same typo:", "ide.dil",
         prod.stubs + "\n" + d_driver, spec.engine);

  // --- a same-type confusion that types cannot catch ---------------------
  std::string swap = replace_once(corpus::cdevil_ide_driver(),
                                  "dil_eq(get_Busy(), BUSY)",
                                  "dil_eq(get_Seek(), BUSY)");
  report("[4] Devil driver (debug), wrong getter inside dil_eq:", "ide.dil",
         debug.stubs + "\n" + swap, spec.engine);

  std::printf("Summary: Devil turns silent C-level typos into compile-time\n"
              "type errors (debug stubs) or precise run-time assertions; the\n"
              "same code built with production stubs behaves like C again.\n");
  return 0;
}
