// E8 — Methodology cost. The paper reports "each experiment takes about 2
// minutes" per mutant (real hardware reboot cycle). Our simulated substrate
// turns that into milliseconds; this bench quantifies the full
// mutate->compile->boot->classify cycle and its parts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/shard.h"
#include "hw/ide_disk.h"
#include "hw/io_bus.h"
#include "minic/bytecode/bytecode.h"
#include "minic/bytecode/patcher.h"
#include "minic/lexer.h"
#include "minic/program.h"
#include "support/source.h"
#include "mutation/c_mutator.h"
#include "support/metrics.h"

namespace {

// ---------------------------------------------------------------------------
// E9 — Execution-engine step rate. A tight port-poll loop (the shape that
// dominates step-limit-bound mutants) runs to budget exhaustion on each
// engine; the counter is walker-equivalent steps per second. The bytecode
// VM must hold >= 2x the tree walker (ctest does not enforce this, the
// recorded BENCH_campaign.json does).
// ---------------------------------------------------------------------------

/// Device stuck busy: the poll loop never exits, burning the whole budget.
class StuckBusyIo : public minic::IoEnvironment {
 public:
  uint32_t io_in(uint32_t, int) override { return 0x80; }
  void io_out(uint32_t, uint32_t, int) override {}
};

const char* poll_loop_src() {
  return R"(
int spin() {
  int n;
  n = 0;
  while (inb(0x1f7) & 0x80) {
    n = n + 1;
  }
  return n;
}
)";
}

void step_rate_bench(benchmark::State& state, minic::ExecEngine engine) {
  auto prog = minic::compile("spin.c", poll_loop_src());
  const uint64_t budget = 5'000'000;
  uint64_t steps = 0;
  for (auto _ : state) {
    StuckBusyIo io;
    auto out = minic::run_unit(*prog.unit, io, "spin", budget, engine);
    steps = out.steps_used;
    benchmark::DoNotOptimize(out.fault);
  }
  state.counters["steps_per_s"] = benchmark::Counter(
      static_cast<double>(steps * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_VmStepRate(benchmark::State& state) {
  step_rate_bench(state, minic::ExecEngine::kBytecodeVm);
}
BENCHMARK(BM_VmStepRate)->Unit(benchmark::kMillisecond);

void BM_TreeWalkerStepRate(benchmark::State& state) {
  step_rate_bench(state, minic::ExecEngine::kTreeWalker);
}
BENCHMARK(BM_TreeWalkerStepRate)->Unit(benchmark::kMillisecond);

void BM_BytecodeLowerCDevilUnit(benchmark::State& state) {
  // Per-mutant cost the VM path adds on top of the front end.
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  auto prog = minic::compile("ide.dil",
                             spec.stubs + "\n" + corpus::cdevil_ide_driver());
  for (auto _ : state) {
    auto module = minic::bytecode::compile_unit(*prog.unit);
    benchmark::DoNotOptimize(module.fns.size());
  }
}
BENCHMARK(BM_BytecodeLowerCDevilUnit);

// ---------------------------------------------------------------------------
// E10 — Campaign throughput per engine (CDevil, 1 thread, dedup on): the
// end-to-end effect of swapping the execution engine.
// ---------------------------------------------------------------------------

void campaign_engine_bench(benchmark::State& state,
                           minic::ExecEngine engine) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  eval::DriverCampaignConfig cfg;
  cfg.stubs = spec.stubs;
  cfg.driver = corpus::cdevil_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.is_cdevil = true;
  cfg.threads = 1;
  cfg.engine = engine;
  size_t mutants = 0, deduped = 0;
  for (auto _ : state) {
    auto res = eval::run_driver_campaign(cfg);
    mutants = res.sample_size;
    deduped = res.deduped_mutants;
    benchmark::DoNotOptimize(res.tally.total_mutants);
  }
  state.counters["mutants"] = static_cast<double>(mutants);
  state.counters["deduped"] = static_cast<double>(deduped);
  state.counters["mutants_per_s"] = benchmark::Counter(
      static_cast<double>(mutants * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_CampaignVm(benchmark::State& state) {
  campaign_engine_bench(state, minic::ExecEngine::kBytecodeVm);
}
BENCHMARK(BM_CampaignVm)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CampaignTreeWalker(benchmark::State& state) {
  campaign_engine_bench(state, minic::ExecEngine::kTreeWalker);
}
BENCHMARK(BM_CampaignTreeWalker)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DevilCompileSpec(benchmark::State& state) {
  for (auto _ : state) {
    auto r = devil::check_spec("ide.dil", corpus::ide_spec());
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_DevilCompileSpec);

void BM_DevilGenerateStubs(benchmark::State& state) {
  for (auto _ : state) {
    auto r = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                 devil::CodegenMode::kDebug);
    benchmark::DoNotOptimize(r.stubs.size());
  }
}
BENCHMARK(BM_DevilGenerateStubs);

void BM_MiniCCompileCDriver(benchmark::State& state) {
  const std::string& src = corpus::c_ide_driver();
  for (auto _ : state) {
    auto prog = minic::compile("ide_c.c", src);
    benchmark::DoNotOptimize(prog.ok());
  }
}
BENCHMARK(BM_MiniCCompileCDriver);

void BM_MiniCCompileCDevilUnit(benchmark::State& state) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  std::string unit = spec.stubs + "\n" + corpus::cdevil_ide_driver();
  for (auto _ : state) {
    auto prog = minic::compile("ide.dil", unit);
    benchmark::DoNotOptimize(prog.ok());
  }
}
BENCHMARK(BM_MiniCCompileCDevilUnit);

void BM_BootCleanCDriver(benchmark::State& state) {
  auto prog = minic::compile("ide_c.c", corpus::c_ide_driver());
  for (auto _ : state) {
    hw::IoBus bus;
    bus.map(0x1f0, 8, std::make_shared<hw::IdeDisk>());
    minic::Interp interp(*prog.unit, bus, 3'000'000);
    auto out = interp.run("ide_boot");
    benchmark::DoNotOptimize(out.return_value);
  }
}
BENCHMARK(BM_BootCleanCDriver);

void BM_FullMutantCycle(benchmark::State& state) {
  // One complete experiment: splice a mutant, compile, boot, classify.
  const std::string& driver = corpus::c_ide_driver();
  mutation::CScanOptions opt;
  opt.classes = mutation::classes_for_c_driver(driver);
  auto sites = mutation::scan_c_sites(driver, opt);
  auto mutants = mutation::generate_c_mutants(sites, opt.classes);
  size_t ix = 0;
  for (auto _ : state) {
    const auto& m = mutants[ix++ % mutants.size()];
    std::string mutated = mutation::apply_mutant(driver, sites, m);
    auto prog = minic::compile("ide_c.c", mutated);
    if (prog.ok()) {
      hw::IoBus bus;
      bus.map(0x1f0, 8, std::make_shared<hw::IdeDisk>());
      minic::Interp interp(*prog.unit, bus, 3'000'000);
      auto out = interp.run("ide_boot");
      benchmark::DoNotOptimize(out.fault);
    }
  }
  state.counters["paper_seconds_per_experiment"] = 120;  // for comparison
}
BENCHMARK(BM_FullMutantCycle)->Unit(benchmark::kMillisecond);

void BM_CDevilMutantCyclePrepared(benchmark::State& state) {
  // The campaign engine's per-mutant cycle for the stub-heavy CDevil unit:
  // the stub prefix is lexed once, only the driver tail is re-lexed.
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  const std::string& driver = corpus::cdevil_ide_driver();
  auto prefix = minic::prepare_prefix("ide.dil", spec.stubs + "\n");
  mutation::CScanOptions opt;
  opt.classes = mutation::classes_for_cdevil_driver(spec.stubs, driver);
  auto sites = mutation::scan_c_sites(driver, opt);
  auto mutants = mutation::generate_c_mutants(sites, opt.classes);
  size_t ix = 0;
  for (auto _ : state) {
    const auto& m = mutants[ix++ % mutants.size()];
    std::string mutated = mutation::apply_mutant(driver, sites, m);
    auto prog = minic::compile_with_prefix(prefix, mutated);
    if (prog.ok()) {
      hw::IoBus bus;
      bus.map(0x1f0, 8, std::make_shared<hw::IdeDisk>());
      minic::Interp interp(*prog.unit, bus, 3'000'000);
      auto out = interp.run("ide_boot");
      benchmark::DoNotOptimize(out.fault);
    }
  }
  state.counters["mutants_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CDevilMutantCyclePrepared)->Unit(benchmark::kMillisecond);

void BM_PatchedMutantCycle(benchmark::State& state) {
  // E16 — Bytecode-patch mutant cycle: the campaign's per-mutant cost when
  // the mutant is token-local and boots from a patched copy of the clean
  // tail module — no lexer, parser, typechecker or lowering at all. Compare
  // BM_CDevilMutantCyclePrepared (whole-unit front end per mutant) and
  // BM_PrefixCompileCached (tail-only front end): the patch path replaces
  // both with an operand rewrite. Patchability is classified once outside
  // the timing loop (the campaign builds its request table the same way);
  // the loop measures patch + boot + classify only, over the patchable
  // subset of the ide CDevil corpus.
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  const std::string& driver = corpus::cdevil_ide_driver();
  auto prefix = minic::prepare_prefix("ide.dil", spec.stubs + "\n");
  mutation::CScanOptions opt;
  opt.classes = mutation::classes_for_cdevil_driver(spec.stubs, driver);
  auto sites = mutation::scan_c_sites(driver, opt);
  auto mutants = mutation::generate_c_mutants(sites, opt.classes);
  minic::TailRecording recorded;
  for (size_t i = 0; i < sites.size(); ++i) {
    recorded.site_spans.push_back({static_cast<uint32_t>(sites[i].offset),
                                   static_cast<uint32_t>(sites[i].length),
                                   static_cast<uint32_t>(i)});
  }
  auto clean = minic::compile_tail(prefix, driver, &recorded);
  minic::bytecode::Patcher patcher(*clean.module, prefix.compiled->unit,
                                   *recorded.tail_unit, recorded.macros,
                                   std::move(recorded.patch));
  auto lex_one = [](const std::string& text) -> std::optional<minic::Token> {
    support::DiagnosticEngine diags;
    support::SourceBuffer buf("replacement", text);
    auto lexed = minic::lex_unit(buf, diags, {});
    if (diags.has_errors() || lexed.tokens.size() != 2) return std::nullopt;
    return lexed.tokens.front();
  };
  std::vector<minic::bytecode::PatchRequest> reqs;
  for (const auto& m : mutants) {
    const auto& site = sites[m.site];
    auto tok = lex_one(m.replacement);
    if (!tok) continue;
    minic::bytecode::PatchRequest req;
    req.site = static_cast<uint32_t>(m.site);
    switch (site.kind) {
      case mutation::SiteKind::kOperator:
        req.kind = minic::bytecode::PatchRequest::Kind::kOperator;
        req.new_op = tok->kind;
        break;
      case mutation::SiteKind::kLiteral:
        if (tok->kind != minic::Tok::kIntLit) continue;
        req.kind = minic::bytecode::PatchRequest::Kind::kLiteral;
        req.value = tok->int_value;
        break;
      case mutation::SiteKind::kIdentifier:
        if (tok->kind != minic::Tok::kIdent) continue;
        req.kind = minic::bytecode::PatchRequest::Kind::kIdentifier;
        req.original = site.original;
        req.replacement = m.replacement;
        break;
    }
    if (patcher.apply(req)) reqs.push_back(std::move(req));
  }
  size_t ix = 0;
  for (auto _ : state) {
    const auto& req = reqs[ix++ % reqs.size()];
    auto module = patcher.apply(req);
    hw::IoBus bus;
    bus.map(0x1f0, 8, std::make_shared<hw::IdeDisk>());
    auto out = minic::run_module(*module, bus, "ide_boot", 3'000'000);
    benchmark::DoNotOptimize(out.fault);
  }
  state.counters["patchable"] = static_cast<double>(reqs.size());
  state.counters["mutants_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PatchedMutantCycle)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// E11 — Compiled-prefix pipeline. BM_TailLower isolates the per-mutant
// front-end cost with the stage-1 cache (lex+parse+typecheck+lower of the
// driver tail only, spliced onto the shared segment) — compare against
// BM_MiniCCompileCDevilUnit, the whole-unit front end it replaces.
// BM_PrefixCompileCached is the full cached mutant cycle, the counterpart
// of BM_CDevilMutantCyclePrepared on the token-splice path.
// ---------------------------------------------------------------------------

void BM_TailLower(benchmark::State& state) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  auto prefix = minic::prepare_prefix("ide.dil", spec.stubs + "\n");
  const std::string& driver = corpus::cdevil_ide_driver();
  for (auto _ : state) {
    auto spliced = minic::compile_tail(prefix, driver);
    benchmark::DoNotOptimize(spliced.ok());
  }
}
BENCHMARK(BM_TailLower);

void BM_PrefixCompileCached(benchmark::State& state) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  const std::string& driver = corpus::cdevil_ide_driver();
  auto prefix = minic::prepare_prefix("ide.dil", spec.stubs + "\n");
  mutation::CScanOptions opt;
  opt.classes = mutation::classes_for_cdevil_driver(spec.stubs, driver);
  auto sites = mutation::scan_c_sites(driver, opt);
  auto mutants = mutation::generate_c_mutants(sites, opt.classes);
  size_t ix = 0;
  for (auto _ : state) {
    const auto& m = mutants[ix++ % mutants.size()];
    std::string mutated = mutation::apply_mutant(driver, sites, m);
    auto spliced = minic::compile_tail(prefix, mutated);
    if (spliced.ok()) {
      hw::IoBus bus;
      bus.map(0x1f0, 8, std::make_shared<hw::IdeDisk>());
      auto out = minic::run_module(*spliced.module, bus, "ide_boot",
                                   3'000'000);
      benchmark::DoNotOptimize(out.fault);
    }
  }
}
BENCHMARK(BM_PrefixCompileCached)->Unit(benchmark::kMillisecond);

// The headline number: full campaign wall-clock at 1/2/4/8 worker threads.
// Results are identical at every thread count (ctest asserts this); only
// the wall-clock changes.
void BM_CampaignParallel(benchmark::State& state) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.threads = static_cast<unsigned>(state.range(0));
  size_t mutants = 0;
  for (auto _ : state) {
    auto res = eval::run_driver_campaign(cfg);
    mutants = res.sample_size;
    benchmark::DoNotOptimize(res.tally.total_mutants);
  }
  state.counters["mutants"] = static_cast<double>(mutants);
  state.counters["mutants_per_s"] = benchmark::Counter(
      static_cast<double>(mutants * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignParallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// E12 — Second device: busmouse campaign throughput on the generic kernel
// (full enumeration, 1 thread; the corpus is small enough to skip the 25%
// sample). Mutants/s is the comparable headline counter.
// ---------------------------------------------------------------------------

void busmouse_campaign_bench(benchmark::State& state, bool cdevil) {
  auto spec = devil::compile_spec("busmouse.dil", corpus::busmouse_spec(),
                                  devil::CodegenMode::kDebug);
  eval::DriverCampaignConfig cfg;
  if (cdevil) {
    cfg.stubs = spec.stubs;
    cfg.driver = corpus::cdevil_busmouse_driver();
    cfg.is_cdevil = true;
  } else {
    cfg.driver = corpus::c_busmouse_driver();
  }
  cfg.device = eval::busmouse_binding();
  cfg.sample_percent = 100;
  cfg.threads = 1;
  size_t mutants = 0, deduped = 0;
  for (auto _ : state) {
    auto res = eval::run_driver_campaign(cfg);
    mutants = res.sample_size;
    deduped = res.deduped_mutants;
    benchmark::DoNotOptimize(res.tally.total_mutants);
  }
  state.counters["mutants"] = static_cast<double>(mutants);
  state.counters["deduped"] = static_cast<double>(deduped);
  state.counters["mutants_per_s"] = benchmark::Counter(
      static_cast<double>(mutants * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_CampaignBusmouseC(benchmark::State& state) {
  busmouse_campaign_bench(state, false);
}
BENCHMARK(BM_CampaignBusmouseC)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CampaignBusmouseCDevil(benchmark::State& state) {
  busmouse_campaign_bench(state, true);
}
BENCHMARK(BM_CampaignBusmouseCDevil)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// E13 — Sharding overhead. One shard of three of the busmouse C campaign
// (prep + slice run + artifact packaging) against a third of the unsharded
// campaign, plus the pure serialize/parse round-trip cost of the artifact.
// Sharding pays the campaign prep (baseline boot, site scan, sampling) per
// process; the counter shows what that costs at this corpus size.
// ---------------------------------------------------------------------------

void BM_CampaignShardBusmouseC(benchmark::State& state) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_busmouse_driver();
  cfg.device = eval::busmouse_binding();
  cfg.sample_percent = 100;
  cfg.threads = 1;
  size_t records = 0;
  for (auto _ : state) {
    auto artifact =
        eval::run_campaign_shard(cfg, "C", eval::ShardSpec{1, 3});
    records = artifact.result.records.size();
    benchmark::DoNotOptimize(artifact.result.tally.total_mutants);
  }
  state.counters["records"] = static_cast<double>(records);
  state.counters["mutants_per_s"] = benchmark::Counter(
      static_cast<double>(records * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignShardBusmouseC)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ShardArtifactRoundTrip(benchmark::State& state) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_busmouse_driver();
  cfg.device = eval::busmouse_binding();
  cfg.sample_percent = 100;
  cfg.threads = 1;
  eval::ShardBundle bundle;
  bundle.shard = eval::ShardSpec{1, 3};
  bundle.campaigns.push_back(
      eval::run_campaign_shard(cfg, "C", bundle.shard));
  for (auto _ : state) {
    std::string text = eval::serialize_shard_bundle(bundle);
    auto parsed = eval::parse_shard_bundle(text);
    benchmark::DoNotOptimize(parsed.campaigns.size());
  }
}
BENCHMARK(BM_ShardArtifactRoundTrip)->Unit(benchmark::kMillisecond);

void BM_CampaignParallelCDevil(benchmark::State& state) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  eval::DriverCampaignConfig cfg;
  cfg.stubs = spec.stubs;
  cfg.driver = corpus::cdevil_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.is_cdevil = true;
  cfg.threads = static_cast<unsigned>(state.range(0));
  size_t mutants = 0;
  for (auto _ : state) {
    auto res = eval::run_driver_campaign(cfg);
    mutants = res.sample_size;
    benchmark::DoNotOptimize(res.tally.total_mutants);
  }
  state.counters["mutants"] = static_cast<double>(mutants);
  state.counters["mutants_per_s"] = benchmark::Counter(
      static_cast<double>(mutants * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignParallelCDevil)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// E14 — Fault-injection campaign throughput: the full scenario matrix of the
// busmouse C driver (enumerate plans, boot each under its injector shim,
// classify). Scenarios/s rides the mutants_per_s counter so the existing
// bench gate covers it.
// ---------------------------------------------------------------------------

void BM_FaultCampaign(benchmark::State& state) {
  eval::FaultCampaignConfig cfg;
  cfg.base.driver = corpus::c_busmouse_driver();
  cfg.base.device = eval::busmouse_binding();
  cfg.base.threads = 1;
  size_t scenarios = 0, triggered = 0;
  for (auto _ : state) {
    auto res = eval::run_fault_campaign(cfg);
    scenarios = res.sample_size;
    triggered = res.triggered_scenarios;
    benchmark::DoNotOptimize(res.tally.total);
  }
  state.counters["scenarios"] = static_cast<double>(scenarios);
  state.counters["triggered"] = static_cast<double>(triggered);
  state.counters["mutants_per_s"] = benchmark::Counter(
      static_cast<double>(scenarios * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FaultCampaign)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// E15 — Telemetry overhead. The busmouse C campaign with the metrics
// collector off and on, interleaved ABAB inside each iteration so clock
// drift cancels; `overhead_percent` compares the best run of each mode
// (min-of-N is robust to scheduler noise). The gate (compare_bench.py,
// run_bench.sh --check) asserts the counter stays under 2% — the collector
// must be near-free, and the disabled path (one relaxed atomic load per
// instrumentation point) free-er still. No mutants_per_s counter: this row
// is gated on overhead, not throughput, and recorded baselines stay valid.
// ---------------------------------------------------------------------------

void BM_MetricsOverhead(benchmark::State& state) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_busmouse_driver();
  cfg.device = eval::busmouse_binding();
  cfg.sample_percent = 100;
  cfg.threads = 1;
  auto timed_run = [&cfg](bool telemetry) {
    support::Metrics::set_enabled(telemetry);
    uint64_t t0 = support::monotonic_ns();
    auto res = eval::run_driver_campaign(cfg);
    uint64_t elapsed = support::monotonic_ns() - t0;
    benchmark::DoNotOptimize(res.tally.total_mutants);
    return elapsed;
  };
  uint64_t best_off = ~0ull, best_on = ~0ull;
  for (auto _ : state) {
    for (int pair = 0; pair < 2; ++pair) {
      best_off = std::min(best_off, timed_run(false));
      best_on = std::min(best_on, timed_run(true));
    }
  }
  support::Metrics::set_enabled(false);
  support::Metrics::reset();
  state.counters["overhead_percent"] =
      best_off == 0 ? 0.0
                    : 100.0 *
                          (static_cast<double>(best_on) -
                           static_cast<double>(best_off)) /
                          static_cast<double>(best_off);
}
BENCHMARK(BM_MetricsOverhead)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
