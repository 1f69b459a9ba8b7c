// Campaign-service suite (src/serve): wire frames and envelopes, the
// CampaignSpec JSON round trip and fingerprint guarantees behind the result
// cache, the dispatcher's timeout/retry path, and a live CampaignService on
// a unix socket exercised the way CI does —
//
//  - served report byte-identical to the single-process `mutation_hunt`
//    run (minus its two header lines), including after a worker kill forces
//    the retry path;
//  - an identical re-request answered from the fingerprint cache without
//    spawning a single worker (asserted via the service Metrics counters:
//    zero mutant boots happen in this process or any child);
//  - concurrent clients each getting their own correct answer;
//  - malformed and oversized requests answered with an error response while
//    the daemon keeps serving, and every finished connection's reader
//    thread joined while it does;
//  - a connection that arrives while the process is out of descriptors
//    answered once descriptors are free again.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/campaign_spec.h"
#include "serve/campaign_service.h"
#include "serve/dispatcher.h"
#include "serve/wire.h"
#include "support/json_io.h"
#include "support/metrics.h"

#ifndef MUTATION_HUNT_BIN
#error "MUTATION_HUNT_BIN must point at the mutation_hunt binary"
#endif

namespace {

// --- wire frame helpers ------------------------------------------------------

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(WireFrame, RoundTripsPayloadBytes) {
  SocketPair sp;
  const std::string payload = "{\"x\":1}\n\0binary\xff ok";
  serve::write_frame(sp.a, payload);
  std::string got;
  ASSERT_TRUE(serve::read_frame(sp.b, 1 << 20, &got));
  EXPECT_EQ(got, payload);
}

TEST(WireFrame, CleanEofBeforeLengthReturnsFalse) {
  SocketPair sp;
  ::close(sp.a);
  sp.a = -1;
  std::string got;
  EXPECT_FALSE(serve::read_frame(sp.b, 1 << 20, &got));
}

TEST(WireFrame, MidFrameEofThrows) {
  SocketPair sp;
  // Length prefix promising 100 bytes, then only 3 arrive before EOF.
  const unsigned char prefix[4] = {0, 0, 0, 100};
  ASSERT_EQ(::send(sp.a, prefix, 4, 0), 4);
  ASSERT_EQ(::send(sp.a, "abc", 3, 0), 3);
  ::close(sp.a);
  sp.a = -1;
  std::string got;
  EXPECT_THROW((void)serve::read_frame(sp.b, 1 << 20, &got),
               serve::WireError);
}

TEST(WireFrame, OversizedLengthRejectedBeforeAllocation) {
  SocketPair sp;
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(sp.a, prefix, 4, 0), 4);
  std::string got;
  EXPECT_THROW((void)serve::read_frame(sp.b, 1 << 20, &got),
               serve::WireError);
}

TEST(WireListener, RejectsHostFormForListening) {
  EXPECT_THROW((void)serve::Listener::bind_and_listen("example.org:9000"),
               serve::WireError);
}

// --- envelopes ---------------------------------------------------------------

serve::CampaignRequest sample_request() {
  serve::CampaignRequest req;
  req.spec.kind = eval::CampaignKind::kFault;
  req.spec.device = "busmouse-irq";
  req.spec.seed = 42;
  req.spec.fault_triggers = {0, 2, 7};
  req.workers = 5;
  req.use_cache = false;
  req.kill_shard = 2;
  return req;
}

TEST(WireEnvelope, RequestRoundTripPreservesEveryField) {
  serve::CampaignRequest req = sample_request();
  serve::CampaignRequest back =
      serve::parse_campaign_request(serve::serialize_campaign_request(req));
  EXPECT_EQ(back, req);
  // Byte-stable: the codec is the strict json_io writer, so serializing
  // twice is the identical string (the cache key contract depends on it).
  EXPECT_EQ(serve::serialize_campaign_request(req),
            serve::serialize_campaign_request(back));
}

TEST(WireEnvelope, ResponseRoundTripPreservesEveryField) {
  serve::CampaignResponse resp;
  resp.ok = true;
  resp.fingerprint = "deadbeef";
  resp.cache_hit = true;
  resp.workers_spawned = 7;
  resp.worker_retries = 3;
  resp.report = "line one\nline two\n";
  serve::CampaignResponse back =
      serve::parse_campaign_response(serve::serialize_campaign_response(resp));
  EXPECT_EQ(back, resp);
}

TEST(WireEnvelope, GarbageJsonRejected) {
  EXPECT_THROW((void)serve::parse_campaign_request("not json at all"),
               serve::WireError);
  EXPECT_THROW((void)serve::parse_campaign_response("{\"trailing\""),
               serve::WireError);
}

TEST(WireEnvelope, MissingAndUnknownFieldsRejected) {
  EXPECT_THROW((void)serve::parse_campaign_request("{}"), serve::WireError);
  // Add a field the schema does not know: strict parsing must refuse it
  // rather than silently ignore a typo'd knob.
  support::JsonValue v = support::parse_json(
      serve::serialize_campaign_request(sample_request()));
  v.set("surprise", true);
  EXPECT_THROW((void)serve::parse_campaign_request(support::to_json(v)),
               serve::WireError);
}

TEST(WireEnvelope, WrongFormatTagAndVersionRejected) {
  support::JsonValue v = support::parse_json(
      serve::serialize_campaign_request(sample_request()));
  support::JsonValue wrong = support::JsonValue::object();
  for (const auto& [key, value] : v.members()) {
    if (key == "format") {
      wrong.set(key, support::JsonValue("not-a-campaign"));
    } else if (key == "version") {
      wrong.set(key, support::JsonValue(int64_t{99}));
    } else {
      wrong.set(key, value);
    }
  }
  EXPECT_THROW((void)serve::parse_campaign_request(support::to_json(wrong)),
               serve::WireError);
}

// --- CampaignSpec round trip + fingerprint -----------------------------------

TEST(CampaignSpecJson, RoundTripReproducesNonDefaultSpec) {
  eval::CampaignSpec spec;
  spec.kind = eval::CampaignKind::kFault;
  spec.device = "busmouse";
  spec.engine = minic::ExecEngine::kTreeWalker;
  spec.seed = 7;
  spec.sample_percent = 33;
  spec.step_budget = 123456;
  spec.dedup = false;
  spec.flight_recorder = true;
  spec.watchdog_ms = 250;
  spec.threads = 4;
  spec.fault_triggers = {1, 5};
  spec.fault_sample_percent = 50;

  support::JsonValue v = eval::campaign_spec_to_json(spec);
  eval::CampaignSpec back = eval::campaign_spec_from_json(v, "round trip");
  EXPECT_EQ(back, spec);
  EXPECT_EQ(support::to_json(eval::campaign_spec_to_json(back)),
            support::to_json(v));
}

TEST(CampaignSpecJson, UnknownFieldRejected) {
  support::JsonValue v = eval::campaign_spec_to_json(eval::CampaignSpec{});
  v.set("surprise", int64_t{1});
  EXPECT_THROW((void)eval::campaign_spec_from_json(v, "strict"),
               std::runtime_error);
  // A retired knob is unknown too: a request that still sets it is
  // rejected, never silently run without it.
  support::JsonValue retired =
      eval::campaign_spec_to_json(eval::CampaignSpec{});
  retired.set("prefix_cache", false);
  EXPECT_THROW((void)eval::campaign_spec_from_json(retired, "strict"),
               std::runtime_error);
  retired = eval::campaign_spec_to_json(eval::CampaignSpec{});
  retired.set("bytecode_patch", true);
  EXPECT_THROW((void)eval::campaign_spec_from_json(retired, "strict"),
               std::runtime_error);
  retired = eval::campaign_spec_to_json(eval::CampaignSpec{});
  retired.set("survivor_samples", int64_t{8});
  EXPECT_THROW((void)eval::campaign_spec_from_json(retired, "strict"),
               std::runtime_error);
}

TEST(CampaignSpecJson, EveryBoundSurvivesTheWorkerArgv) {
  // The dispatcher hands a served JSON spec to its workers as flags, so
  // every value the JSON reader accepts must parse as a flag too: a spec
  // with every numeric field at its maximum survives spec -> argv -> spec.
  eval::CampaignSpec max;
  max.seed = eval::kMaxSeed;
  max.sample_percent = 100;
  max.step_budget = eval::kMaxStepBudget;
  max.watchdog_ms = eval::kMaxWatchdogMs;
  max.threads = static_cast<unsigned>(eval::kMaxThreads);
  max.fault_triggers = {0, static_cast<uint32_t>(eval::kMaxFaultTrigger)};
  max.fault_sample_percent = 100;
  EXPECT_EQ(eval::campaign_spec_from_json(eval::campaign_spec_to_json(max),
                                          "max"),
            max);
  eval::CampaignSpec parsed;
  const std::vector<std::string> args = eval::campaign_spec_to_args(max);
  for (size_t i = 0; i < args.size(); ++i) {
    const eval::CampaignFlag* flag = eval::find_campaign_flag(args[i]);
    ASSERT_NE(flag, nullptr) << args[i];
    const std::string value = flag->value_name != nullptr ? args[++i] : "";
    EXPECT_EQ(eval::apply_campaign_flag(parsed, *flag, value), "")
        << flag->flag << " " << value;
  }
  EXPECT_EQ(parsed, max);

  // One past each maximum is a JSON error naming the field.
  using Spec = eval::CampaignSpec;
  const std::pair<const char*, void (*)(Spec&)> past_max[] = {
      {"seed", [](Spec& s) { s.seed = eval::kMaxSeed + 1; }},
      {"sample_percent", [](Spec& s) { s.sample_percent = 101; }},
      {"step_budget",
       [](Spec& s) { s.step_budget = eval::kMaxStepBudget + 1; }},
      {"watchdog_ms",
       [](Spec& s) { s.watchdog_ms = eval::kMaxWatchdogMs + 1; }},
      {"threads", [](Spec& s) { s.threads = eval::kMaxThreads + 1; }},
      {"fault_triggers",
       [](Spec& s) { s.fault_triggers = {eval::kMaxFaultTrigger + 1}; }},
      {"fault_sample_percent", [](Spec& s) { s.fault_sample_percent = 101; }},
  };
  for (const auto& [name, set_past_max] : past_max) {
    Spec spec = max;
    set_past_max(spec);
    try {
      (void)eval::campaign_spec_from_json(eval::campaign_spec_to_json(spec),
                                          "bounds");
      ADD_FAILURE() << name << " one past its maximum was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignSpecFingerprint, StableAcrossCallsAndThreadCounts) {
  eval::CampaignSpec spec;
  spec.device = "busmouse";
  const std::string fp = eval::campaign_spec_fingerprint(spec);
  EXPECT_EQ(fp.size(), 32u) << "128-bit hex digest";
  EXPECT_EQ(eval::campaign_spec_fingerprint(spec), fp);

  // Thread count is explicitly not fingerprinted: reports are thread-count
  // invariant, so a cache hit across different --threads is correct.
  eval::CampaignSpec threaded = spec;
  threaded.threads = 8;
  EXPECT_EQ(eval::campaign_spec_fingerprint(threaded), fp);
}

TEST(CampaignSpecFingerprint, MovesWithReportChangingKnobs) {
  eval::CampaignSpec spec;
  spec.device = "busmouse";
  const std::string fp = eval::campaign_spec_fingerprint(spec);

  eval::CampaignSpec reseeded = spec;
  reseeded.seed = 999;
  EXPECT_NE(eval::campaign_spec_fingerprint(reseeded), fp);

  eval::CampaignSpec other_device = spec;
  other_device.device = "busmouse-irq";
  EXPECT_NE(eval::campaign_spec_fingerprint(other_device), fp);

  eval::CampaignSpec faults = spec;
  faults.kind = eval::CampaignKind::kFault;
  EXPECT_NE(eval::campaign_spec_fingerprint(faults), fp);
}

// --- dispatcher fault tolerance ----------------------------------------------

TEST(Dispatcher, TimeoutKillsWorkerAndFailsWithShardDiagnostic) {
  // A worker that sleeps forever must be killed at its deadline and, with a
  // zero retry budget, surface a diagnostic naming the shard and the log.
  const std::string dir = ::testing::TempDir() + "serve-timeout";
  std::string script = dir + "/sleepy-worker.sh";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  {
    std::FILE* f = std::fopen(script.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // exec: the killed worker must be the sleeper itself, or the sleep
    // outlives the test as an orphan.
    std::fputs("#!/bin/sh\nexec sleep 600\n", f);
    std::fclose(f);
  }
  ASSERT_EQ(std::system(("chmod +x " + script).c_str()), 0);

  serve::DispatcherConfig cfg;
  cfg.worker_binary = script;
  cfg.scratch_dir = dir;
  cfg.workers = 1;
  cfg.worker_retries = 0;
  cfg.worker_timeout_ms = 200;
  cfg.job_tag = "sleepy";
  eval::CampaignSpec spec;
  spec.device = "busmouse";
  try {
    (void)serve::dispatch_campaign(spec, cfg);
    FAIL() << "a wedged worker must not dispatch successfully";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dispatch [sleepy]"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 1/1"), std::string::npos) << what;
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("worker log"), std::string::npos) << what;
  }
}

TEST(Dispatcher, FailedDispatchLeavesNoWorkerBehind) {
  // Shard 1 exits non-zero at once (once shard 2 has written its pid, so
  // the test knows it); shard 2 sleeps. With no retries shard 1 fails the
  // dispatch, and by the time the error arrives shard 2's worker must be
  // killed and reaped, neither running nor a zombie.
  const std::string dir = ::testing::TempDir() + "serve-reap";
  const std::string pid_file = dir + "/sleeper.pid";
  const std::string script = dir + "/split-worker.sh";
  ASSERT_EQ(std::system(("mkdir -p " + dir + " && rm -f " + pid_file).c_str()),
            0);
  {
    std::FILE* f = std::fopen(script.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // A worker's argv starts `--shard I/N --out FILE`.
    const std::string body =
        "#!/bin/sh\n"
        "if [ \"$2\" = 2/2 ]; then\n"
        "  echo $$ > " + pid_file + ".tmp && mv " + pid_file + ".tmp " +
        pid_file + "\n"
        "  exec sleep 600\n"
        "fi\n"
        "while [ ! -f " + pid_file + " ]; do sleep 0.01; done\n"
        "exit 3\n";
    std::fputs(body.c_str(), f);
    std::fclose(f);
  }
  ASSERT_EQ(std::system(("chmod +x " + script).c_str()), 0);

  serve::DispatcherConfig cfg;
  cfg.worker_binary = script;
  cfg.scratch_dir = dir;
  cfg.workers = 2;
  cfg.worker_retries = 0;
  cfg.job_tag = "split";
  eval::CampaignSpec spec;
  spec.device = "busmouse";
  EXPECT_THROW((void)serve::dispatch_campaign(spec, cfg), std::runtime_error);

  std::FILE* f = std::fopen(pid_file.c_str(), "r");
  ASSERT_NE(f, nullptr) << "shard 2 never wrote its pid";
  long pid = 0;
  const int scanned = std::fscanf(f, "%ld", &pid);
  std::fclose(f);
  ASSERT_EQ(scanned, 1);
  const bool alive = ::kill(static_cast<pid_t>(pid), 0) == 0;
  if (alive) {  // do not leave the sleeper behind either
    ::kill(static_cast<pid_t>(pid), SIGKILL);
    ::waitpid(static_cast<pid_t>(pid), nullptr, 0);
  }
  EXPECT_FALSE(alive) << "shard 2's worker (pid " << pid
                      << ") outlived the failed dispatch";
}

// --- live service ------------------------------------------------------------

/// Connects, sends one request, reads back the answer.
serve::CampaignResponse dispatch_to(const std::string& endpoint,
                                    const serve::CampaignRequest& req) {
  int fd = serve::connect_endpoint(endpoint);
  serve::write_frame(fd, serve::serialize_campaign_request(req));
  std::string payload;
  bool got = serve::read_frame(fd, 256u << 20, &payload);
  ::close(fd);
  if (!got) throw serve::WireError("daemon closed without a response");
  return serve::parse_campaign_response(payload);
}

/// One running daemon on a unix socket under TempDir, with the real
/// mutation_hunt binary as shard worker. `tag` keeps socket paths unique
/// across tests in the suite.
struct LiveService {
  serve::CampaignService service;

  explicit LiveService(const std::string& tag, unsigned workers = 2)
      : service(config_for(tag, workers)) {
    service.start();
  }

  static serve::ServiceConfig config_for(const std::string& tag,
                                         unsigned workers) {
    const std::string dir = ::testing::TempDir() + "serve-" + tag;
    if (std::system(("mkdir -p " + dir).c_str()) != 0) {
      throw std::runtime_error("cannot create scratch dir " + dir);
    }
    serve::ServiceConfig cfg;
    cfg.listen_target = dir + "/sock";
    cfg.dispatch.worker_binary = MUTATION_HUNT_BIN;
    cfg.dispatch.scratch_dir = dir;
    cfg.dispatch.workers = workers;
    return cfg;
  }
};

serve::CampaignRequest busmouse_request() {
  serve::CampaignRequest req;
  req.spec.device = "busmouse";
  return req;
}

/// stdout of the single-process run minus its two header lines — the exact
/// `mutation_hunt ... | tail -n +3` convention the CI smoke job cmp's.
std::string single_process_report(const std::string& flags) {
  std::string cmd =
      std::string(MUTATION_HUNT_BIN) + " " + flags + " 2>/dev/null";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  EXPECT_EQ(::pclose(pipe), 0) << cmd;
  size_t first = out.find('\n');
  EXPECT_NE(first, std::string::npos) << "missing header: " << out;
  size_t second = out.find('\n', first + 1);
  EXPECT_NE(second, std::string::npos) << "missing blank line: " << out;
  return out.substr(second + 1);
}

TEST(CampaignService, ServedReportByteIdenticalToSingleProcessRun) {
  LiveService live("byteident");
  serve::CampaignResponse resp =
      dispatch_to(live.service.endpoint(), busmouse_request());
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_FALSE(resp.cache_hit);
  EXPECT_EQ(resp.workers_spawned, 2u);
  EXPECT_EQ(resp.worker_retries, 0u);
  EXPECT_EQ(resp.report, single_process_report("--device busmouse"));
}

TEST(CampaignService, CacheHitReplaysByteIdenticalWithZeroWorkers) {
  support::Metrics::reset();
  support::Metrics::set_enabled(true);
  {
    LiveService live("cachehit");
    serve::CampaignResponse first =
        dispatch_to(live.service.endpoint(), busmouse_request());
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_FALSE(first.cache_hit);
    const support::MetricsSnapshot after_first = support::Metrics::snapshot();

    serve::CampaignResponse replay =
        dispatch_to(live.service.endpoint(), busmouse_request());
    ASSERT_TRUE(replay.ok) << replay.error;
    EXPECT_TRUE(replay.cache_hit);
    EXPECT_EQ(replay.report, first.report);
    EXPECT_EQ(replay.fingerprint, first.fingerprint);
    EXPECT_EQ(replay.workers_spawned, 0u);

    // The counters prove the replay ran nothing: no worker spawned, no job
    // dispatched, not one mutant booted in this process — only the cache
    // hit ticked.
    const support::MetricsSnapshot after_replay = support::Metrics::snapshot();
    EXPECT_EQ(after_replay.service_cache_hits,
              after_first.service_cache_hits + 1);
    EXPECT_EQ(after_replay.service_jobs_dispatched,
              after_first.service_jobs_dispatched);
    EXPECT_EQ(after_replay.service_workers_spawned,
              after_first.service_workers_spawned);
    const auto& boots =
        after_replay.stages[static_cast<size_t>(support::Stage::kBoot)];
    const auto& boots_before =
        after_first.stages[static_cast<size_t>(support::Stage::kBoot)];
    EXPECT_EQ(boots.count(), boots_before.count());
  }
  support::Metrics::set_enabled(false);
  support::Metrics::reset();
}

TEST(CampaignService, WorkerKillForcesRetryAndReportStaysByteIdentical) {
  LiveService live("killshard");
  serve::CampaignResponse clean =
      dispatch_to(live.service.endpoint(), busmouse_request());
  ASSERT_TRUE(clean.ok) << clean.error;

  serve::CampaignRequest killer = busmouse_request();
  killer.use_cache = false;  // force a real re-run against the cached result
  killer.kill_shard = 1;
  serve::CampaignResponse retried =
      dispatch_to(live.service.endpoint(), killer);
  ASSERT_TRUE(retried.ok) << retried.error;
  EXPECT_FALSE(retried.cache_hit);
  EXPECT_GE(retried.worker_retries, 1u);
  EXPECT_GT(retried.workers_spawned, 2u);
  EXPECT_EQ(retried.report, clean.report);
}

TEST(CampaignService, ConcurrentClientsEachGetTheirOwnAnswer) {
  LiveService live("concurrent");
  serve::CampaignRequest a = busmouse_request();
  serve::CampaignRequest b = busmouse_request();
  b.spec.seed = 31337;  // distinct fingerprint: two genuinely queued jobs

  serve::CampaignResponse resp_a, resp_b;
  std::thread ta([&] { resp_a = dispatch_to(live.service.endpoint(), a); });
  std::thread tb([&] { resp_b = dispatch_to(live.service.endpoint(), b); });
  ta.join();
  tb.join();

  ASSERT_TRUE(resp_a.ok) << resp_a.error;
  ASSERT_TRUE(resp_b.ok) << resp_b.error;
  EXPECT_NE(resp_a.fingerprint, resp_b.fingerprint);
  // Same full-enumeration busmouse corpus, different seed: the sampler
  // never engages, so the reports agree while the fingerprints do not.
  EXPECT_EQ(resp_a.report, resp_b.report);

  // Both answers must match what a fresh request sees (and at least one of
  // the two is now a cache hit).
  serve::CampaignResponse again = dispatch_to(live.service.endpoint(), a);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.report, resp_a.report);
}

TEST(CampaignService, MalformedAndOversizedRequestsAnsweredNotFatal) {
  LiveService live("malformed");

  // Valid frame, junk payload: strict envelope parsing answers with an
  // error response instead of killing the daemon.
  {
    int fd = serve::connect_endpoint(live.service.endpoint());
    serve::write_frame(fd, "{\"junk\":true}");
    std::string payload;
    ASSERT_TRUE(serve::read_frame(fd, 1 << 20, &payload));
    ::close(fd);
    serve::CampaignResponse resp = serve::parse_campaign_response(payload);
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("format"), std::string::npos) << resp.error;
  }

  // Garbage length prefix far past max_request_bytes: rejected before any
  // allocation, still answered with an error response.
  {
    int fd = serve::connect_endpoint(live.service.endpoint());
    const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::send(fd, prefix, 4, 0), 4);
    std::string payload;
    ASSERT_TRUE(serve::read_frame(fd, 1 << 20, &payload));
    ::close(fd);
    serve::CampaignResponse resp = serve::parse_campaign_response(payload);
    EXPECT_FALSE(resp.ok);
    EXPECT_FALSE(resp.error.empty());
  }

  // A client that connects and hangs up without a request is a no-op.
  {
    int fd = serve::connect_endpoint(live.service.endpoint());
    ::close(fd);
  }

  // The daemon survived all three and still serves real campaigns.
  serve::CampaignResponse resp =
      dispatch_to(live.service.endpoint(), busmouse_request());
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.report, single_process_report("--device busmouse"));
}

/// Lines of /proc/self/maps. A thread that has finished but was never
/// joined still maps its stack and guard page.
size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  size_t n = 0;
  std::string line;
  while (std::getline(maps, line)) ++n;
  return n;
}

TEST(CampaignService, FinishedConnectionsReleaseTheirThreads) {
  LiveService live("reap");
  auto send_malformed = [&] {
    int fd = serve::connect_endpoint(live.service.endpoint());
    serve::write_frame(fd, "{\"junk\":true}");
    std::string payload;
    const bool answered = serve::read_frame(fd, 1 << 20, &payload);
    ::close(fd);
    ASSERT_TRUE(answered);
    EXPECT_FALSE(serve::parse_campaign_response(payload).ok);
  };
  // Warm up with as many connections as are measured: the first reader's
  // stack stays mapped from here on, and a runtime that keeps state of
  // recently finished threads (ThreadSanitizer maps it for the last 64) has
  // reached its steady state.
  for (int i = 0; i < 200; ++i) send_malformed();
  const size_t before = mapping_count();
  for (int i = 0; i < 200; ++i) send_malformed();
  const size_t after = mapping_count();
  // Unreaped, the 200 finished readers would add 400 mappings.
  EXPECT_LT(after, before + 40)
      << "the daemon keeps finished connection threads: " << before
      << " mappings before 200 connections, " << after << " after";
}

TEST(CampaignService, InvalidSpecAnsweredWithValidationDiagnostic) {
  LiveService live("invalidspec");
  serve::CampaignRequest req = busmouse_request();
  req.spec.device = "floppy";  // not in any corpus
  serve::CampaignResponse resp = dispatch_to(live.service.endpoint(), req);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("unknown device 'floppy'"), std::string::npos)
      << resp.error;
}

/// Lowers this process's soft descriptor limit and takes every free
/// descriptor below it; `release` (or the destructor) frees them and
/// restores the limit.
struct DescriptorExhaustion {
  rlimit saved{};
  std::vector<int> held;

  DescriptorExhaustion() {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    int seed = ::open("/dev/null", O_RDONLY);
    EXPECT_GE(seed, 0);
    held.push_back(seed);
    rlimit low = saved;
    low.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 128);
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
    for (;;) {
      int fd = ::dup(seed);
      if (fd < 0) {
        EXPECT_EQ(errno, EMFILE);
        break;
      }
      held.push_back(fd);
    }
  }
  ~DescriptorExhaustion() { release(); }
  DescriptorExhaustion(const DescriptorExhaustion&) = delete;
  DescriptorExhaustion& operator=(const DescriptorExhaustion&) = delete;

  void free_one() {
    ::close(held.back());
    held.pop_back();
  }
  void release() {
    for (int fd : held) ::close(fd);
    held.clear();
    ::setrlimit(RLIMIT_NOFILE, &saved);
  }
};

/// A unix stream socket, not yet connected.
int unix_socket() { return ::socket(AF_UNIX, SOCK_STREAM, 0); }

/// Connects `fd` to the unix socket at `path`.
bool connect_unix(int fd, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
}

// An idle acceptor blocks in accept() holding a reserved descriptor, so the
// first connection is accepted even with none left; the acceptor's next
// accept() then fails with EMFILE. A connection that arrives after that must
// still be answered once descriptors are free again.
TEST(CampaignService, AcceptSurvivesDescriptorExhaustion) {
  LiveService live("emfile");
  // Warm-up: two complete requests, each followed by a pause so that its
  // reader thread has ended. Under UBSan the first use of a vptr (here the
  // reader thread's `std::thread` state) is checked once and cached, and
  // that check needs a free descriptor; without the warm-up it would run
  // while the test holds every descriptor, and fail as "invalid vptr".
  for (int i = 0; i < 2; ++i) {
    int fd = serve::connect_endpoint(live.service.endpoint());
    serve::write_frame(fd, "{\"junk\":true}");
    std::string payload;
    const bool answered = serve::read_frame(fd, 1 << 20, &payload);
    ::close(fd);
    ASSERT_TRUE(answered);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  int idle = -1, probe = -1;
  {
    DescriptorExhaustion exhausted;
    ASSERT_GT(exhausted.held.size(), 2u) << "no descriptors to free";
    exhausted.free_one();
    exhausted.free_one();
    probe = unix_socket();
    ASSERT_GE(probe, 0);
    // Takes the acceptor's reserved descriptor and sends nothing, so its
    // reader holds it; the acceptor's next accept() fails with EMFILE.
    idle = serve::connect_endpoint(live.service.endpoint());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(connect_unix(probe, live.service.endpoint()));
    serve::write_frame(probe, "{\"junk\":true}");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  timeval timeout{3, 0};
  ASSERT_EQ(
      ::setsockopt(probe, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout),
      0);
  std::string payload;
  bool answered = false;
  try {
    answered = serve::read_frame(probe, 1 << 20, &payload);
  } catch (const serve::WireError& e) {
    ADD_FAILURE() << "no answer within 3 s once descriptors were free: "
                  << e.what();
  }
  ::close(probe);
  ::close(idle);
  ASSERT_TRUE(answered);
  EXPECT_FALSE(serve::parse_campaign_response(payload).ok);
}

}  // namespace
