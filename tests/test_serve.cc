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
//    the daemon keeps serving.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
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
  spec.survivor_samples = 3;

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
    std::fputs("#!/bin/sh\nsleep 600\n", f);
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

TEST(CampaignService, InvalidSpecAnsweredWithValidationDiagnostic) {
  LiveService live("invalidspec");
  serve::CampaignRequest req = busmouse_request();
  req.spec.device = "floppy";  // not in any corpus
  serve::CampaignResponse resp = dispatch_to(live.service.endpoint(), req);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("unknown device 'floppy'"), std::string::npos)
      << resp.error;
}

}  // namespace
