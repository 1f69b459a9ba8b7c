// The `mutation_hunt --serve` daemon: accepts campaign requests over a
// stream socket (serve/wire.h frames), queues them on a bounded FIFO, and
// executes them one at a time — each job fanning out to shard worker
// subprocesses through serve/dispatcher.h, or answered straight from the
// fingerprint-keyed result cache.
//
// Threading: one acceptor thread blocks in accept; each connection gets a
// short-lived reader thread that parses the request, enqueues {request, fd}
// and exits (a malformed or oversized request is answered with an error
// response right there — the daemon never dies on bad input). A failed
// accept, say for lack of descriptors, is retried after ~10 ms; only stop()
// ends the acceptor, by shutting the socket down, and it closes the socket
// once the acceptor has joined. The acceptor joins finished readers before
// it starts the next one, so the daemon holds a thread per open connection,
// not per connection ever accepted; one executor thread drains the queue in
// order and owns writing every response. Serial execution is deliberate: one
// campaign already saturates the machine with its shard workers, so
// concurrency lives inside a job, not across jobs.
//
// Caching: results are keyed by eval::campaign_spec_fingerprint — the same
// config fingerprint the shard artifacts pin — so a cache hit is provably
// the byte-identical report and costs zero mutant boots. Dispatch knobs
// (workers, kill_shard, cache bypass) are not part of the key; they cannot
// change the report. The cache is bounded with FIFO eviction, and every
// computed result populates it even when the request bypassed lookup.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "serve/dispatcher.h"
#include "serve/wire.h"

namespace serve {

struct ServiceConfig {
  /// Endpoint to listen on (wire.h grammar: bare port or unix socket path;
  /// port "0" binds ephemeral and endpoint() reports the actual port).
  std::string listen_target;
  /// Worker fan-out defaults; a request's non-zero `workers` overrides the
  /// shard count, its `kill_shard` is passed through per job.
  DispatcherConfig dispatch;
  /// Jobs admitted to the FIFO at once; further requests are answered with
  /// an error response instead of queueing.
  size_t queue_limit = 16;
  /// Request-frame payload cap handed to read_frame.
  size_t max_request_bytes = 1 << 20;
  /// Cached reports kept (FIFO eviction).
  size_t cache_capacity = 64;
};

/// The daemon. start() binds and launches the threads; stop() is graceful —
/// in-flight work finishes, queued-but-unstarted jobs are answered with a
/// shutdown error. Destruction stops implicitly.
class CampaignService {
 public:
  explicit CampaignService(ServiceConfig config);
  ~CampaignService();
  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Binds the listener and starts serving. Throws WireError when the
  /// endpoint cannot be bound.
  void start();

  /// Stops accepting, drains the current job, fails the rest, joins every
  /// thread. Idempotent.
  void stop();

  /// The endpoint clients should dial (actual port for a "0" bind).
  [[nodiscard]] const std::string& endpoint() const {
    return listener_.endpoint();
  }

 private:
  struct Job {
    CampaignRequest request;
    int fd = -1;
    uint64_t seq = 0;
  };

  /// A connection's reader thread. `done` is its last act, so a reader
  /// whose flag is set can be joined without waiting on a request.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  [[nodiscard]] bool stopping();
  void accept_loop();
  void handle_connection(int fd);
  void execute_loop();
  void execute_job(Job& job);
  [[nodiscard]] CampaignResponse run_or_replay(const CampaignRequest& request,
                                               uint64_t seq);
  void respond(int fd, const CampaignResponse& response);

  ServiceConfig config_;
  Listener listener_;
  std::thread acceptor_;
  std::thread executor_;
  /// Touched only by the acceptor, then by stop() once it has joined it.
  std::list<Connection> connections_;

  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  bool started_ = false;
  uint64_t next_seq_ = 0;

  /// fingerprint -> rendered report, insertion-ordered for FIFO eviction.
  std::unordered_map<std::string, std::string> cache_;
  std::deque<std::string> cache_order_;
};

}  // namespace serve
