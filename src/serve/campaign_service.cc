#include "serve/campaign_service.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <utility>

#include "support/metrics.h"

namespace serve {

namespace {

/// Heartbeat lines ride the same switch as every other progress output: the
/// daemon run with `--progress` narrates each job on stderr.
void heartbeat(uint64_t seq, const std::string& what) {
  if (!support::ProgressMeter::enabled()) return;
  std::fprintf(stderr, "serve: job %llu %s\n",
               static_cast<unsigned long long>(seq), what.c_str());
}

}  // namespace

CampaignService::CampaignService(ServiceConfig config)
    : config_(std::move(config)) {}

CampaignService::~CampaignService() { stop(); }

void CampaignService::start() {
  listener_ = Listener::bind_and_listen(config_.listen_target);
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
  executor_ = std::thread([this] { execute_loop(); });
}

void CampaignService::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  listener_.shutdown();  // the acceptor's accept fails and it sees stopping_
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close_listener();
  // The acceptor is down, so connections_ can no longer change.
  for (Connection& c : connections_) c.thread.join();
  connections_.clear();
  if (executor_.joinable()) executor_.join();
  started_ = false;
}

bool CampaignService::stopping() {
  std::lock_guard<std::mutex> lock(mu_);
  return stopping_;
}

void CampaignService::accept_loop() {
  for (;;) {
    int fd = listener_.accept_connection();
    if (fd < 0) {
      const int err = errno;
      if (stopping() || err == EBADF || err == EINVAL || err == ENOTSOCK) {
        return;
      }
      // Out of descriptors (EMFILE, ENFILE), an aborted handshake, ...: the
      // connection waits in the backlog until a retry can take it.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (stopping()) {
      ::close(fd);
      return;
    }
    // Reap the readers that have finished: each one still holds its stack
    // until it is joined.
    std::erase_if(connections_, [](Connection& c) {
      if (!c.done) return false;
      c.thread.join();
      return true;
    });
    Connection& conn = connections_.emplace_back();
    conn.thread = std::thread([this, fd, &conn] {
      handle_connection(fd);
      conn.done = true;
    });
  }
}

void CampaignService::handle_connection(int fd) {
  CampaignResponse error_response;
  try {
    std::string payload;
    if (!read_frame(fd, config_.max_request_bytes, &payload)) {
      ::close(fd);  // peer hung up without sending a request
      return;
    }
    Job job;
    job.request = parse_campaign_request(payload);
    job.fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        error_response.error = "service is shutting down";
      } else if (queue_.size() >= config_.queue_limit) {
        error_response.error =
            "queue full (" + std::to_string(config_.queue_limit) +
            " jobs) — retry later";
      } else {
        job.seq = ++next_seq_;
        queue_.push_back(std::move(job));
        support::Metrics::add_service_job_queued();
        heartbeat(queue_.back().seq, "queued (depth " +
                                         std::to_string(queue_.size()) + ")");
        queue_cv_.notify_one();
        return;  // the executor owns fd now
      }
    }
  } catch (const std::exception& e) {
    error_response.error = e.what();
  }
  error_response.ok = false;
  respond(fd, error_response);
}

void CampaignService::execute_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
      if (stopping_) {
        // Fail fast instead of running a campaign nobody will wait for.
        lock.unlock();
        CampaignResponse resp;
        resp.error = "service is shutting down";
        respond(job.fd, resp);
        continue;
      }
    }
    execute_job(job);
  }
}

void CampaignService::execute_job(Job& job) {
  CampaignResponse resp;
  try {
    resp = run_or_replay(job.request, job.seq);
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
    heartbeat(job.seq, std::string("failed: ") + e.what());
  }
  respond(job.fd, resp);
}

CampaignResponse CampaignService::run_or_replay(const CampaignRequest& request,
                                                uint64_t seq) {
  CampaignResponse resp;
  resp.fingerprint = eval::campaign_spec_fingerprint(request.spec);
  if (request.use_cache) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(resp.fingerprint);
    if (it != cache_.end()) {
      support::Metrics::add_service_cache_hit();
      heartbeat(seq, "cache hit " + resp.fingerprint);
      resp.ok = true;
      resp.cache_hit = true;
      resp.report = it->second;
      return resp;
    }
  }

  DispatcherConfig dispatch = config_.dispatch;
  if (request.workers != 0) dispatch.workers = request.workers;
  dispatch.kill_shard = request.kill_shard;
  dispatch.job_tag = "job" + std::to_string(seq);
  heartbeat(seq, "dispatching " + resp.fingerprint + " (" +
                     eval::campaign_kind_name(request.spec.kind) +
                     ", device " + request.spec.device + ", " +
                     std::to_string(dispatch.workers) + " worker(s))");
  support::Metrics::add_service_job_dispatched();

  DispatchOutcome outcome = dispatch_campaign(request.spec, dispatch);
  support::Metrics::add_service_workers_spawned(outcome.workers_spawned);
  support::Metrics::add_service_worker_retries(outcome.worker_retries);
  heartbeat(seq, "done (" + std::to_string(outcome.workers_spawned) +
                     " worker(s), " + std::to_string(outcome.worker_retries) +
                     " retried)");

  resp.ok = true;
  resp.workers_spawned = outcome.workers_spawned;
  resp.worker_retries = outcome.worker_retries;
  resp.report = outcome.report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cache_.emplace(resp.fingerprint, resp.report).second) {
      cache_order_.push_back(resp.fingerprint);
      while (cache_order_.size() > config_.cache_capacity) {
        cache_.erase(cache_order_.front());
        cache_order_.pop_front();
      }
    }
  }
  return resp;
}

void CampaignService::respond(int fd, const CampaignResponse& response) {
  try {
    write_frame(fd, serialize_campaign_response(response));
  } catch (const WireError&) {
    // The client hung up before the answer; the result is cached anyway.
  }
  ::close(fd);
}

}  // namespace serve
