#include "support/metrics.h"

#include <bit>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace support {

uint64_t monotonic_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Histogram::add(uint64_t value) {
  ++buckets_[static_cast<size_t>(std::bit_width(value))];
  ++count_;
  total_ += value;
}

void Histogram::merge(const Histogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  total_ += other.total_;
}

void Histogram::set_bucket(size_t b, uint64_t n) {
  count_ += n - buckets_[b];
  buckets_[b] = n;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (size_t s = 0; s < kStageCount; ++s) stages[s].merge(other.stages[s]);
  pool_fresh += other.pool_fresh;
  pool_recycled += other.pool_recycled;
  watchdog_trips += other.watchdog_trips;
  worker_records.merge(other.worker_records);
  service_jobs_queued += other.service_jobs_queued;
  service_jobs_dispatched += other.service_jobs_dispatched;
  service_cache_hits += other.service_cache_hits;
  service_workers_spawned += other.service_workers_spawned;
  service_worker_retries += other.service_worker_retries;
}

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kLex: return "lex";
    case Stage::kParse: return "parse";
    case Stage::kTypecheck: return "typecheck";
    case Stage::kLower: return "lower";
    case Stage::kSplice: return "splice";
    case Stage::kBoot: return "boot";
    case Stage::kClassify: return "classify";
    case Stage::kPatch: return "patch";
  }
  return "?";
}

namespace {

// One mutex guards the whole collector: instrumentation points fire at most
// a few times per millisecond-scale mutant cycle, so contention is noise —
// and only when metrics are enabled at all.
std::mutex g_metrics_mu;
MetricsSnapshot g_metrics;

}  // namespace

std::atomic<bool> Metrics::enabled_{false};

void Metrics::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Metrics::record_stage(Stage stage, uint64_t ns) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  g_metrics.stages[static_cast<size_t>(stage)].add(ns);
}

void Metrics::add_pool_fresh(uint64_t n) {
  if (!enabled() || n == 0) return;
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  g_metrics.pool_fresh += n;
}

void Metrics::add_pool_recycled(uint64_t n) {
  if (!enabled() || n == 0) return;
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  g_metrics.pool_recycled += n;
}

void Metrics::add_watchdog_trip() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  ++g_metrics.watchdog_trips;
}

void Metrics::add_worker_records(const std::vector<uint64_t>& shares) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  for (uint64_t s : shares) g_metrics.worker_records.add(s);
}

void Metrics::add_service_job_queued() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  ++g_metrics.service_jobs_queued;
}

void Metrics::add_service_job_dispatched() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  ++g_metrics.service_jobs_dispatched;
}

void Metrics::add_service_cache_hit() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  ++g_metrics.service_cache_hits;
}

void Metrics::add_service_workers_spawned(uint64_t n) {
  if (!enabled() || n == 0) return;
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  g_metrics.service_workers_spawned += n;
}

void Metrics::add_service_worker_retries(uint64_t n) {
  if (!enabled() || n == 0) return;
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  g_metrics.service_worker_retries += n;
}

MetricsSnapshot Metrics::snapshot() {
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  return g_metrics;
}

void Metrics::reset() {
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  g_metrics = MetricsSnapshot{};
}

std::atomic<bool> ProgressMeter::enabled_{false};

void ProgressMeter::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

ProgressMeter::ProgressMeter(std::string label, uint64_t total)
    : label_(std::move(label)),
      total_(total),
      start_ns_(monotonic_ns()),
      last_print_ns_(start_ns_) {}

ProgressMeter::~ProgressMeter() {
  if (!enabled() || total_ == 0) return;
  print_line(done_.load(std::memory_order_relaxed), monotonic_ns());
}

void ProgressMeter::tick(uint64_t n) {
  uint64_t done = done_.fetch_add(n, std::memory_order_relaxed) + n;
  if (!enabled()) return;
  constexpr uint64_t kThrottleNs = 500'000'000;  // >= 500 ms between lines
  uint64_t now = monotonic_ns();
  uint64_t last = last_print_ns_.load(std::memory_order_relaxed);
  if (now - last < kThrottleNs) return;
  if (!last_print_ns_.compare_exchange_strong(last, now,
                                              std::memory_order_relaxed)) {
    return;  // another worker just printed
  }
  print_line(done, now);
}

void ProgressMeter::print_line(uint64_t done, uint64_t now_ns) const {
  double elapsed_s =
      static_cast<double>(now_ns - start_ns_) / 1e9;
  double rate = elapsed_s > 0.0 ? static_cast<double>(done) / elapsed_s : 0.0;
  double eta_s = (rate > 0.0 && done < total_)
                     ? static_cast<double>(total_ - done) / rate
                     : 0.0;
  std::fprintf(stderr, "%s: %llu/%llu records (%.0f records/s, ETA %.0fs)\n",
               label_.c_str(), static_cast<unsigned long long>(done),
               static_cast<unsigned long long>(total_), rate, eta_s);
}

}  // namespace support
