#include "runtime/runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/assert.hpp"
#include "common/parse_number.hpp"

namespace lifting::runtime {

RunDigest RunDigest::of(Experiment& ex) {
  RunDigest d;
  d.events = ex.simulator().events_processed();
  const auto& net = ex.network_stats();
  d.datagrams_sent = net.datagrams_sent;
  d.datagrams_lost = net.datagrams_lost;
  d.datagrams_dropped = net.datagrams_dropped;
  d.datagrams_delivered = net.datagrams_delivered;
  d.bytes_sent = net.bytes_sent;
  d.bytes_delivered = net.bytes_delivered;
  d.blame_emissions = ex.ledger().emissions();
  d.joins = ex.joins().size();
  d.departures = ex.departures().size();
  const auto& faults = ex.fault_stats();
  d.faults_dropped = faults.dropped();
  d.faults_duplicated = faults.duplicated;
  d.faults_delayed = faults.delayed + faults.reordered;
  if (ex.has_agents()) {
    const auto audit = ex.audit_channel_totals();
    d.audit_retries = audit.retries;
    d.audit_give_ups = audit.give_ups;
    d.audit_dups_suppressed = audit.dups_suppressed;
  }
  if (ex.has_agents()) {
    const auto snap = ex.snapshot_scores();
    d.honest_scored = snap.honest.size();
    d.freeriders_scored = snap.freeriders.size();
    for (const double s : snap.honest) d.honest_score_sum += s;
    for (const double s : snap.freeriders) d.freerider_score_sum += s;
  }
  return d;
}

void RunDigest::accumulate(const RunDigest& other) noexcept {
  events += other.events;
  datagrams_sent += other.datagrams_sent;
  datagrams_lost += other.datagrams_lost;
  datagrams_dropped += other.datagrams_dropped;
  datagrams_delivered += other.datagrams_delivered;
  bytes_sent += other.bytes_sent;
  bytes_delivered += other.bytes_delivered;
  blame_emissions += other.blame_emissions;
  joins += other.joins;
  departures += other.departures;
  faults_dropped += other.faults_dropped;
  faults_duplicated += other.faults_duplicated;
  faults_delayed += other.faults_delayed;
  audit_retries += other.audit_retries;
  audit_give_ups += other.audit_give_ups;
  audit_dups_suppressed += other.audit_dups_suppressed;
  honest_scored += other.honest_scored;
  freeriders_scored += other.freeriders_scored;
  honest_score_sum += other.honest_score_sum;
  freerider_score_sum += other.freerider_score_sum;
}

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(resolve_threads(threads)) {
  workers_.reserve(threads_ - 1);
  for (unsigned w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ParallelRunner::~ParallelRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

void ParallelRunner::drain_batch(unsigned worker_index) {
  for (;;) {
    const std::size_t i = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_count_) return;
    try {
      (*job_)(i, worker_index);
    } catch (...) {
      // Remember the lowest-index failure; the batch keeps draining so
      // result slots of unrelated tasks still fill.
      std::lock_guard<std::mutex> lock(error_mu_);
      if (first_error_ == nullptr || i < first_error_task_) {
        first_error_ = std::current_exception();
        first_error_task_ = i;
      }
    }
  }
}

void ParallelRunner::worker_loop(unsigned worker_index) {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_start_.wait(lock, [&] {
      return shutdown_ || generation_ != seen_generation;
    });
    if (shutdown_) return;
    seen_generation = generation_;
    lock.unlock();
    drain_batch(worker_index);
    lock.lock();
    if (--active_workers_ == 0) cv_done_.notify_all();
  }
}

void ParallelRunner::for_each(
    std::size_t count, const std::function<void(std::size_t, unsigned)>& fn) {
  if (count == 0) return;
  LIFTING_ASSERT(job_ == nullptr,
                 "ParallelRunner::for_each is not reentrant — tasks must "
                 "not call back into the runner that executes them");
  first_error_ = nullptr;
  if (threads_ == 1) {
    // Serial lane: run inline on the caller, no synchronization. This is
    // the reference execution the parallel runs must match bit for bit.
    job_ = &fn;
    job_count_ = count;
    next_task_.store(0, std::memory_order_relaxed);
    drain_batch(0);
    job_ = nullptr;
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &fn;
      job_count_ = count;
      next_task_.store(0, std::memory_order_relaxed);
      active_workers_ = threads_ - 1;
      ++generation_;
    }
    cv_start_.notify_all();
    drain_batch(0);  // the caller is worker 0
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return active_workers_ == 0; });
    job_ = nullptr;
  }
  if (first_error_ != nullptr) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

std::vector<RunDigest> ParallelRunner::run_digests(
    const std::vector<RunSpec>& specs) {
  return run_specs<RunDigest>(specs,
                              [](const RunSpec& /*spec*/, Experiment& ex) {
                                ex.run();
                                return RunDigest::of(ex);
                              });
}

unsigned ParallelRunner::resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("LIFTING_THREADS")) {
    unsigned v = 0;
    if (parse_number(std::string_view(env), v) && v >= 1 && v <= 4096) {
      return v;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::uint32_t parse_flag(int argc, const char* const* argv, const char* name,
                         std::uint32_t lo, std::uint32_t hi,
                         std::uint32_t fallback) {
  const std::size_t name_len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, name) == 0) {
      // A trailing flag with no value must not silently become the
      // default either.
      value = i + 1 < argc ? argv[i + 1] : "";
    } else if (std::strncmp(arg, name, name_len) == 0 &&
               arg[name_len] == '=') {
      value = arg + name_len + 1;
    }
    if (value != nullptr) {
      std::uint32_t v = 0;
      if (parse_number(std::string_view(value), v) && v >= lo && v <= hi) {
        return v;
      }
      std::fprintf(stderr, "%s: '%s' is not an integer in [%u, %u]\n", name,
                   value, lo, hi);
      std::exit(2);
    }
  }
  return fallback;
}

unsigned ParallelRunner::threads_from_args(int argc, const char* const* argv) {
  // Fallback 0 = "no cap given": resolve via env/hardware policy.
  const std::uint32_t v = parse_flag(argc, argv, "--threads", 1, 4096, 0);
  return v == 0 ? resolve_threads(0) : static_cast<unsigned>(v);
}

}  // namespace lifting::runtime
