#include "core/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dubhe::core {

namespace {

/// Set inside pool workers — and on the caller while it executes its own
/// shards of a parallel_for — so nested parallel_for calls degrade to
/// inline execution instead of enqueuing work behind the very shards that
/// are blocking the pool (a caller-side nested call would otherwise wait
/// for a worker to free up while every worker runs a long sibling shard).
thread_local bool t_in_worker = false;

/// RAII flag set for the duration of shard execution on the caller.
struct InParallelRegion {
  bool prev;
  InParallelRegion() : prev(t_in_worker) { t_in_worker = true; }
  ~InParallelRegion() { t_in_worker = prev; }
};

}  // namespace

struct ParallelRuntime::Impl {
  std::vector<std::thread> workers;
  std::queue<std::function<void()>> queue;
  std::mutex mu;
  std::condition_variable cv_task;
  bool stop = false;
};

ParallelRuntime& ParallelRuntime::instance() {
  static ParallelRuntime runtime(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  return runtime;
}

ParallelRuntime::ParallelRuntime(std::size_t workers)
    : impl_(new Impl), worker_count_(workers) {
  impl_->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([this] { worker_loop(); });
  }
}

ParallelRuntime::~ParallelRuntime() {
  {
    const std::lock_guard lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_task.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ParallelRuntime::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(impl_->mu);
      impl_->cv_task.wait(lock, [this] { return impl_->stop || !impl_->queue.empty(); });
      if (impl_->stop && impl_->queue.empty()) return;
      task = std::move(impl_->queue.front());
      impl_->queue.pop();
    }
    task();
  }
}

void ParallelRuntime::parallel_for(std::size_t n, std::size_t threads,
                                   const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads == 0) threads = worker_count_;
  // Results are index-deterministic for any shard count, so cap shards at
  // the hands that can actually work concurrently (workers + the caller):
  // oversubscribed shards would only queue behind busy workers while the
  // caller blocks idle.
  const std::size_t shards = std::min({threads, worker_count_ + 1, n});
  if (shards <= 1 || t_in_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Per-call completion state; the pool itself carries no call identity, so
  // concurrent parallel_for calls from different threads interleave safely.
  struct CallState {
    std::mutex mu;
    std::condition_variable cv_done;
    std::size_t pending;
    std::exception_ptr error;
  } state;
  state.pending = shards - 1;

  const auto run_shard = [n, shards, &fn, &state](std::size_t t) {
    const std::size_t begin = t * n / shards;
    const std::size_t end = (t + 1) * n / shards;
    try {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    } catch (...) {
      const std::lock_guard lock(state.mu);
      if (!state.error) state.error = std::current_exception();
    }
  };

  // Enqueue under a try so this frame can never unwind while a queued task
  // still references it: shards that fail to enqueue (allocation failure)
  // are taken off the pending count and run inline below instead — the
  // call still completes every index, so the enqueue failure is fully
  // recovered and intentionally swallowed.
  std::size_t queued = 0;
  {
    const std::lock_guard lock(impl_->mu);
    try {
      for (std::size_t t = 1; t < shards; ++t) {
        impl_->queue.push([&run_shard, &state, t] {
          run_shard(t);
          const std::lock_guard done_lock(state.mu);
          if (--state.pending == 0) state.cv_done.notify_one();
        });
        ++queued;
      }
    } catch (...) {
    }
  }
  impl_->cv_task.notify_all();
  if (queued < shards - 1) {
    const std::lock_guard done_lock(state.mu);
    state.pending -= shards - 1 - queued;
  }

  {
    // The caller's shards count as being inside the parallel region:
    // parallel_for calls nested under them run inline, exactly as they
    // would on a worker.
    const InParallelRegion guard;
    run_shard(0);  // the caller takes the first contiguous block
    for (std::size_t t = queued + 1; t < shards; ++t) run_shard(t);  // unqueued
  }
  {
    std::unique_lock lock(state.mu);
    state.cv_done.wait(lock, [&state] { return state.pending == 0; });
  }
  if (state.error) std::rethrow_exception(state.error);
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  // Serial requests never touch (or lazily spawn) the pool: threads == 1
  // stays a plain loop on the caller.
  if (n <= 1 || threads == 1 || t_in_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ParallelRuntime::instance().parallel_for(n, threads, fn);
}

}  // namespace dubhe::core
