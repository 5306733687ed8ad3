#include "apl/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "apl/config.hpp"
#include "apl/error.hpp"
#include "apl/scope.hpp"

namespace apl {

namespace {

// How long a team member that has run out of work keeps polling before it
// blocks on a condition variable: a worker waiting for the next dispatch,
// and the caller waiting at the barrier. Blocking costs a futex wake-up,
// about 19 us per dispatch on a 4-vCPU KVM guest. On distributed
// CloverLeaf (512^2 on 4 mpisim ranks, threads backend) the gap from one
// team dispatch to the next measured p50 8.5 us, p75 51 us, p90 81 us and
// p99 242 us there; iteration time fell as the window grew to 100 us and
// stayed flat at 200, 500 and 1000 us. So 100 us catches about nine
// dispatches in ten and bounds what a member burns after a phase's last
// loop (DESIGN.md §6).
constexpr std::chrono::microseconds kSpinWindow{100};

void cpu_relax() {
#if defined(__x86_64__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Polls `ready` for at most kSpinWindow; true once it holds, false when
/// the window closed first (the caller then blocks).
template <class Ready>
bool spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  // Never drop accepted tasks silently: finish them, then stop the team.
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_team(const std::function<void(std::size_t)>& body) {
  if (workers_.empty()) {
    body(0);
    return;
  }
  // Captured on the submitting thread, installed on every worker: the
  // team must observe the caller's cancel/fault/policy/plan-cache/trace
  // scopes, not the workers' (empty) thread-locals. The snapshot lives on
  // this stack frame, which outlives the barrier by construction.
  const scope::Snapshot snapshot = scope::Snapshot::capture();
  // One team at a time: a second caller (another job on the threads
  // backend) waits here instead of clobbering the broadcast state.
  std::lock_guard<std::mutex> team_lease(team_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &body;
    team_snapshot_ = &snapshot;
    team_error_ = nullptr;
    remaining_.store(workers_.size(), std::memory_order_relaxed);
    // The release publishes job_, team_snapshot_ and remaining_ to the
    // members that spin on generation_ without taking the mutex.
    generation_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();  // no system call when every worker is spinning
  try {
    body(0);  // member 0 already runs under the caller's scopes
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (team_error_ == nullptr) team_error_ = std::current_exception();
  }
  const auto done = [this] {
    return remaining_.load(std::memory_order_acquire) == 0;
  };
  if (!spin_until(done)) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, done);
  }
  // Every member's last access to the broadcast state happened before its
  // decrement, so past the barrier the caller owns it again.
  job_ = nullptr;
  team_snapshot_ = nullptr;
  // Propagate the first failure (any member, including member 0) on the
  // calling thread — only after the barrier, so no member is still
  // running the body when the caller unwinds.
  if (team_error_ != nullptr) {
    std::rethrow_exception(std::exchange(team_error_, nullptr));
  }
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t team = size();
  if (n == 0) return;
  if (n == 1 || team == 1) {
    // One chunk: member 0 would get all of [0, n) and every other member
    // an empty range, so run it here. Same partition and tid as the team
    // (per-member reduction slots, hence results, stay bit-for-bit), none
    // of the snapshot, lease, wake-up and barrier.
    body(0, n, 0);
    return;
  }
  run_team([&](std::size_t tid) {
    const std::size_t chunk = (n + team - 1) / team;
    const std::size_t begin = std::min(n, tid * chunk);
    const std::size_t end = std::min(n, begin + chunk);
    if (begin < end) body(begin, end, tid);
  });
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (drained_ || stop_.load(std::memory_order_relaxed)) {
      throw Drained(
          "ThreadPool: drained — newly submitted work is rejected, not "
          "silently dropped");
    }
    if (!workers_.empty()) {
      tasks_.push_back(std::move(task));
      queued_.store(tasks_.size(), std::memory_order_relaxed);
      start_cv_.notify_one();
      return;
    }
    // No background workers (a 1-thread pool on a 1-core host): degrade
    // to inline execution on the calling thread instead of rejecting the
    // work. Accounted as a running task so tasks_pending() and drain()
    // keep their meaning for concurrent observers.
    ++tasks_running_;
  }
  struct Finish {
    ThreadPool* pool;
    ~Finish() {
      std::lock_guard<std::mutex> lock(pool->mutex_);
      if (--pool->tasks_running_ == 0 && pool->tasks_.empty()) {
        pool->drain_cv_.notify_all();
      }
    }
  } finish{this};  // decrements even if the task throws
  task();
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_ = true;
  drain_cv_.wait(lock,
                 [this] { return tasks_.empty() && tasks_running_ == 0; });
}

bool ThreadPool::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return drained_;
}

std::size_t ThreadPool::tasks_pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_.size() + tasks_running_;
}

void ThreadPool::worker_loop(std::size_t id) {
  std::size_t seen_generation = 0;
  // Something to do: a new team generation, a queued task or stop.
  const auto ready = [&] {
    return generation_.load(std::memory_order_acquire) != seen_generation ||
           queued_.load(std::memory_order_relaxed) != 0 ||
           stop_.load(std::memory_order_relaxed);
  };
  for (;;) {
    if (!spin_until(ready)) {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, ready);
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    const std::size_t generation = generation_.load(std::memory_order_acquire);
    if (generation != seen_generation) {
      // Team work first: the whole team barriers on it. The acquire above
      // makes job_ and team_snapshot_ readable without the mutex.
      seen_generation = generation;
      try {
        // The submitting thread's scopes, for exactly the body's duration
        // (uninstalled before the barrier count drops, so the caller can
        // never observe remaining_ == 0 with a scope still installed).
        scope::Snapshot::Install install(*team_snapshot_);
        (*job_)(id);
      } catch (...) {
        // A throwing body must not unwind into std::thread (that would
        // std::terminate); park the first exception for the caller.
        std::lock_guard<std::mutex> lock(mutex_);
        if (team_error_ == nullptr) team_error_ = std::current_exception();
      }
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Under the mutex: a caller between its predicate check and its
        // wait cannot miss this notification.
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
      continue;
    }
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (tasks_.empty()) continue;  // another worker took it
      task = std::move(tasks_.front());
      tasks_.pop_front();
      queued_.store(tasks_.size(), std::memory_order_relaxed);
      ++tasks_running_;
    }
    task();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--tasks_running_ == 0 && tasks_.empty()) drain_cv_.notify_all();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const auto n = apl::config::int_value("OPAL_NUM_THREADS")) {
      require(*n >= 1, "OPAL_NUM_THREADS must be >= 1, got ", *n);
      return static_cast<std::size_t>(*n);
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace apl
