// A small fixed-size worker pool for scenario fan-out (ScenarioSet,
// DESIGN.md §12).
//
// Design constraints:
//   * fixed worker count — the caller decides its parallelism up front
//     (EvalOptions::threads) and the pool never grows or shrinks;
//   * per-worker deques with work stealing — tasks are distributed
//     round-robin at submission, an idle worker steals from the front of
//     a victim's deque, so a skewed partition does not leave cores idle;
//   * cooperative cancellation — cancel() (or the first task exception)
//     discards queued tasks; *running* tasks are expected to poll their
//     ResourceGuard (every charge observes trips/cancellation) and
//     return or throw promptly;
//   * exception transport — the first exception thrown by any task is
//     captured and rethrown from run() on the calling thread.
//
// run() is a barrier: it executes a batch and returns when every task of
// that batch has finished (the caller participates, draining tasks
// itself, so a pool with N workers applies N+1 threads to the batch and
// `threads=1` costs no synchronization at all — callers special-case it
// and never construct a pool).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace faure::util {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `workers` threads (>= 1). The pool applies workers + 1
  /// threads to each run() batch because the caller drains too.
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t workers() const { return workers_.size(); }

  /// Runs `tasks` to completion (barrier). Tasks receive the index of
  /// the executing lane in [0, workers()] — lane workers() is the
  /// calling thread — usable as an index into per-lane scratch (each
  /// lane runs at most one task at a time). If any task throws, queued
  /// tasks of the batch are discarded and the first captured exception
  /// is rethrown here after all running tasks finished.
  void run(std::vector<std::function<void(size_t lane)>> tasks);

  /// Discards tasks still queued in the current batch. Running tasks
  /// keep going; run() still waits for them.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// std::thread::hardware_concurrency with a sane floor of 1.
  static size_t hardwareConcurrency();

 private:
  struct Lane {
    std::mutex mu;
    std::deque<std::function<void(size_t)>> queue;
  };

  bool popOrSteal(size_t lane, std::function<void(size_t)>& task);
  void drain(size_t lane);
  void workerLoop(size_t lane);

  std::vector<std::unique_ptr<Lane>> lanes_;  // one per worker + caller
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // batch lifecycle
  std::condition_variable wake_;   // workers: a batch is available
  std::condition_variable done_;   // caller: batch finished
  uint64_t batch_ = 0;             // generation counter of run() batches
  std::atomic<size_t> pending_{0};  // unfinished tasks of current batch
  std::atomic<bool> cancelled_{false};
  bool stop_ = false;

  std::mutex errorMu_;
  std::exception_ptr firstError_;
};

}  // namespace faure::util
