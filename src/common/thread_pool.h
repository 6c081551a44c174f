// Copyright (c) 2026 The db2graph-repro Authors.
//
// A small fixed-size thread pool for intra-query fan-out. The unit of
// work is a *batch* of independent index-addressed tasks: RunBatch(n, fn)
// runs fn(0..n-1) and returns when all calls finished. The calling thread
// always participates in its own batch, so RunBatch never deadlocks even
// when every pool worker is busy (or when a task itself calls RunBatch):
// a waiting caller is also a worker for its batch.
//
// Every intra-query parallel path runs on it, and only at a query dop
// above 1: the SQL engine's morsel rounds (DESIGN.md §14), and the Graph
// Structure module's multi-table fan-out (DESIGN.md §7), where a lookup
// submits min(tables, dop) tasks that each run every dop-th per-table
// statement.

#ifndef DB2GRAPH_COMMON_THREAD_POOL_H_
#define DB2GRAPH_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace db2graph {

class ThreadPool {
 public:
  /// Starts `workers` threads (clamped to at least 1).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool shared by all graph providers. Sized from
  /// std::thread::hardware_concurrency(), overridable with the
  /// DB2G_POOL_WORKERS environment variable (read once).
  static ThreadPool& Shared();

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(0), ..., fn(n-1), possibly in parallel, and returns when all
  /// calls have completed. The caller participates, so worst case (pool
  /// saturated) this degrades to a serial loop on the calling thread.
  /// `fn` must be safe to invoke concurrently from multiple threads.
  void RunBatch(size_t n, const std::function<void(size_t)>& fn);

 private:
  // One fan-out request. Workers and the submitting caller race to claim
  // task indexes from `next`; the last finisher signals `cv`.
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t total = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
  };

  static void DrainBatch(const std::shared_ptr<Batch>& batch);
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace db2graph

#endif  // DB2GRAPH_COMMON_THREAD_POOL_H_
