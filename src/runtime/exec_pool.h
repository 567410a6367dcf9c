#ifndef DCAPE_RUNTIME_EXEC_POOL_H_
#define DCAPE_RUNTIME_EXEC_POOL_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dcape {

/// A fixed-size worker pool with a fork/join barrier, used to run the
/// cleanup phase's independent partition merges concurrently
/// (CleanupProcessor::Run, sized by `--threads`).
///
/// The pool deliberately has no queues, futures, or task ownership: one
/// ParallelFor call is one barrier. The caller's thread participates in
/// the work, so `num_workers` is the total parallelism (a pool of 1 runs
/// everything inline on the caller and never spawns a thread — the serial
/// mode every run must be bit-identical to).
///
/// Determinism contract: ParallelFor guarantees only that fn(0..n-1) all
/// complete before it returns. Tasks must not share mutable state; the
/// cleanup gives each task one partition's private outcome and folds
/// the outcomes in fixed partition order, so the merged result is
/// independent of how tasks interleave.
class ExecPool {
 public:
  /// A pool with `num_workers` total execution lanes (>= 1). Lane 0 is
  /// the calling thread; `num_workers - 1` background threads are
  /// spawned.
  explicit ExecPool(int num_workers);

  ExecPool(const ExecPool&) = delete;
  ExecPool& operator=(const ExecPool&) = delete;

  ~ExecPool();

  /// Invokes `fn(i)` for every i in [0, n), distributed over the lanes,
  /// and returns once all n invocations completed (the join barrier).
  /// With one lane (or n <= 1) the calls run inline in index order.
  void ParallelFor(int n, const std::function<void(int)>& fn) EXCLUDES(mu_);

  int num_workers() const { return num_workers_; }

 private:
  void WorkerLoop() EXCLUDES(mu_);
  /// Claims and runs task indices until the current batch is exhausted.
  void RunBatch() EXCLUDES(mu_);

  const int num_workers_;
  std::vector<std::thread> threads_;

  Mutex mu_;
  CondVar batch_ready_;
  CondVar batch_done_;
  /// Batch state, all guarded by mu_.
  const std::function<void(int)>* fn_ GUARDED_BY(mu_) = nullptr;
  int batch_size_ GUARDED_BY(mu_) = 0;
  int next_index_ GUARDED_BY(mu_) = 0;
  int remaining_ GUARDED_BY(mu_) = 0;
  int64_t epoch_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
};

}  // namespace dcape

#endif  // DCAPE_RUNTIME_EXEC_POOL_H_
