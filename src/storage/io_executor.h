#ifndef DCAPE_STORAGE_IO_EXECUTOR_H_
#define DCAPE_STORAGE_IO_EXECUTOR_H_

#include <deque>
#include <functional>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dcape {

/// A single background thread that drains a FIFO queue of disk jobs.
///
/// The streaming cleanup's block fetchers (cleanup/block_reader.h) use
/// it to prefetch segment blocks while the merge decodes earlier ones.
/// Jobs run in submission order (FIFO, one worker) and report their own
/// outcome; the executor keeps no result.
class IoExecutor {
 public:
  IoExecutor();
  /// Runs every queued job, then joins the worker.
  ~IoExecutor();

  IoExecutor(const IoExecutor&) = delete;
  IoExecutor& operator=(const IoExecutor&) = delete;

  /// Enqueues `job` for the background thread. Never blocks (the queue
  /// is unbounded).
  void Submit(std::function<void()> job) EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_cv_;  // signalled on submit / stop
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread worker_;
};

}  // namespace dcape

#endif  // DCAPE_STORAGE_IO_EXECUTOR_H_
