#include "storage/io_executor.h"

#include <utility>

namespace dcape {

IoExecutor::IoExecutor() : worker_([this] { WorkerLoop(); }) {}

IoExecutor::~IoExecutor() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyOne();
  worker_.join();
}

void IoExecutor::Submit(std::function<void()> job) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(job));
  }
  work_cv_.NotifyOne();
}

void IoExecutor::WorkerLoop() {
  mu_.Lock();
  while (true) {
    while (!stop_ && queue_.empty()) work_cv_.Wait(mu_);
    // Finish queued work even when stopping: the destructor's contract
    // is run-then-join, so a queued job is never dropped. An empty queue
    // here therefore means stop.
    if (queue_.empty()) break;
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    mu_.Unlock();
    job();
    mu_.Lock();
  }
  mu_.Unlock();
}

}  // namespace dcape
