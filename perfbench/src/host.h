#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace perfbench {

/// Peak resident set size of this process so far, in bytes.
int64_t PeakRssBytes();

/// Samples the CPU time of this process's threads from
/// /proc/self/task while it is alive, so threads that a driver starts
/// and joins inside one call can still be accounted after they exit.
class ThreadCpuMonitor {
 public:
  /// Starts sampling every `period_ms`; threads alive now (the caller
  /// and the sampler itself) are excluded from the results.
  explicit ThreadCpuMonitor(int period_ms);
  ~ThreadCpuMonitor();

  ThreadCpuMonitor(const ThreadCpuMonitor&) = delete;
  ThreadCpuMonitor& operator=(const ThreadCpuMonitor&) = delete;

  /// Stops sampling (idempotent).
  void Stop();

  /// CPU seconds of each thread started after construction, in start
  /// order (thread ids ascend with creation). Call after Stop().
  std::vector<double> NewThreadCpuSeconds() const;

 private:
  void Sample();

  const int period_ms_;
  /// Threads to leave out; written by the constructor, then read and
  /// extended (with its own id) only by the sampler.
  std::set<int> preexisting_;
  mutable dcape::Mutex mu_;
  /// Latest cumulative CPU ticks per thread id.
  std::map<int, int64_t> cpu_ticks_ GUARDED_BY(mu_);
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
