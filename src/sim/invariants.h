#ifndef DCAPE_SIM_INVARIANTS_H_
#define DCAPE_SIM_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dcape {
namespace sim {

/// Collects invariant violations reported by the protocol participants
/// (engines, split hosts, coordinator) during a chaos trial.
///
/// Thread-safe: reports are serialized by the mutex. Consumers sort the
/// collected strings before comparing or printing, so a report's
/// position never matters, only its text.
class InvariantRecorder {
 public:
  void Report(std::string violation) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    violations_.push_back(std::move(violation));
  }

  std::vector<std::string> violations() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return violations_;
  }

  bool empty() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return violations_.empty();
  }

  int64_t count() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return static_cast<int64_t>(violations_.size());
  }

 private:
  mutable Mutex mu_;
  std::vector<std::string> violations_ GUARDED_BY(mu_);
};

}  // namespace sim
}  // namespace dcape

#endif  // DCAPE_SIM_INVARIANTS_H_
