#ifndef DCAPE_SIM_FAULTY_BACKEND_H_
#define DCAPE_SIM_FAULTY_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/ids.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sim/fault_plan.h"
#include "storage/disk_backend.h"

namespace dcape {
namespace sim {

/// A DiskBackend decorator that consults a FaultPlan before every
/// operation: reads can fail transiently or come back truncated, writes
/// can fail transiently or latch broken. Removes and listings pass
/// through — the chaos harness targets the data path, and a run never
/// removes a segment it did not successfully read first.
///
/// Thread-safety matches the inner backend's contract: writes, whole
/// reads and removes come from the one thread that steps the simulator,
/// and the plan keys its disk RNG by engine, so the draw order per
/// engine is fixed by the schedule.
class FaultyBackend : public DiskBackend {
 public:
  FaultyBackend(std::unique_ptr<DiskBackend> inner, FaultPlan* plan,
                EngineId engine);

  Status Write(const std::string& name, std::string_view data) override;
  StatusOr<std::string> Read(const std::string& name) override;
  /// Block-granular faults for the streaming cleanup: sampled by the
  /// plan's pure (name, offset, attempt) hash, with the attempt number
  /// tracked per (name, offset) under a mutex — unlike the whole-object
  /// path, ranged reads are called concurrently from the cleanup's
  /// worker lanes.
  StatusOr<std::string> ReadRange(const std::string& name, int64_t offset,
                                  int64_t len) override;
  Status Remove(const std::string& name) override;

 private:
  std::unique_ptr<DiskBackend> inner_;
  FaultPlan* plan_;
  EngineId engine_;
  mutable Mutex block_mu_;
  /// Attempt counter per "name:offset" (fault identity of a retry).
  std::unordered_map<std::string, int> block_attempts_ GUARDED_BY(block_mu_);
};

}  // namespace sim
}  // namespace dcape

#endif  // DCAPE_SIM_FAULTY_BACKEND_H_
