#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "rt/realtime_driver.h"
#include "runtime/cluster_config.h"

namespace perfbench {

/// Which public driver runs a workload.
enum class Driver { kSimulator, kRealtime };

/// One benchmark workload: the configuration the program receives
/// (generated from the seed and nothing else) and the driver that runs
/// it. README.md says why each workload exists.
struct Workload {
  std::string name;
  Driver driver = Driver::kSimulator;
  dcape::ClusterConfig config;
  /// Wall-clock knobs; used only by Driver::kRealtime.
  dcape::rt::RealtimeOptions realtime;
};

/// rt-saturate's input rate cap in tuples/s, equal to its input size in
/// tuples (one paced second): a run that generates faster than this
/// waits on the schedule and no longer measures saturation.
constexpr int64_t kRtSaturateTuples = 2400000;

/// Builds workload `name` with every random stream seeded from `seed`.
[[nodiscard]] dcape::StatusOr<Workload> MakeWorkload(const std::string& name,
                                                     uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
