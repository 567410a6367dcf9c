#ifndef DCAPE_SIM_SCENARIO_H_
#define DCAPE_SIM_SCENARIO_H_

#include <cstdint>
#include <string>

#include "runtime/cluster_config.h"
#include "sim/fault_plan.h"

namespace dcape {
namespace sim {

/// One randomly generated chaos trial: a cluster/workload/strategy
/// configuration plus the fault mix to throw at it. A Scenario is a pure
/// function of the seed, so printing the seed is all a failing trial
/// needs for bit-identical replay.
struct Scenario {
  ClusterConfig config;
  FaultSpec faults;
  /// Human-readable `--flag=value` rendering of the sampled choices,
  /// printed when a trial fails (the config itself replays from seed).
  std::string flags;
};

/// Samples a scenario from `seed`. Every knob the strategies react to is
/// in play: cluster size, strategy, segment format per engine, spill /
/// relocation thresholds and timers, skewed and fluctuating workloads,
/// window semantics, online restore, and the cleanup's worker threads
/// (which the block-read faults exercise). Fault classes are enabled
/// independently.
Scenario GenerateScenario(uint64_t seed);

}  // namespace sim
}  // namespace dcape

#endif  // DCAPE_SIM_SCENARIO_H_
