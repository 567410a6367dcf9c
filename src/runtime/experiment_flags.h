#ifndef DCAPE_RUNTIME_EXPERIMENT_FLAGS_H_
#define DCAPE_RUNTIME_EXPERIMENT_FLAGS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "rt/spsc_transport.h"
#include "runtime/cluster_config.h"

namespace dcape {

/// A parsed command line for the `dcape_run` experiment driver.
struct ExperimentOptions {
  ClusterConfig cluster;
  /// Write throughput + per-engine memory series to this CSV file.
  std::string csv_path;
  /// Record the generated input to this trace file.
  std::string record_trace_path;
  /// Replay input from this trace file instead of generating.
  std::string replay_trace_path;
  /// Write the structured adaptation trace as Chrome trace_event JSON
  /// (implies cluster.trace).
  std::string trace_out_path;
  /// Extra report to print after the summary ("timeline" renders the
  /// adaptation timeline from the structured trace; implies
  /// cluster.trace).
  std::string report;
  /// Narrate adaptations (kInfo logging).
  bool verbose = false;
  /// Print the throughput/memory tables (summary always prints).
  bool tables = true;

  /// Run on the free-running realtime driver (rt::RealtimeDriver): one
  /// real thread per node, SPSC links, wall-clock timers. Incompatible
  /// with the simulator-only flags (--threads, --duration-min,
  /// --window-sec, --trace-out, --report); see docs/REALTIME.md.
  bool realtime = false;
  /// Wall-clock seconds of the generation phase (--duration-sec).
  int rt_duration_sec = 5;
  /// Target input rate in tuples/sec; 0 = free-run (--rate).
  int64_t rt_rate = 0;
  /// After the realtime run, replay the same input on the deterministic
  /// simulator and require identical final output (--check-oracle).
  bool rt_check_oracle = false;
  /// SPSC ring capacity per link, in messages (--rt-queue-capacity).
  size_t rt_queue_capacity = rt::kDefaultLinkCapacity;
};

/// Parses `--key=value` flags into an ExperimentOptions. Unknown flags,
/// malformed values, and out-of-range settings yield InvalidArgument
/// with a human-readable message. `args` excludes argv[0].
///
/// Supported flags (defaults in brackets):
///   --strategy=all-mem|spill-only|relocation-only|lazy-disk|active-disk
///   --engines=N [2]           --split-hosts=N [1]
///   --threads=N [1]           (cleanup workers; results identical)
///   --streams=N [3]           --partitions=N [60]
///   --duration-min=N [10]     --inter-arrival-ms=N [10]
///   --join-rate=F [3]         --tuple-range=N [180000]
///   --payload-bytes=N [64]    --seed=N [42]
///   --placement=F,F,...       (initial partition shares per engine)
///   --threshold-kib=N [24576] (per-engine spill threshold)
///   --spill-fraction=F [0.3]
///   --spill-policy=push-less-productive|push-more-productive|
///                  push-largest|push-smallest|push-random
///   --theta=F [0.8]           --tau-sec=N [45]
///   --relocation-model=pairwise|global-rebalance
///   --lambda=F [2]            --productivity=cumulative|ewma
///   --ewma-alpha=F [0.5]      --restore (enable online restore)
///   --fluctuation             --phase-min=N [5]  --hot-mult=F [10]
///   --segment-format=v1|v2 [v2]  --file-backend
///   --csv=PATH  --record-trace=PATH  --replay-trace=PATH
///   --trace (structured adaptation trace)  --trace-verbose
///   --trace-out=PATH (Chrome trace_event JSON; implies --trace)
///   --report=timeline (adaptation timeline; implies --trace)
///   --quiet (no tables)       --verbose (narrate adaptations)
///   --realtime                (wall-clock driver; see docs/REALTIME.md)
///   --duration-sec=N [5]      --rate=N [0 = free-run]
///   --check-oracle
///   --rt-queue-capacity=N [rt::kDefaultLinkCapacity]
[[nodiscard]] StatusOr<ExperimentOptions> ParseExperimentFlags(
    const std::vector<std::string>& args);

/// The flag reference shown by `dcape_run --help`.
std::string ExperimentFlagsHelp();

}  // namespace dcape

#endif  // DCAPE_RUNTIME_EXPERIMENT_FLAGS_H_
