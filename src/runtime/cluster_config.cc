#include "runtime/cluster_config.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/ids.h"
#include "stream/stream_generator.h"
#include "stream/trace.h"

namespace dcape {

std::vector<EngineId> ComputePlacement(int num_partitions, int num_engines,
                                       const std::vector<double>& fractions) {
  DCAPE_CHECK_GT(num_partitions, 0);
  DCAPE_CHECK_GT(num_engines, 0);
  std::vector<double> shares = fractions;
  if (shares.empty()) {
    shares.assign(static_cast<size_t>(num_engines),
                  1.0 / static_cast<double>(num_engines));
  }
  DCAPE_CHECK_EQ(shares.size(), static_cast<size_t>(num_engines));

  // Cumulative boundaries, rounding each prefix so the blocks partition
  // the id space exactly.
  std::vector<EngineId> placement(static_cast<size_t>(num_partitions), 0);
  double cumulative = 0.0;
  int start = 0;
  for (int e = 0; e < num_engines; ++e) {
    cumulative += shares[static_cast<size_t>(e)];
    int end = (e == num_engines - 1)
                  ? num_partitions
                  : static_cast<int>(std::llround(cumulative *
                                                  num_partitions));
    end = std::min(end, num_partitions);
    for (int p = start; p < end; ++p) {
      placement[static_cast<size_t>(p)] = e;
    }
    start = std::max(start, end);
  }
  return placement;
}

std::vector<PartitionId> PartitionsOfEngine(
    const std::vector<EngineId>& placement, EngineId engine) {
  std::vector<PartitionId> ids;
  for (size_t p = 0; p < placement.size(); ++p) {
    if (placement[p] == engine) ids.push_back(static_cast<PartitionId>(p));
  }
  return ids;
}

ClusterConfig::Builder& ClusterConfig::Builder::MarkSet(
    std::string_view flag) {
  if (!IsSet(flag)) set_flags_.emplace_back(flag);
  return *this;
}

bool ClusterConfig::Builder::IsSet(std::string_view flag) const {
  return std::find(set_flags_.begin(), set_flags_.end(), flag) !=
         set_flags_.end();
}

Status ClusterConfig::Builder::Validate() const {
  const ClusterConfig& c = config_;
  // Unconditional range checks (defaults all pass; these catch both CLI
  // values and programmatic construction errors).
  if (c.num_engines < 1 || c.num_engines > 64) {
    return Status::InvalidArgument("--engines must be in [1, 64]");
  }
  if (c.num_split_hosts < 1) {
    return Status::InvalidArgument("--split-hosts must be >= 1");
  }
  if (c.num_threads < 1 || c.num_threads > 256) {
    return Status::InvalidArgument("--threads must be in [1, 256]");
  }
  if (c.workload.num_streams < 2 || c.workload.num_streams > kMaxStreams) {
    return Status::InvalidArgument("--streams must be in [2, " +
                                   std::to_string(kMaxStreams) + "]");
  }
  if (c.workload.num_partitions < 1) {
    return Status::InvalidArgument("--partitions must be >= 1");
  }
  for (const PartitionClass& cls : c.workload.classes) {
    // KeysPerPartition rounds tuple_range / (join_rate * partitions) to
    // the nearest key count, which must stay below the partition's key
    // range (StreamGenerator::kKeyStride). NaN fails every comparison.
    if (!(cls.join_rate > 0) || cls.tuple_range < 1 ||
        !(static_cast<double>(cls.tuple_range) /
              (cls.join_rate * c.workload.num_partitions) <
          static_cast<double>(StreamGenerator::kKeyStride) - 0.5)) {
      return Status::InvalidArgument(
          "--join-rate must be > 0 and --tuple-range >= 1, and "
          "--tuple-range / (--join-rate * --partitions) must be below 2^20 "
          "keys per partition");
    }
  }
  if (c.workload.inter_arrival_ticks < 1) {
    return Status::InvalidArgument("--inter-arrival-ms must be >= 1");
  }
  if (c.workload.payload_bytes < 0) {
    return Status::InvalidArgument("--payload-bytes must be >= 0");
  }
  if (c.run_duration < 1) {
    return Status::InvalidArgument("--duration-min must be >= 1");
  }
  if (c.join_window_ticks < 0) {
    return Status::InvalidArgument("--window-sec must be >= 0");
  }
  if (c.spill.memory_threshold_bytes < 1) {
    return Status::InvalidArgument("--threshold-kib must be >= 1");
  }
  if (!std::isfinite(c.spill.spill_fraction) || c.spill.spill_fraction < 0 ||
      c.spill.spill_fraction > 1) {
    return Status::InvalidArgument(
        "--spill-fraction must be in (0, 1], or 0 / 'adaptive' for "
        "threshold-driven sizing");
  }
  if (c.spill.max_subpartition_depth < 0 ||
      c.spill.max_subpartition_depth > 12) {
    return Status::InvalidArgument(
        "--max-subpartition-depth must be in [0, 12]");
  }
  if (!std::isfinite(c.relocation.theta_r) || c.relocation.theta_r <= 0 ||
      c.relocation.theta_r >= 1) {
    return Status::InvalidArgument("--theta must be in (0, 1)");
  }
  if (c.relocation.min_time_between < 0) {
    return Status::InvalidArgument("--tau-sec must be >= 0");
  }
  if (!std::isfinite(c.active_disk.lambda) || c.active_disk.lambda <= 1) {
    return Status::InvalidArgument("--lambda must be > 1");
  }
  if (!std::isfinite(c.productivity.ewma_alpha) ||
      c.productivity.ewma_alpha <= 0 || c.productivity.ewma_alpha > 1) {
    return Status::InvalidArgument("--ewma-alpha must be in (0, 1]");
  }
  if (!std::isfinite(c.workload.fluctuation.hot_multiplier) ||
      c.workload.fluctuation.hot_multiplier < 1) {
    return Status::InvalidArgument("--hot-mult must be >= 1");
  }
  if (!std::isfinite(c.workload.zipf_s) || c.workload.zipf_s < 0) {
    return Status::InvalidArgument("--zipf-s must be >= 0");
  }
  if (c.workload.zipf_s > 0 && c.workload.fluctuation.enabled) {
    return Status::InvalidArgument(
        "--zipf-s (static skew) is incompatible with --fluctuation "
        "(time-varying skew)");
  }
  if (!c.placement_fractions.empty() &&
      c.placement_fractions.size() != static_cast<size_t>(c.num_engines)) {
    return Status::InvalidArgument(
        "--placement must list one share per engine");
  }
  for (double share : c.placement_fractions) {
    if (!std::isfinite(share) || share < 0) {
      return Status::InvalidArgument(
          "--placement shares must be finite and >= 0");
    }
  }
  if (!c.per_engine_segment_format.empty() &&
      c.per_engine_segment_format.size() !=
          static_cast<size_t>(c.num_engines)) {
    return Status::InvalidArgument(
        "per_engine_segment_format must list one format per engine");
  }
  if (c.replay_trace != nullptr) {
    int trace_streams = 0;
    StatusOr<std::vector<TraceRecord>> records =
        DecodeTrace(*c.replay_trace, &trace_streams);
    if (!records.ok()) {
      return Status::InvalidArgument("--replay-trace is not a valid trace: " +
                                     records.status().message());
    }
    if (trace_streams != c.workload.num_streams) {
      return Status::InvalidArgument(
          "--replay-trace holds " + std::to_string(trace_streams) +
          " streams but --streams is " +
          std::to_string(c.workload.num_streams));
    }
  }
  if (c.trace_verbose && !c.trace) {
    return Status::InvalidArgument("--trace-verbose requires --trace");
  }
  if (c.cleanup.block_bytes < 1024 ||
      c.cleanup.block_bytes > 16384 * 1024) {
    return Status::InvalidArgument(
        "--cleanup-block-kib must be in [1, 16384]");
  }

  // Strategy-consistency checks: spill/relocation tuning knobs are
  // silently inert under a strategy that never consults them; reject the
  // combination instead, naming the offending field — but only when it
  // was set explicitly (defaults are always consistent).
  if (!StrategySpillsLocally(c.strategy)) {
    for (const char* flag :
         {"--restore", "--spill-fraction", "--spill-policy",
          "--max-subpartition-depth"}) {
      if (IsSet(flag)) {
        return Status::InvalidArgument(
            std::string(flag) + " requires a spilling strategy "
            "(--strategy=spill-only|lazy-disk|active-disk), got --strategy=" +
            StrategyName(c.strategy));
      }
    }
  }
  if (!StrategyRelocates(c.strategy)) {
    for (const char* flag : {"--theta", "--tau-sec", "--relocation-model"}) {
      if (IsSet(flag)) {
        return Status::InvalidArgument(
            std::string(flag) + " requires a relocating strategy "
            "(--strategy=relocation-only|lazy-disk|active-disk), got "
            "--strategy=" +
            StrategyName(c.strategy));
      }
    }
  }
  if (c.strategy != AdaptationStrategy::kActiveDisk && IsSet("--lambda")) {
    return Status::InvalidArgument(
        "--lambda requires --strategy=active-disk, got --strategy=" +
        std::string(StrategyName(c.strategy)));
  }
  return Status::OK();
}

StatusOr<ClusterConfig> ClusterConfig::Builder::Build() const {
  DCAPE_RETURN_IF_ERROR(Validate());
  return config_;
}

}  // namespace dcape
