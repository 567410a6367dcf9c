#include "runtime/experiment_flags.h"

#include <cstdlib>
#include <set>
#include <string>
#include <string_view>

#include "core/productivity.h"
#include "core/strategy.h"

namespace dcape {
namespace {

StatusOr<int64_t> ParseInt(std::string_view key, std::string_view value) {
  char* end = nullptr;
  std::string copy(value);
  const int64_t parsed = std::strtoll(copy.c_str(), &end, 10);
  if (end == copy.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag " + std::string(key) +
                                   " expects an integer, got '" + copy + "'");
  }
  return parsed;
}

StatusOr<double> ParseDouble(std::string_view key, std::string_view value) {
  char* end = nullptr;
  std::string copy(value);
  const double parsed = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag " + std::string(key) +
                                   " expects a number, got '" + copy + "'");
  }
  return parsed;
}

StatusOr<std::vector<double>> ParseDoubleList(std::string_view key,
                                              std::string_view value) {
  std::vector<double> values;
  size_t start = 0;
  while (start <= value.size()) {
    const size_t comma = value.find(',', start);
    const std::string_view item =
        value.substr(start, comma == std::string_view::npos
                                ? std::string_view::npos
                                : comma - start);
    DCAPE_ASSIGN_OR_RETURN(double v, ParseDouble(key, item));
    values.push_back(v);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return values;
}

}  // namespace

StatusOr<ExperimentOptions> ParseExperimentFlags(
    const std::vector<std::string>& args) {
  ExperimentOptions options;
  ClusterConfig config;
  // dcape_run defaults: shorter run than the paper's 40 minutes.
  config.run_duration = MinutesToTicks(10);
  config.spill.memory_threshold_bytes = 24 * kMiB;
  config.workload.classes = {PartitionClass{3.0, 180000}};

  double join_rate = 3.0;
  int64_t tuple_range = 180000;
  // Flags seen so far, by name: rejects duplicates and drives the
  // strategy-consistency checks after the loop.
  std::set<std::string, std::less<>> seen;

  for (const std::string& arg : args) {
    std::string_view view = arg;
    if (view == "--help" || view == "-h") {
      return Status::InvalidArgument(ExperimentFlagsHelp());
    }
    {
      const std::string_view name = view.substr(0, view.find('='));
      if (!seen.insert(std::string(name)).second) {
        return Status::InvalidArgument("duplicate flag " + std::string(name));
      }
    }
    if (view == "--quiet") {
      options.tables = false;
      continue;
    }
    if (view == "--verbose") {
      options.verbose = true;
      continue;
    }
    if (view == "--fluctuation") {
      config.workload.fluctuation.enabled = true;
      continue;
    }
    if (view == "--restore") {
      config.restore.enabled = true;
      continue;
    }
    if (view == "--trace") {
      config.trace = true;
      continue;
    }
    if (view == "--trace-verbose") {
      config.trace_verbose = true;
      continue;
    }
    if (view == "--file-backend") {
      config.use_file_backend = true;
      continue;
    }
    if (view == "--realtime") {
      options.realtime = true;
      continue;
    }
    if (view == "--check-oracle") {
      options.rt_check_oracle = true;
      continue;
    }
    if (view.substr(0, 2) != "--" || view.find('=') == std::string_view::npos) {
      return Status::InvalidArgument("unrecognized argument '" + arg +
                                     "' (expected --key=value; see --help)");
    }
    const size_t eq = view.find('=');
    const std::string_view key = view.substr(0, eq);
    const std::string_view value = view.substr(eq + 1);

    // Range checks for the fields below live in
    // ClusterConfig::Builder::Validate(), which runs after the loop.
    if (key == "--strategy") {
      DCAPE_ASSIGN_OR_RETURN(config.strategy, ParseStrategy(value));
    } else if (key == "--engines") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.num_engines = static_cast<int>(v);
    } else if (key == "--split-hosts") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.num_split_hosts = static_cast<int>(v);
    } else if (key == "--threads") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.num_threads = static_cast<int>(v);
    } else if (key == "--streams") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.workload.num_streams = static_cast<int>(v);
    } else if (key == "--partitions") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.workload.num_partitions = static_cast<int>(v);
    } else if (key == "--duration-min") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.run_duration = MinutesToTicks(v);
    } else if (key == "--inter-arrival-ms") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.workload.inter_arrival_ticks = v;
    } else if (key == "--join-rate") {
      DCAPE_ASSIGN_OR_RETURN(join_rate, ParseDouble(key, value));
      if (join_rate <= 0) {
        return Status::InvalidArgument("--join-rate must be > 0");
      }
    } else if (key == "--tuple-range") {
      DCAPE_ASSIGN_OR_RETURN(tuple_range, ParseInt(key, value));
      if (tuple_range < 1) {
        return Status::InvalidArgument("--tuple-range must be >= 1");
      }
    } else if (key == "--payload-bytes") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.workload.payload_bytes = static_cast<int>(v);
    } else if (key == "--seed") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.seed = static_cast<uint64_t>(v);
      config.workload.seed = static_cast<uint64_t>(v);
    } else if (key == "--placement") {
      DCAPE_ASSIGN_OR_RETURN(config.placement_fractions,
                             ParseDoubleList(key, value));
    } else if (key == "--threshold-kib") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.spill.memory_threshold_bytes = v * kKiB;
    } else if (key == "--spill-fraction") {
      if (value == "adaptive") {
        config.spill.spill_fraction = 0.0;  // sentinel: threshold-driven
      } else {
        DCAPE_ASSIGN_OR_RETURN(config.spill.spill_fraction,
                               ParseDouble(key, value));
      }
    } else if (key == "--max-subpartition-depth") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.spill.max_subpartition_depth = static_cast<int>(v);
    } else if (key == "--zipf-s") {
      DCAPE_ASSIGN_OR_RETURN(config.workload.zipf_s, ParseDouble(key, value));
      if (config.workload.zipf_s < 0) {
        return Status::InvalidArgument("--zipf-s must be >= 0");
      }
    } else if (key == "--spill-policy") {
      DCAPE_ASSIGN_OR_RETURN(config.spill.policy, ParseSpillPolicy(value));
    } else if (key == "--theta") {
      DCAPE_ASSIGN_OR_RETURN(config.relocation.theta_r,
                             ParseDouble(key, value));
    } else if (key == "--tau-sec") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.relocation.min_time_between = SecondsToTicks(v);
    } else if (key == "--relocation-model") {
      DCAPE_ASSIGN_OR_RETURN(config.relocation.model,
                             ParseRelocationModel(value));
    } else if (key == "--lambda") {
      DCAPE_ASSIGN_OR_RETURN(config.active_disk.lambda,
                             ParseDouble(key, value));
    } else if (key == "--productivity") {
      DCAPE_ASSIGN_OR_RETURN(config.productivity.model,
                             ParseProductivityModel(value));
    } else if (key == "--ewma-alpha") {
      DCAPE_ASSIGN_OR_RETURN(config.productivity.ewma_alpha,
                             ParseDouble(key, value));
    } else if (key == "--phase-min") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      if (v < 1) return Status::InvalidArgument("--phase-min must be >= 1");
      config.workload.fluctuation.phase_ticks = MinutesToTicks(v);
    } else if (key == "--hot-mult") {
      DCAPE_ASSIGN_OR_RETURN(config.workload.fluctuation.hot_multiplier,
                             ParseDouble(key, value));
    } else if (key == "--window-sec") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.join_window_ticks = SecondsToTicks(v);
    } else if (key == "--segment-format") {
      if (value == "v1") {
        config.segment_format = SegmentFormat::kV1;
      } else if (value == "v2") {
        config.segment_format = SegmentFormat::kV2;
      } else {
        return Status::InvalidArgument(
            "--segment-format must be v1 or v2");
      }
    } else if (key == "--cleanup-block-kib") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      config.cleanup.block_bytes = v * kKiB;
    } else if (key == "--duration-sec") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      if (v < 1) return Status::InvalidArgument("--duration-sec must be >= 1");
      options.rt_duration_sec = static_cast<int>(v);
    } else if (key == "--rate") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      if (v < 0) return Status::InvalidArgument("--rate must be >= 0");
      options.rt_rate = v;
    } else if (key == "--rt-queue-capacity") {
      DCAPE_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      if (v < 2) {
        return Status::InvalidArgument("--rt-queue-capacity must be >= 2");
      }
      options.rt_queue_capacity = static_cast<size_t>(v);
    } else if (key == "--csv") {
      options.csv_path = std::string(value);
    } else if (key == "--record-trace") {
      options.record_trace_path = std::string(value);
    } else if (key == "--replay-trace") {
      options.replay_trace_path = std::string(value);
    } else if (key == "--trace-out") {
      options.trace_out_path = std::string(value);
      config.trace = true;
    } else if (key == "--report") {
      if (value != "timeline") {
        return Status::InvalidArgument("--report must be timeline");
      }
      options.report = std::string(value);
      config.trace = true;
    } else {
      return Status::InvalidArgument("unknown flag '" + std::string(key) +
                                     "' (see --help)");
    }
  }

  config.workload.classes = {PartitionClass{join_rate, tuple_range}};

  // Realtime-mode consistency. Every conflict names the offending flag
  // so the error is actionable (PR 3 convention).
  if (options.realtime) {
    // Simulator-only machinery that has no wall-clock meaning (or whose
    // export contract is tick-based).
    for (const char* conflict :
         {"--duration-min", "--window-sec", "--trace-out", "--report"}) {
      if (seen.count(conflict) != 0) {
        return Status::InvalidArgument(
            std::string(conflict) +
            " is simulator-only and incompatible with --realtime (see "
            "docs/REALTIME.md)");
      }
    }
  } else {
    for (const char* rt_only :
         {"--duration-sec", "--rate", "--check-oracle",
          "--rt-queue-capacity"}) {
      if (seen.count(rt_only) != 0) {
        return Status::InvalidArgument(std::string(rt_only) +
                                       " requires --realtime");
      }
    }
  }

  // All range and strategy-consistency validation lives in
  // ClusterConfig::Builder::Validate(); hand it the set of explicitly
  // given flags so consistency checks fire only for those.
  ClusterConfig::Builder builder(std::move(config));
  for (const std::string& flag : seen) builder.MarkSet(flag);
  DCAPE_ASSIGN_OR_RETURN(options.cluster, builder.Build());
  return options;
}

std::string ExperimentFlagsHelp() {
  return R"(dcape_run — run one DCAPE experiment

usage: dcape_run [--key=value ...]

query / workload:
  --streams=N            join inputs (m of the m-way join)       [3]
  --partitions=N         hash partitions across the cluster      [60]
  --inter-arrival-ms=N   virtual ms between tuples per stream    [10]
  --join-rate=F          join multiplicative factor increase     [3]
  --tuple-range=N        tuples per join-rate increment          [180000]
  --payload-bytes=N      payload bytes per tuple                 [64]
  --zipf-s=F             Zipf partition-skew exponent (0 = uniform;
                         incompatible with --fluctuation)         [0]
  --fluctuation          alternate 10x load between halves
  --phase-min=N          fluctuation phase length                [5]
  --hot-mult=F           fluctuation hot multiplier              [10]
  --seed=N               workload + policy seed                  [42]

cluster / run:
  --engines=N            query engines                           [2]
  --split-hosts=N        nodes hosting the split operators       [1]
  --threads=N            worker threads for the cleanup phase
                         (results are identical for any value)   [1]
  --placement=F,F,...    initial partition shares per engine     [uniform]
  --duration-min=N       run-time phase length (virtual)         [10]

adaptation:
  --strategy=S           all-mem | spill-only | relocation-only |
                         lazy-disk | active-disk                 [all-mem]
  --threshold-kib=N      per-engine spill threshold              [24576]
  --spill-fraction=F     k% of state pushed per spill; 'adaptive'
                         (or 0) sizes each spill from the threshold
                         overshoot instead                        [0.3]
  --max-subpartition-depth=N
                         recursion bound for secondary-hash splits
                         of oversized cold sets (0 disables)      [4]
  --spill-policy=P       push-less-productive | push-more-productive |
                         push-largest | push-smallest | push-random
  --theta=F              relocation threshold θ_r                [0.8]
  --tau-sec=N            min seconds between relocations τ_m     [45]
  --relocation-model=M   pairwise | global-rebalance             [pairwise]
  --lambda=F             active-disk productivity threshold λ    [2]
  --productivity=M       cumulative | ewma                       [cumulative]
  --ewma-alpha=F         EWMA weight of the newest window        [0.5]
  --restore              enable online state restore
  --window-sec=N         sliding-window join semantics (0 = unbounded)

storage:
  --segment-format=F     spill/relocation encoding: v1 | v2       [v2]
  --file-backend         spill to real files under a temp dir
  --cleanup-block-kib=N  cleanup merge block size: segments are read
                         in blocks of N KiB (docs/CLEANUP.md)     [64]

realtime (docs/REALTIME.md):
  --realtime             free-running wall-clock driver: one thread per
                         node, lock-free SPSC links, real timers.
                         Incompatible with --duration-min,
                         --window-sec, --trace-out, --report
  --duration-sec=N       wall-clock generation seconds             [5]
  --rate=N               target input tuples/sec; 0 = free-run     [0]
  --check-oracle         replay the same input on the deterministic
                         simulator and require identical output
  --rt-queue-capacity=N  SPSC ring slots per link                  [)" +
         std::to_string(rt::kDefaultLinkCapacity) + R"(]

output:
  --csv=PATH             write throughput/memory series as CSV
                         (also PATH-derived .storage.csv counters)
  --record-trace=PATH    record the generated input as a trace
  --replay-trace=PATH    replay a recorded trace instead
  --trace                structured adaptation trace (obs/trace.h)
  --trace-verbose        also trace per-batch data-plane events
  --trace-out=PATH       write the trace as Chrome trace_event JSON
                         (open in Perfetto; implies --trace)
  --report=timeline      print the adaptation timeline after the
                         summary (implies --trace)
  --quiet                summary only, no tables
  --verbose              narrate adaptations
)";
}

}  // namespace dcape
