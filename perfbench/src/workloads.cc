#include "workloads.h"

#include "common/units.h"
#include "runtime/experiment_flags.h"

namespace perfbench {
namespace {

using dcape::AdaptationStrategy;
using dcape::ClusterConfig;
using dcape::kMiB;
using dcape::MinutesToTicks;
using dcape::SecondsToTicks;

// sim-spill: the spill-heavy run of docs/PERFORMANCE.md, parsed from the
// documented dcape_run command line so the two cannot drift apart, with
// --threads=1 (a threaded run measures the host scheduler), without
// --file-backend (with real files the run measured where ext4 placed the
// spill directories, not the program) and for 5 virtual minutes instead
// of 10, so a run holds twice the repetitions (README.md).
dcape::StatusOr<ClusterConfig> SimSpill(uint64_t seed) {
  DCAPE_ASSIGN_OR_RETURN(
      dcape::ExperimentOptions options,
      dcape::ParseExperimentFlags(
          {"--strategy=spill-only", "--engines=2", "--threads=1",
           "--duration-min=5", "--threshold-kib=1024",
           "--inter-arrival-ms=2", "--payload-bytes=64", "--window-sec=30",
           "--seed=" + std::to_string(seed)}));
  ClusterConfig config = options.cluster;
  config.cleanup.collect_results = false;
  return config;
}

// sim-relocate: Fig. 12's lazy-disk run. The workload block mirrors
// bench/bench_common.cc's PaperBaseConfig as it stood when this
// workload was defined; it is copied rather than linked so a change to
// the figure harness cannot silently change the benchmark.
ClusterConfig SimRelocate(uint64_t seed) {
  ClusterConfig config;
  config.workload.num_streams = 3;
  config.workload.num_partitions = 60;
  config.workload.inter_arrival_ticks = 10;
  config.workload.payload_bytes = 64;
  config.workload.classes = {dcape::PartitionClass{3.0, 180000}};
  config.workload.seed = seed;
  config.seed = seed;

  config.run_duration = MinutesToTicks(40);
  config.sample_period = SecondsToTicks(30);
  config.stats_period = SecondsToTicks(5);
  config.collect_results = false;
  config.run_cleanup = true;
  config.cleanup.collect_results = false;

  config.spill.spill_fraction = 0.30;
  config.spill.policy = dcape::SpillPolicy::kLeastProductiveFirst;
  config.spill.ss_timer_period = SecondsToTicks(5);
  config.relocation.theta_r = 0.8;
  config.relocation.min_time_between = SecondsToTicks(45);
  config.relocation.sr_timer_period = SecondsToTicks(10);
  config.relocation.min_relocate_bytes = 512 * dcape::kKiB;
  config.active_disk.lambda = 2.0;
  config.active_disk.lb_timer_period = SecondsToTicks(30);
  config.active_disk.memory_pressure = 0.5;
  config.active_disk.max_forced_spill_bytes = 12 * kMiB;
  config.active_disk.forced_spill_fraction = 0.30;

  // Fig. 12: three engines, one owning 2/3 of the partitions, aggregate
  // memory (3 x 16 MiB) below the query's state.
  config.num_engines = 3;
  config.num_threads = 1;
  config.placement_fractions = {2.0 / 3, 1.0 / 6, 1.0 / 6};
  config.spill.memory_threshold_bytes = 16 * kMiB;
  config.strategy = AdaptationStrategy::kLazyDisk;
  return config;
}

// rt-saturate: bench/realtime_throughput's data-plane config at two
// engines: every tick carries tuples, keys are sparse, no adaptation.
ClusterConfig RtSaturate(uint64_t seed) {
  ClusterConfig config;
  config.num_engines = 2;
  config.strategy = AdaptationStrategy::kNoAdaptation;
  config.workload.num_streams = 3;
  config.workload.num_partitions = 60;
  config.workload.inter_arrival_ticks = 1;
  config.workload.payload_bytes = 64;
  config.workload.classes = {dcape::PartitionClass{1.0, 1000000}};
  config.workload.seed = seed;
  config.seed = seed;
  config.collect_results = false;
  config.run_cleanup = false;
  config.cleanup.collect_results = false;
  return config;
}

}  // namespace

dcape::StatusOr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  Workload workload;
  workload.name = name;
  if (name == "sim-spill") {
    DCAPE_ASSIGN_OR_RETURN(workload.config, SimSpill(seed));
  } else if (name == "sim-relocate") {
    workload.config = SimRelocate(seed);
  } else if (name == "rt-saturate") {
    workload.driver = Driver::kRealtime;
    workload.config = RtSaturate(seed);
    // The free-run rate of an unwindowed join falls as state grows, so
    // the input length is part of the workload, and it is fixed in
    // tuples rather than seconds: every run, fast or slow, does the same
    // work. The driver's paced mode realizes that: it emits ticks
    // [0, rate * duration / 3] and never skips one, and at a rate no host
    // sustains it is always behind schedule, so it never waits and
    // backpressure alone holds it back -- a free-run of exactly
    // 2,400,003 tuples.
    workload.realtime.duration_sec = 1;
    workload.realtime.rate = kRtSaturateTuples;
  } else {
    return dcape::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  DCAPE_RETURN_IF_ERROR(
      dcape::ClusterConfig::Builder(workload.config).Validate());
  return workload;
}

}  // namespace perfbench
