#include "sim/scenario.h"

#include <cstdio>

#include "common/rng.h"
#include "common/units.h"

namespace dcape {
namespace sim {

namespace {

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", value);
  return buf;
}

}  // namespace

Scenario GenerateScenario(uint64_t seed) {
  Rng rng(seed ^ 0xC8A7C4B1D2E35F69ULL);
  auto pick_int = [&rng](int lo, int hi) {  // inclusive range
    return lo + static_cast<int>(rng.Uniform(static_cast<uint64_t>(hi - lo + 1)));
  };
  auto pick_tick = [&rng](Tick lo, Tick hi) {
    return lo + static_cast<Tick>(rng.Uniform(static_cast<uint64_t>(hi - lo + 1)));
  };
  auto pick_double = [&rng](double lo, double hi) {
    return lo + rng.NextDouble() * (hi - lo);
  };
  auto chance = [&rng](double p) { return rng.Bernoulli(p); };

  Scenario scenario;
  ClusterConfig& config = scenario.config;
  std::string& flags = scenario.flags;
  auto flag = [&flags](const std::string& text) {
    if (!flags.empty()) flags += " ";
    flags += text;
  };

  config.seed = seed;
  config.workload.seed = seed + 1;

  config.num_engines = pick_int(2, 4);
  flag("--engines=" + std::to_string(config.num_engines));
  config.workload.num_streams = pick_int(2, 3);
  flag("--streams=" + std::to_string(config.workload.num_streams));
  config.num_split_hosts = pick_int(1, 2);
  flag("--split-hosts=" + std::to_string(config.num_split_hosts));
  config.num_threads = pick_int(1, 3);
  flag("--threads=" + std::to_string(config.num_threads));

  config.workload.num_partitions = pick_int(8, 16);
  flag("--partitions=" + std::to_string(config.workload.num_partitions));
  config.workload.inter_arrival_ticks = pick_tick(8, 14);
  config.workload.payload_bytes = pick_int(16, 48);
  const int keys_per_partition = pick_int(20, 40);
  config.workload.classes = {PartitionClass{
      /*join_rate=*/1.0,
      /*tuple_range=*/keys_per_partition * config.workload.num_partitions}};

  if (chance(0.5)) {
    // Skewed initial placement: engine 0 starts with 50–80% of the
    // partitions, which puts relocation / spill under pressure early.
    std::vector<double> fractions(static_cast<size_t>(config.num_engines));
    fractions[0] = pick_double(0.5, 0.8);
    for (int e = 1; e < config.num_engines; ++e) {
      fractions[static_cast<size_t>(e)] =
          (1.0 - fractions[0]) / (config.num_engines - 1);
    }
    config.placement_fractions = fractions;
    flag("--placement-skew=" + FormatDouble(fractions[0]));
  }

  if (chance(0.3)) {
    config.workload.fluctuation.enabled = true;
    config.workload.fluctuation.phase_ticks = pick_tick(
        SecondsToTicks(3), SecondsToTicks(6));
    config.workload.fluctuation.hot_multiplier = pick_double(4.0, 10.0);
    for (PartitionId p = 0; p < config.workload.num_partitions / 2; ++p) {
      config.workload.fluctuation.set_a.push_back(p);
    }
    flag("--fluctuation");
  }

  if (chance(0.25)) {
    config.join_window_ticks = pick_tick(SecondsToTicks(4), SecondsToTicks(10));
    flag("--window-ticks=" + std::to_string(config.join_window_ticks));
  }

  static constexpr AdaptationStrategy kStrategies[] = {
      AdaptationStrategy::kNoAdaptation, AdaptationStrategy::kSpillOnly,
      AdaptationStrategy::kRelocationOnly, AdaptationStrategy::kLazyDisk,
      AdaptationStrategy::kActiveDisk,
  };
  config.strategy = kStrategies[rng.Uniform(5)];
  flag(std::string("--strategy=") + StrategyName(config.strategy));

  config.spill.memory_threshold_bytes =
      static_cast<int64_t>(pick_int(32, 96)) * kKiB;
  flag("--threshold-kib=" +
       std::to_string(config.spill.memory_threshold_bytes / kKiB));
  // 0 is the adaptive sentinel (threshold-overshoot sizing); exercise it
  // alongside fixed fractions so the chaos oracle covers both planes.
  config.spill.spill_fraction = chance(0.25) ? 0.0 : pick_double(0.2, 0.5);
  flag("--spill-fraction=" +
       (config.spill.spill_fraction == 0.0
            ? std::string("adaptive")
            : FormatDouble(config.spill.spill_fraction)));
  config.spill.max_subpartition_depth = pick_int(0, 6);
  flag("--max-subpartition-depth=" +
       std::to_string(config.spill.max_subpartition_depth));
  static constexpr SpillPolicy kPolicies[] = {
      SpillPolicy::kLeastProductiveFirst, SpillPolicy::kMostProductiveFirst,
      SpillPolicy::kLargestFirst, SpillPolicy::kSmallestFirst,
      SpillPolicy::kRandom,
  };
  config.spill.policy = kPolicies[rng.Uniform(5)];
  config.spill.ss_timer_period = pick_tick(SecondsToTicks(1), SecondsToTicks(2));

  if (StrategySpillsLocally(config.strategy) && chance(0.3)) {
    config.restore.enabled = true;
    config.restore.low_watermark = pick_double(0.3, 0.6);
    config.restore.check_period = pick_tick(SecondsToTicks(1), SecondsToTicks(3));
    flag("--restore");
  }

  config.relocation.model = chance(0.3) ? RelocationModel::kGlobalRebalance
                                        : RelocationModel::kPairwise;
  config.relocation.theta_r = pick_double(0.5, 0.9);
  flag("--theta=" + FormatDouble(config.relocation.theta_r));
  config.relocation.sr_timer_period =
      pick_tick(SecondsToTicks(1), SecondsToTicks(3));
  config.relocation.min_time_between =
      pick_tick(SecondsToTicks(2), SecondsToTicks(6));
  config.relocation.min_relocate_bytes =
      static_cast<int64_t>(pick_int(2, 8)) * kKiB;

  config.active_disk.lambda = pick_double(1.5, 3.0);
  config.active_disk.lb_timer_period =
      pick_tick(SecondsToTicks(2), SecondsToTicks(4));
  config.active_disk.memory_pressure = pick_double(0.3, 0.6);
  config.active_disk.max_forced_spill_bytes = 512 * kKiB;

  // Mixed segment formats: each engine independently encodes its spilled
  // and relocated state as v1 or v2, so cross-format installs happen
  // whenever a relocation crosses the format boundary.
  std::string formats;
  for (int e = 0; e < config.num_engines; ++e) {
    const bool v2 = chance(0.5);
    config.per_engine_segment_format.push_back(v2 ? SegmentFormat::kV2
                                                  : SegmentFormat::kV1);
    if (!formats.empty()) formats += ",";
    formats += v2 ? "v2" : "v1";
  }
  flag("--segment-formats=" + formats);

  config.run_duration = pick_tick(SecondsToTicks(10), SecondsToTicks(20));
  flag("--duration-ticks=" + std::to_string(config.run_duration));
  config.sample_period = SecondsToTicks(5);
  config.stats_period = pick_tick(SecondsToTicks(1), SecondsToTicks(2));

  // The differential oracle needs every result the run produced.
  config.collect_results = true;
  config.run_cleanup = true;
  config.cleanup.collect_results = true;

  FaultSpec& faults = scenario.faults;
  if (chance(0.5)) {
    faults.delay_prob = pick_double(0.05, 0.3);
    faults.max_extra_delay = pick_tick(2, 12);
  }
  if (chance(0.4)) faults.read_error_prob = pick_double(0.02, 0.1);
  if (chance(0.3)) faults.corrupt_read_prob = pick_double(0.02, 0.08);
  if (chance(0.4)) faults.write_error_prob = pick_double(0.02, 0.08);
  if (chance(0.1)) faults.latch_write_prob = pick_double(0.002, 0.01);
  if (chance(0.4)) {
    faults.stall_prob = pick_double(0.0005, 0.002);
    faults.max_stall_ticks = pick_tick(20, 120);
  }

  // Streaming-cleanup coverage: vary the block size the k-way merge
  // prefetches in, and inject block-granular faults that persist through
  // Heal() — the fetcher's retry budget must keep them
  // output-transparent.
  config.cleanup.block_bytes = static_cast<int64_t>(256)
                               << rng.Uniform(4);  // 256 B .. 2 KiB
  flag("--cleanup-block-kib=" +
       FormatDouble(static_cast<double>(config.cleanup.block_bytes) / kKiB));
  if (chance(0.3)) {
    faults.block_read_error_prob = pick_double(0.01, 0.08);
    faults.block_corrupt_prob = pick_double(0.01, 0.06);
    faults.block_stall_prob = pick_double(0.01, 0.05);
    faults.block_faults_survive_heal = true;
  }
  flag("--faults=" + faults.Describe());

  return scenario;
}

}  // namespace sim
}  // namespace dcape
