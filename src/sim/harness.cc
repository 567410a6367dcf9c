#include "sim/harness.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/cluster.h"
#include "sim/invariants.h"
#include "sim/oracle.h"
#include "tuple/tuple.h"

namespace dcape {
namespace sim {

namespace {

/// The shrinker's unit of work: a nameable, independently disableable
/// group of FaultSpec fields.
constexpr int kNumFaultClasses = 7;

const char* FaultClassName(int cls) {
  switch (cls) {
    case 0: return "delay";
    case 1: return "duplicate";
    case 2: return "disk-read";
    case 3: return "corrupt";
    case 4: return "disk-write";
    case 5: return "block-io";
    default: return "stall";
  }
}

bool FaultClassEnabled(const FaultSpec& spec, int cls) {
  switch (cls) {
    case 0: return spec.delay_prob > 0;
    case 1: return spec.duplicate_batch_prob > 0;
    case 2: return spec.read_error_prob > 0;
    case 3: return spec.corrupt_read_prob > 0;
    case 4: return spec.write_error_prob > 0 || spec.latch_write_prob > 0;
    case 5:
      return spec.block_read_error_prob > 0 || spec.block_corrupt_prob > 0 ||
             spec.block_stall_prob > 0;
    default: return spec.stall_prob > 0;
  }
}

void DisableFaultClass(FaultSpec* spec, int cls) {
  switch (cls) {
    case 0:
      spec->delay_prob = 0;
      spec->max_extra_delay = 0;
      break;
    case 1: spec->duplicate_batch_prob = 0; break;
    case 2: spec->read_error_prob = 0; break;
    case 3: spec->corrupt_read_prob = 0; break;
    case 4:
      spec->write_error_prob = 0;
      spec->latch_write_prob = 0;
      break;
    case 5:
      spec->block_read_error_prob = 0;
      spec->block_corrupt_prob = 0;
      spec->block_stall_prob = 0;
      spec->block_faults_survive_heal = false;
      break;
    default:
      spec->stall_prob = 0;
      spec->max_stall_ticks = 0;
      break;
  }
}

}  // namespace

TrialOutcome RunTrial(const TrialOptions& options) {
  Scenario scenario = GenerateScenario(options.seed);
  FaultSpec faults = scenario.faults;
  faults.MergeMax(options.extra_faults);
  if (options.override_faults != nullptr) faults = *options.override_faults;

  TrialOutcome outcome;
  outcome.seed = options.seed;
  outcome.flags = scenario.flags;
  if (options.override_faults != nullptr ||
      options.extra_faults.AnyEnabled()) {
    outcome.flags += " [active-faults=" + faults.Describe() + "]";
  }

  auto plan = std::make_shared<FaultPlan>(faults, options.seed,
                                          scenario.config.num_engines);
  auto recorder = std::make_shared<InvariantRecorder>();
  ClusterConfig chaos_config = scenario.config;
  chaos_config.fault_plan = plan;
  chaos_config.invariants = recorder;
  // Structured tracing doubles as an invariant source: the span-balance
  // check below needs the relocation protocol spans.
  chaos_config.trace = true;

  RunResult chaos;
  {
    Cluster cluster(chaos_config);
    cluster.RunUntil(chaos_config.run_duration);
    // Heal before draining: every fault is designed to be transient or
    // recoverable, so once injection stops, the drain + cleanup must
    // reach the exact all-mem result set. A fault that survives healing
    // (lost state, ghost segment) is precisely what the oracle flags.
    plan->Heal();
    cluster.Drain();
    chaos = cluster.Collect();
    StatusOr<CleanupStats> cleanup = cluster.RunCleanup();
    if (cleanup.ok()) {
      chaos.cleanup = std::move(cleanup).value();
      // Streaming-cleanup resource invariants: every prefetch issued must
      // have completed by the time the processor returns, and the memory
      // tracker must be back at zero — a nonzero residue means a block or
      // a member list leaked through some (possibly fault-injected) path.
      if (chaos.cleanup.blocks_prefetched != chaos.cleanup.blocks_completed) {
        recorder->Report(
            "cleanup prefetch unbalanced: issued=" +
            std::to_string(chaos.cleanup.blocks_prefetched) + " completed=" +
            std::to_string(chaos.cleanup.blocks_completed));
      }
      if (chaos.cleanup.resident_bytes_leaked != 0) {
        recorder->Report(
            "cleanup leaked " +
            std::to_string(chaos.cleanup.resident_bytes_leaked) +
            " resident bytes at quiescence");
      }
    } else {
      recorder->Report("cleanup failed after heal: " +
                       cleanup.status().ToString());
    }

    // Quiescence invariants: after drain + heal nothing may be left in
    // flight anywhere in the protocol.
    const Tick end = cluster.now();
    for (EngineId e = 0; e < cluster.num_engines(); ++e) {
      const QueryEngine& engine = cluster.engine(e);
      const std::string who = "engine " + std::to_string(e);
      if (!engine.Idle(end)) {
        recorder->Report(who + " not idle at end of run");
      }
      if (engine.mode() != EngineMode::kNormal) {
        recorder->Report(who + " not in normal mode at end of run");
      }
      if (engine.outgoing_relocation_count() != 0) {
        recorder->Report(who + " has an unfinished outgoing relocation");
      }
    }
    for (int h = 0; h < cluster.num_split_hosts(); ++h) {
      SplitHost& host = cluster.split_host(h);
      const std::string who = "split host " + std::to_string(h);
      if (host.total_buffered() != 0) {
        recorder->Report(who + " leaked " +
                         std::to_string(host.total_buffered()) +
                         " buffered tuples");
      }
      if (host.paused_partition_count() != 0) {
        recorder->Report(who + " still has paused partitions");
      }
    }
    if (cluster.coordinator().relocation_in_flight()) {
      recorder->Report("coordinator relocation still in flight at end");
    }
    const GlobalCoordinator::Counters& cc = cluster.coordinator().counters();
    if (cc.relocations_started !=
        cc.relocations_completed + cc.relocations_aborted) {
      recorder->Report(
          "relocation accounting: started=" +
          std::to_string(cc.relocations_started) + " completed=" +
          std::to_string(cc.relocations_completed) + " aborted=" +
          std::to_string(cc.relocations_aborted));
    }
    // Span-balance invariant: every relocation-protocol span that opened
    // in the structured trace must have closed by quiescence — under any
    // injected fault mix. An unclosed span is a stuck protocol phase.
    for (const std::string& line : cluster.tracer()->OpenSpans()) {
      recorder->Report("trace span balance: " + line);
    }
  }

  // The differential oracle: the same scenario run all-in-memory,
  // serial, fault-free. Workload generation is seed-deterministic and
  // timing-independent, so any strategy under any tolerated fault mix
  // must produce this exact result multiset (runtime ∪ cleanup).
  ClusterConfig golden_config = scenario.config;
  golden_config.strategy = AdaptationStrategy::kNoAdaptation;
  golden_config.num_threads = 1;
  golden_config.restore.enabled = false;
  golden_config.per_engine_segment_format.clear();
  Cluster golden_cluster(golden_config);
  RunResult golden = golden_cluster.Run();

  std::vector<std::string> violations = recorder->violations();
  DiffOutputs(ResultMultiset(chaos), ResultMultiset(golden), &violations);

  if (chaos.tuples_generated != golden.tuples_generated) {
    violations.push_back(
        "generator mismatch: chaos=" +
        std::to_string(chaos.tuples_generated) +
        " golden=" + std::to_string(golden.tuples_generated));
  }
  const int num_streams = scenario.config.workload.num_streams;
  const std::vector<int64_t> chaos_streams =
      PerStreamProcessed(chaos, num_streams);
  const std::vector<int64_t> golden_streams =
      PerStreamProcessed(golden, num_streams);
  int64_t chaos_total = 0;
  for (int s = 0; s < num_streams; ++s) {
    chaos_total += chaos_streams[static_cast<size_t>(s)];
    if (chaos_streams[static_cast<size_t>(s)] !=
        golden_streams[static_cast<size_t>(s)]) {
      violations.push_back(
          "stream " + std::to_string(s) + " tuple accounting: processed " +
          std::to_string(chaos_streams[static_cast<size_t>(s)]) +
          " vs oracle " +
          std::to_string(golden_streams[static_cast<size_t>(s)]));
    }
  }
  if (chaos_total != chaos.tuples_generated) {
    violations.push_back("tuple accounting: engines processed " +
                         std::to_string(chaos_total) + " of " +
                         std::to_string(chaos.tuples_generated) +
                         " generated");
  }

  std::sort(violations.begin(), violations.end());
  outcome.violations = std::move(violations);
  outcome.passed = outcome.violations.empty();

  std::ostringstream sig;
  sig << "seed=" << outcome.seed << "|" << outcome.flags
      << "|results=" << chaos.runtime_results << "+"
      << chaos.cleanup.result_count << "|tuples=" << chaos.tuples_generated
      << "|reloc=" << chaos.coordinator.relocations_started << "/"
      << chaos.coordinator.relocations_completed << "/"
      << chaos.coordinator.relocations_aborted
      << "|spills=" << chaos.spill_events << ":" << chaos.spilled_bytes
      // Deterministic streaming-cleanup counters only: prefetch issue
      // counts and per-identity retry draws replay exactly, whereas
      // stall waits and peak residency are wall-clock artefacts.
      << "|blocks=" << chaos.cleanup.blocks_prefetched << ":"
      << chaos.cleanup.block_read_retries;
  for (const std::string& v : outcome.violations) sig << "|!" << v;
  outcome.signature = sig.str();

  if (options.out != nullptr) {
    *options.out << (outcome.passed ? "ok   " : "FAIL ") << "seed="
                 << outcome.seed << " " << outcome.flags << "\n";
  }
  return outcome;
}

HarnessReport RunTrials(const HarnessOptions& options) {
  HarnessReport report;
  report.trials = options.trials;
  for (int i = 0; i < options.trials; ++i) {
    TrialOptions trial;
    trial.seed = options.base_seed + static_cast<uint64_t>(i);
    trial.extra_faults = options.extra_faults;
    trial.out = options.verbose ? options.out : nullptr;
    TrialOutcome outcome = RunTrial(trial);
    if (!outcome.passed) {
      ++report.failures;
      if (options.shrink) {
        outcome.shrunk_faults =
            ShrinkFailure(outcome.seed, options.extra_faults, nullptr);
      }
      if (options.out != nullptr) {
        *options.out << "FAIL seed=" << outcome.seed << "\n  " << outcome.flags
                     << "\n";
        for (const std::string& v : outcome.violations) {
          *options.out << "  violation: " << v << "\n";
        }
        *options.out << "  replay: dcape_chaos --trials=1 --seed="
                     << outcome.seed << "\n";
        if (!outcome.shrunk_faults.empty()) {
          *options.out << "  shrunk faults: " << outcome.shrunk_faults << "\n";
        }
      }
      report.failed.push_back(std::move(outcome));
    }
  }
  if (options.out != nullptr) {
    if (report.failures == 0) {
      *options.out << "all " << report.trials << " trials passed\n";
    } else {
      *options.out << report.failures << " of " << report.trials
                   << " trials failed\n";
    }
  }
  return report;
}

std::string ShrinkFailure(uint64_t seed, const FaultSpec& extra_faults,
                          std::ostream* out) {
  Scenario scenario = GenerateScenario(seed);
  FaultSpec current = scenario.faults;
  current.MergeMax(extra_faults);
  for (int cls = 0; cls < kNumFaultClasses; ++cls) {
    if (!FaultClassEnabled(current, cls)) continue;
    FaultSpec candidate = current;
    DisableFaultClass(&candidate, cls);
    TrialOptions trial;
    trial.seed = seed;
    trial.override_faults = &candidate;
    if (!RunTrial(trial).passed) {
      current = candidate;  // still fails without this class — drop it
      if (out != nullptr) {
        *out << "  shrink: dropped " << FaultClassName(cls) << "\n";
      }
    } else if (out != nullptr) {
      *out << "  shrink: " << FaultClassName(cls) << " is required\n";
    }
  }
  return current.Describe();
}

}  // namespace sim
}  // namespace dcape
