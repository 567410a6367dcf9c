#ifndef DCAPE_RUNTIME_RUN_RESULT_H_
#define DCAPE_RUNTIME_RUN_RESULT_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "cleanup/cleanup.h"
#include "core/global_coordinator.h"
#include "engine/query_engine.h"
#include "metrics/histogram.h"
#include "metrics/time_series.h"
#include "net/network.h"
#include "tuple/tuple.h"

namespace dcape {

/// Storage-plane counters for one engine's spill area (plus a cluster
/// aggregate). Encoded vs raw bytes show what the compact segment format
/// saves.
struct StorageCounters {
  /// Cumulative segments written (spills + eviction generations).
  int64_t segments_written = 0;
  /// Segments still on disk at collection time.
  int64_t segments_resident = 0;
  /// Encoded bytes still on disk at collection time.
  int64_t resident_bytes = 0;
  /// Cumulative encoded (on-disk) bytes written.
  int64_t encoded_bytes = 0;
  /// Cumulative raw (v1 fixed-width equivalent) bytes of the same state.
  int64_t raw_bytes = 0;
  /// Partial-generation accounting (bucket-granular gradual spills),
  /// kept apart from the whole-group figures above so resident vs
  /// spilled bytes per group stay interpretable.
  int64_t partial_segments_written = 0;
  int64_t partial_encoded_bytes = 0;
  int64_t partial_raw_bytes = 0;

  /// encoded/raw; 1.0 when nothing was written.
  double CompressionRatio() const {
    return raw_bytes > 0
               ? static_cast<double>(encoded_bytes) /
                     static_cast<double>(raw_bytes)
               : 1.0;
  }
};

/// Everything measured over one experiment run.
struct RunResult {
  /// Cumulative results received at the application server, sampled on
  /// the cluster's sample period. `ToRatePerMinute` turns this into the
  /// paper's throughput curves.
  TimeSeries throughput;
  /// Tracked state bytes per engine over time (the Figs. 6/10 series).
  std::vector<TimeSeries> engine_memory;

  /// Results produced during the run-time phase (sink count).
  int64_t runtime_results = 0;
  /// End-to-end latency (virtual ms) of run-time results: delivery at
  /// the application server minus the latest member tuple's arrival.
  Histogram runtime_latency;
  /// Tuples emitted by the generator across all streams.
  int64_t tuples_generated = 0;
  /// Virtual time at which the run-time phase (including pipeline drain)
  /// ended.
  Tick runtime_end = 0;

  GlobalCoordinator::Counters coordinator;
  std::vector<QueryEngine::Counters> engines;
  /// Per-engine spill-area counters, same order as `engines`.
  std::vector<StorageCounters> engine_storage;
  /// Sum over `engine_storage`.
  StorageCounters storage;
  Network::Stats network;

  /// Total bytes spilled across engines.
  int64_t spilled_bytes = 0;
  /// Total spill events (threshold-triggered + forced) across engines.
  int64_t spill_events = 0;

  /// Cleanup phase outcome (zeros when cleanup was disabled).
  CleanupStats cleanup;

  /// Runtime results retained by the sink when collect_results was set.
  std::vector<JoinResult> collected;

  /// Runtime + cleanup result count.
  int64_t TotalResults() const { return runtime_results + cleanup.result_count; }

  /// One-paragraph human-readable summary for benches/examples.
  void PrintSummary(std::ostream& os) const;

  /// Storage-plane counters as CSV: one row per engine plus a "total"
  /// row (dcape_run writes this next to the series CSV).
  std::string StorageCsv() const;
};

}  // namespace dcape

#endif  // DCAPE_RUNTIME_RUN_RESULT_H_
