#ifndef DCAPE_STORAGE_SPILL_STORE_H_
#define DCAPE_STORAGE_SPILL_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "obs/metrics.h"
#include "storage/disk_backend.h"
#include "storage/segment_index.h"

namespace dcape {

/// Metadata for one spilled partition-group generation.
///
/// A partition id may appear many times: each spill of the (re-grown)
/// in-memory group freezes another generation (§3 of the paper: "multiple
/// partition groups may exist given one partition ID"). `spill_time`
/// provides the global generation ordering the cleanup phase needs.
struct SpillSegmentMeta {
  EngineId engine = 0;
  PartitionId partition = 0;
  /// Per-store monotonically increasing segment number.
  int64_t segment_id = 0;
  /// Virtual time at which the generation was frozen.
  Tick spill_time = 0;
  /// Encoded blob size on disk (v2-compact when the v2 format is on).
  int64_t bytes = 0;
  /// Raw (v1 fixed-width) size of the same state; equals `bytes` for v1
  /// blobs. The compression ratio the storage counters report is
  /// raw_bytes : bytes.
  int64_t raw_bytes = 0;
  int64_t tuple_count = 0;
  /// True for *eviction generations*: window-expired tuples preserved for
  /// the cleanup phase. They join only against earlier generations (see
  /// cleanup/cleanup.cc).
  bool evicted = false;
  /// True for *partial generations*: the coldest keys of a group whose
  /// hot residue stayed memory-resident (bucket-granular spill). The
  /// blob is an ordinary serialized PartitionGroup — the format does not
  /// change — but the storage counters account partial state separately
  /// so sweeps can tell gradual from whole-group spills apart.
  bool partial = false;
  /// Recursive sub-partition depth the piece was split at (0 = no
  /// secondary-hash split).
  int sub_depth = 0;
  /// Backend object name holding the serialized group.
  std::string object_name;
  /// Per-stream section layout of the blob, scanned once at write time
  /// (storage/segment_index.h). Empty `sections.offsets` means the blob
  /// was not a well-formed group segment (raw test blobs); cleanup
  /// rejects such a segment with InvalidArgument before reading it.
  SegmentSections sections;
};

/// The per-engine spill area: serialized partition-group generations plus
/// a virtual-time I/O cost model (sequential write/read bandwidth).
/// Writes reach the backend before WriteSegment returns.
class SpillStore {
 public:
  struct Config {
    /// Sequential write bandwidth, bytes per tick (virtual ms). 40 MB/s of
    /// the paper's era ≈ 40000 bytes/ms.
    int64_t write_bytes_per_tick = 40000;
    /// Sequential read bandwidth, bytes per tick.
    int64_t read_bytes_per_tick = 50000;
  };

  /// `metrics` (optional, unowned) is the cluster's unified registry;
  /// the store registers its storage.* cells there, or in a private
  /// registry when null (standalone use in tests).
  SpillStore(EngineId engine, const Config& config,
             std::unique_ptr<DiskBackend> backend,
             obs::MetricsRegistry* metrics = nullptr);

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Persists one serialized partition-group generation. Returns the
  /// virtual I/O duration in ticks; the caller (query engine) models the
  /// spill as keeping the engine busy that long. `raw_bytes` is the v1
  /// fixed-width size of the same state for the compression counters
  /// (defaults to the blob size). A failed backend write returns the
  /// backend's error and records no segment.
  [[nodiscard]] StatusOr<Tick> WriteSegment(PartitionId partition, Tick now,
                                            std::string_view blob,
                                            int64_t tuple_count,
                                            bool evicted = false,
                                            int64_t raw_bytes = -1,
                                            bool partial = false,
                                            int sub_depth = 0);

  /// Reads a segment back. `io_ticks` (optional out) receives the
  /// virtual read duration, charged by the cleanup cost model.
  [[nodiscard]] StatusOr<std::string> ReadSegment(
      const SpillSegmentMeta& meta, Tick* io_ticks = nullptr) const;

  /// Reads `len` bytes of a segment starting at byte `offset`. The
  /// streaming cleanup's block readers call this concurrently from its
  /// worker lanes; it charges no virtual ticks (the cleanup cost model
  /// charges whole segments up front from metadata) and touches no
  /// counters, so concurrent calls are safe.
  [[nodiscard]] StatusOr<std::string> ReadSegmentRange(
      const SpillSegmentMeta& meta, int64_t offset, int64_t len) const;

  /// Removes a segment (used by online restore once the generation has
  /// been merged back into memory). NotFound for unknown ids. O(log n):
  /// segments_ is sorted by the monotonically assigned segment id.
  [[nodiscard]] Status RemoveSegment(int64_t segment_id);

  /// All segments in spill order.
  const std::vector<SpillSegmentMeta>& segments() const { return segments_; }

  /// Cumulative serialized bytes spilled (never decreases).
  int64_t total_spilled_bytes() const { return encoded_bytes_->value(); }
  /// Cumulative raw (v1-equivalent) bytes of everything spilled; the
  /// v2 size win is total_spilled_bytes() / total_raw_bytes().
  int64_t total_raw_bytes() const { return raw_bytes_->value(); }
  /// Bytes currently resident on disk (decreases on RemoveSegment).
  int64_t resident_bytes() const { return resident_bytes_->value(); }
  /// Number of segments currently resident (decreases on RemoveSegment).
  int64_t segment_count() const {
    return static_cast<int64_t>(segments_.size());
  }
  /// Cumulative WriteSegment calls (never decreases).
  int64_t segments_written() const { return segments_written_->value(); }
  /// Cumulative *partial* generations written (bucket-granular spills).
  int64_t partial_segments_written() const {
    return partial_segments_written_->value();
  }
  /// Cumulative encoded bytes of partial generations.
  int64_t partial_encoded_bytes() const {
    return partial_encoded_bytes_->value();
  }
  /// Cumulative raw (v1-equivalent) bytes of partial generations.
  int64_t partial_raw_bytes() const { return partial_raw_bytes_->value(); }

  EngineId engine() const { return engine_; }
  const Config& config() const { return config_; }

 private:
  EngineId engine_;
  Config config_;
  std::unique_ptr<DiskBackend> backend_;
  std::vector<SpillSegmentMeta> segments_;
  int64_t next_segment_id_ = 0;
  /// Private registry used only when the caller did not supply one;
  /// declared before the cell pointers that may point into it.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  /// storage.* cells (owned by the registry): cumulative encoded and raw
  /// bytes written, bytes currently resident, cumulative segments
  /// written.
  obs::Counter* encoded_bytes_;
  obs::Counter* raw_bytes_;
  obs::Gauge* resident_bytes_;
  obs::Counter* segments_written_;
  /// Partial-generation accounting (bucket-granular spills only).
  obs::Counter* partial_segments_written_;
  obs::Counter* partial_encoded_bytes_;
  obs::Counter* partial_raw_bytes_;
};

}  // namespace dcape

#endif  // DCAPE_STORAGE_SPILL_STORE_H_
