#include "storage/spill_store.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dcape {

SpillStore::SpillStore(EngineId engine, const Config& config,
                       std::unique_ptr<DiskBackend> backend,
                       obs::MetricsRegistry* metrics)
    : engine_(engine), config_(config), backend_(std::move(backend)) {
  DCAPE_CHECK(backend_ != nullptr);
  DCAPE_CHECK_GT(config_.write_bytes_per_tick, 0);
  DCAPE_CHECK_GT(config_.read_bytes_per_tick, 0);
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  const int entity = static_cast<int>(engine_);
  encoded_bytes_ = metrics->AddCounter(obs::m::kEncodedBytes, entity);
  raw_bytes_ = metrics->AddCounter(obs::m::kRawBytes, entity);
  resident_bytes_ = metrics->AddGauge(obs::m::kResidentBytes, entity);
  segments_written_ = metrics->AddCounter(obs::m::kSegmentsWritten, entity);
  partial_segments_written_ =
      metrics->AddCounter(obs::m::kPartialSegmentsWritten, entity);
  partial_encoded_bytes_ =
      metrics->AddCounter(obs::m::kPartialEncodedBytes, entity);
  partial_raw_bytes_ = metrics->AddCounter(obs::m::kPartialRawBytes, entity);
}

StatusOr<Tick> SpillStore::WriteSegment(PartitionId partition, Tick now,
                                        std::string_view blob,
                                        int64_t tuple_count, bool evicted,
                                        int64_t raw_bytes, bool partial,
                                        int sub_depth) {
  SpillSegmentMeta meta;
  meta.engine = engine_;
  meta.partition = partition;
  meta.segment_id = next_segment_id_++;
  meta.spill_time = now;
  meta.bytes = static_cast<int64_t>(blob.size());
  meta.raw_bytes = raw_bytes >= 0 ? raw_bytes : meta.bytes;
  meta.tuple_count = tuple_count;
  meta.evicted = evicted;
  meta.partial = partial;
  meta.sub_depth = sub_depth;
  meta.object_name.reserve(32);
  meta.object_name += "e";
  meta.object_name += std::to_string(engine_);
  meta.object_name += "_p";
  meta.object_name += std::to_string(partition);
  meta.object_name += "_s";
  meta.object_name += std::to_string(meta.segment_id);
  meta.object_name += ".spill";
  // Index the blob's per-stream sections while it is still in memory so
  // the streaming cleanup can range-read it later. A blob that is not a
  // well-formed group segment (raw bytes in storage tests) is stored
  // with an empty index, which cleanup rejects.
  if (StatusOr<SegmentSections> sections = ScanSegmentSections(blob);
      sections.ok()) {
    meta.sections = std::move(sections).value();
  }

  DCAPE_RETURN_IF_ERROR(backend_->Write(meta.object_name, blob));

  encoded_bytes_->Add(meta.bytes);
  raw_bytes_->Add(meta.raw_bytes);
  resident_bytes_->Add(meta.bytes);
  segments_written_->Increment();
  if (partial) {
    partial_segments_written_->Increment();
    partial_encoded_bytes_->Add(meta.bytes);
    partial_raw_bytes_->Add(meta.raw_bytes);
  }
  segments_.push_back(meta);

  const Tick io_ticks =
      (meta.bytes + config_.write_bytes_per_tick - 1) /
      config_.write_bytes_per_tick;
  return io_ticks;
}

Status SpillStore::RemoveSegment(int64_t segment_id) {
  // segment_id is assigned from a per-store monotonic counter and
  // segments_ is append-only in assignment order, so it is sorted.
  auto it = std::lower_bound(
      segments_.begin(), segments_.end(), segment_id,
      [](const SpillSegmentMeta& m, int64_t id) { return m.segment_id < id; });
  if (it == segments_.end() || it->segment_id != segment_id) {
    return Status::NotFound("no spill segment with id " +
                            std::to_string(segment_id));
  }
  DCAPE_RETURN_IF_ERROR(backend_->Remove(it->object_name));
  resident_bytes_->Add(-it->bytes);
  segments_.erase(it);
  return Status::OK();
}

StatusOr<std::string> SpillStore::ReadSegment(const SpillSegmentMeta& meta,
                                              Tick* io_ticks) const {
  DCAPE_ASSIGN_OR_RETURN(std::string blob, backend_->Read(meta.object_name));
  if (static_cast<int64_t>(blob.size()) != meta.bytes) {
    return Status::Internal("spill segment size mismatch for " +
                            meta.object_name);
  }
  if (io_ticks != nullptr) {
    *io_ticks = (meta.bytes + config_.read_bytes_per_tick - 1) /
                config_.read_bytes_per_tick;
  }
  return blob;
}

StatusOr<std::string> SpillStore::ReadSegmentRange(
    const SpillSegmentMeta& meta, int64_t offset, int64_t len) const {
  return backend_->ReadRange(meta.object_name, offset, len);
}

}  // namespace dcape
