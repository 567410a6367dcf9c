#include "runtime/run_result.h"

#include <sstream>

#include "common/units.h"

namespace dcape {
namespace {

void StorageCsvRow(std::ostream& os, const std::string& label,
                   const StorageCounters& c) {
  os << label << ',' << c.segments_written << ',' << c.segments_resident
     << ',' << c.resident_bytes << ',' << c.encoded_bytes << ','
     << c.raw_bytes << ',' << c.CompressionRatio() << ','
     << c.partial_segments_written << ',' << c.partial_encoded_bytes << ','
     << c.partial_raw_bytes << '\n';
}

}  // namespace

void RunResult::PrintSummary(std::ostream& os) const {
  os << "runtime results: " << runtime_results
     << " (latency p50/p99: " << runtime_latency.Quantile(0.5) << "/"
     << runtime_latency.Quantile(0.99) << " ms)"
     << " | cleanup results: " << cleanup.result_count
     << " | tuples ingested: " << tuples_generated
     << " | relocations: " << coordinator.relocations_completed
     << " | spill events: " << spill_events << " ("
     << FormatBytes(spilled_bytes) << ")"
     << " | forced spills: " << coordinator.forced_spills
     << " | cleanup time: " << cleanup.total_ticks / 1000.0 << " s\n";
  int64_t peak_tracked = 0;
  int64_t peak_resident = 0;
  for (const QueryEngine::Counters& engine : engines) {
    peak_tracked += engine.peak_state_tracked_bytes;
    peak_resident += engine.peak_state_resident_bytes;
  }
  os << "join state (per-engine peaks, summed): resident "
     << FormatBytes(peak_resident) << " vs tracked "
     << FormatBytes(peak_tracked) << "\n";
  if (storage.segments_written > 0) {
    os << "storage: " << storage.segments_written << " segments ("
       << FormatBytes(storage.encoded_bytes) << " encoded / "
       << FormatBytes(storage.raw_bytes) << " raw, ratio "
       << storage.CompressionRatio() << "), resident "
       << storage.segments_resident << " segments ("
       << FormatBytes(storage.resident_bytes) << ")\n";
    if (storage.partial_segments_written > 0) {
      os << "gradual spill: " << storage.partial_segments_written
         << " partial segments (" << FormatBytes(storage.partial_encoded_bytes)
         << " encoded / " << FormatBytes(storage.partial_raw_bytes)
         << " raw)\n";
    }
  }
}

std::string RunResult::StorageCsv() const {
  std::ostringstream os;
  os << "engine,segments_written,segments_resident,resident_bytes,"
        "encoded_bytes,raw_bytes,compression_ratio,"
        "partial_segments_written,partial_encoded_bytes,partial_raw_bytes\n";
  for (size_t e = 0; e < engine_storage.size(); ++e) {
    StorageCsvRow(os, "engine" + std::to_string(e), engine_storage[e]);
  }
  StorageCsvRow(os, "total", storage);
  return os.str();
}

}  // namespace dcape
