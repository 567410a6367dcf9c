#ifndef DCAPE_OBS_METRICS_H_
#define DCAPE_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/histogram.h"
#include "obs/taxonomy.h"

namespace dcape {
namespace obs {

/// A monotonically increasing int64 cell owned by the registry. Updates
/// are plain stores: each cell belongs to exactly one node and is only
/// ever touched by whatever steps that node (the simulator's one thread,
/// or the node's own thread under the realtime driver), so no atomics
/// are needed.
class Counter {
 public:
  void Add(int64_t delta) { value_ += delta; }
  void Increment() { value_ += 1; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Like Counter, but may decrease (resident bytes, queue depths).
class Gauge {
 public:
  void Set(int64_t value) { value_ = value; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// The unified metrics registry: every counter/gauge/histogram in the
/// system is registered here by (name, entity, index) and updated through
/// the returned cell pointer. The registry is the single source that
/// feeds RunResult's compatibility counters, the `.storage.csv` output,
/// and the sampled counter events of the structured trace.
///
/// `name` MUST be an obs::m:: taxonomy constant (compile-time string;
/// kept by pointer). `entity` is the owning engine id, or kCluster for
/// cluster-wide metrics; `index` is an optional second dimension (e.g.
/// stream id), -1 when unused.
///
/// Registration happens at construction time on one thread; updates
/// follow the per-node ownership contract above; reads are taken
/// between ticks, or after the realtime driver joins its threads (never
/// concurrently with updates).
class MetricsRegistry {
 public:
  static constexpr int kCluster = -1;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a new cell. Aborts on a duplicate (name, entity, index) —
  /// every metric has exactly one writer.
  Counter* AddCounter(const char* name, int entity = kCluster,
                      int index = -1);
  Gauge* AddGauge(const char* name, int entity = kCluster, int index = -1);
  Histogram* AddHistogram(const char* name, int entity = kCluster);

  /// Value of one scalar cell; 0 when not registered.
  int64_t Value(std::string_view name, int entity = kCluster,
                int index = -1) const;

  /// The registered histogram, or null.
  const Histogram* FindHistogram(std::string_view name,
                                 int entity = kCluster) const;

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }

 private:
  struct Entry {
    const char* name;
    int entity;
    int index;
    const Counter* counter;  // exactly one of counter/gauge set
    const Gauge* gauge;
  };
  struct HistogramEntry {
    const char* name;
    int entity;
    const Histogram* histogram;
  };

  void CheckUnregistered(const char* name, int entity, int index) const;

  /// Deques: cell pointers handed to callers must survive later
  /// registrations.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> entries_;
  std::vector<HistogramEntry> histogram_entries_;
};

}  // namespace obs
}  // namespace dcape

#endif  // DCAPE_OBS_METRICS_H_
