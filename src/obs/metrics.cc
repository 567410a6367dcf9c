#include "obs/metrics.h"

#include "common/check.h"

namespace dcape {
namespace obs {

void MetricsRegistry::CheckUnregistered(const char* name, int entity,
                                        int index) const {
  for (const Entry& e : entries_) {
    // Duplicate (name, entity, index) registration: every metric has
    // exactly one writer.
    DCAPE_CHECK(!(std::string_view(e.name) == name && e.entity == entity &&
                  e.index == index));
  }
}

Counter* MetricsRegistry::AddCounter(const char* name, int entity,
                                     int index) {
  DCAPE_CHECK(name != nullptr);
  CheckUnregistered(name, entity, index);
  counters_.emplace_back();
  Counter* cell = &counters_.back();
  entries_.push_back(Entry{name, entity, index, cell, nullptr});
  return cell;
}

Gauge* MetricsRegistry::AddGauge(const char* name, int entity, int index) {
  DCAPE_CHECK(name != nullptr);
  CheckUnregistered(name, entity, index);
  gauges_.emplace_back();
  Gauge* cell = &gauges_.back();
  entries_.push_back(Entry{name, entity, index, nullptr, cell});
  return cell;
}

Histogram* MetricsRegistry::AddHistogram(const char* name, int entity) {
  DCAPE_CHECK(name != nullptr);
  for (const HistogramEntry& e : histogram_entries_) {
    DCAPE_CHECK(!(std::string_view(e.name) == name && e.entity == entity));
  }
  histograms_.emplace_back();
  Histogram* cell = &histograms_.back();
  histogram_entries_.push_back(HistogramEntry{name, entity, cell});
  return cell;
}

int64_t MetricsRegistry::Value(std::string_view name, int entity,
                               int index) const {
  for (const Entry& e : entries_) {
    if (std::string_view(e.name) == name && e.entity == entity &&
        e.index == index) {
      return e.counter != nullptr ? e.counter->value() : e.gauge->value();
    }
  }
  return 0;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name,
                                                int entity) const {
  for (const HistogramEntry& e : histogram_entries_) {
    if (std::string_view(e.name) == name && e.entity == entity) {
      return e.histogram;
    }
  }
  return nullptr;
}

}  // namespace obs
}  // namespace dcape
