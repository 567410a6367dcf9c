#include "obs/metrics.h"

#include <gtest/gtest.h>


#include "obs/taxonomy.h"

namespace dcape {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CounterCellsAccumulate) {
  MetricsRegistry registry;
  Counter* spills = registry.AddCounter(m::kSpillEvents, /*entity=*/0);
  spills->Increment();
  spills->Add(2);
  EXPECT_EQ(spills->value(), 3);
  EXPECT_EQ(registry.Value(m::kSpillEvents, 0), 3);
}

TEST(MetricsRegistryTest, GaugeCellsGoUpAndDown) {
  MetricsRegistry registry;
  Gauge* resident = registry.AddGauge(m::kResidentBytes, /*entity=*/1);
  resident->Add(100);
  resident->Add(-40);
  EXPECT_EQ(resident->value(), 60);
  resident->Set(5);
  EXPECT_EQ(registry.Value(m::kResidentBytes, 1), 5);
}

TEST(MetricsRegistryTest, EntityAndIndexAreDistinctDimensions) {
  MetricsRegistry registry;
  Counter* e0s0 = registry.AddCounter(m::kTuplesPerStream, 0, 0);
  Counter* e0s1 = registry.AddCounter(m::kTuplesPerStream, 0, 1);
  Counter* e1s0 = registry.AddCounter(m::kTuplesPerStream, 1, 0);
  e0s0->Add(1);
  e0s1->Add(2);
  e1s0->Add(4);
  EXPECT_EQ(registry.Value(m::kTuplesPerStream, 0, 0), 1);
  EXPECT_EQ(registry.Value(m::kTuplesPerStream, 0, 1), 2);
  EXPECT_EQ(registry.Value(m::kTuplesPerStream, 1, 0), 4);
}

TEST(MetricsRegistryTest, ValueOfUnregisteredCellIsZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Value(m::kSpillEvents, 9), 0);
}

TEST(MetricsRegistryTest, CellPointersSurviveLaterRegistrations) {
  MetricsRegistry registry;
  Counter* first = registry.AddCounter(m::kTuplesProcessed, 0);
  for (int e = 1; e < 100; ++e) {
    registry.AddCounter(m::kTuplesProcessed, e);
  }
  first->Add(5);
  EXPECT_EQ(registry.Value(m::kTuplesProcessed, 0), 5);
  EXPECT_EQ(registry.size(), 100);
}

TEST(MetricsRegistryTest, HistogramsAreFindable) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindHistogram(m::kSpillIoTicks, 0), nullptr);
  Histogram* h = registry.AddHistogram(m::kSpillIoTicks, 0);
  h->Add(4);
  const Histogram* found = registry.FindHistogram(m::kSpillIoTicks, 0);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count(), 1);
}

}  // namespace
}  // namespace obs
}  // namespace dcape
