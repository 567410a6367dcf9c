#include "metrics/histogram.h"

#include <algorithm>

#include "common/check.h"

namespace dcape {

int Histogram::BucketOf(int64_t value) {
  if (value <= 0) return 0;
  // Bucket i (i >= 1) holds [2^(i-1), 2^i).
  int bucket = 1;
  while (bucket < 63 && (int64_t{1} << bucket) <= value) ++bucket;
  return bucket;
}

void Histogram::Add(int64_t value, int64_t count) {
  DCAPE_CHECK_GE(count, 0);
  if (count == 0) return;
  value = std::max<int64_t>(0, value);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += count;
  sum_ += value * count;
  buckets_[static_cast<size_t>(BucketOf(value))] += count;
}

int64_t Histogram::Quantile(double q) const {
  DCAPE_CHECK_GE(q, 0.0);
  DCAPE_CHECK_LE(q, 1.0);
  if (count_ == 0) return 0;
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(q * static_cast<double>(count_)));
  int64_t seen = 0;
  for (size_t bucket = 0; bucket < buckets_.size(); ++bucket) {
    seen += buckets_[bucket];
    if (seen >= rank) {
      // Upper bound of this bucket, clamped to the observed max.
      const int64_t upper =
          bucket == 0 ? 0 : (int64_t{1} << bucket);
      return std::min(upper, max_);
    }
  }
  return max_;
}

}  // namespace dcape
