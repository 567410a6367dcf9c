#ifndef DCAPE_METRICS_HISTOGRAM_H_
#define DCAPE_METRICS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace dcape {

/// A log-bucketed histogram of non-negative int64 samples (latencies,
/// sizes). Buckets double in width: [0,1), [1,2), [2,4), [4,8), …, so
/// percentile queries are exact to within a factor of two at any scale,
/// with O(64) memory.
class Histogram {
 public:
  Histogram() : buckets_(64, 0) {}

  /// Records `count` samples of `value` (negatives clamp to 0); the same
  /// as `count` calls of Add(value).
  void Add(int64_t value, int64_t count = 1);

  /// Number of samples.
  int64_t count() const { return count_; }
  /// Sum of samples.
  int64_t sum() const { return sum_; }
  /// Mean of samples (0 when empty).
  double Mean() const {
    return count_ > 0 ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
  }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return count_ > 0 ? max_ : 0; }

  /// Upper bound of the bucket containing the q-quantile (q in [0, 1]).
  /// Exact to within 2x; 0 when empty.
  int64_t Quantile(double q) const;

 private:
  static int BucketOf(int64_t value);

  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace dcape

#endif  // DCAPE_METRICS_HISTOGRAM_H_
