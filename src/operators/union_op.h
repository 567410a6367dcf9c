#ifndef DCAPE_OPERATORS_UNION_OP_H_
#define DCAPE_OPERATORS_UNION_OP_H_

#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "tuple/tuple.h"

namespace dcape {

/// Merges the output streams of all instances of the partitioned operator
/// into a single stream (paper §2). Since partitions are disjoint, the
/// union is a plain order-of-arrival merge — no duplicate elimination is
/// required, which tests assert separately.
class UnionOp {
 public:
  UnionOp() = default;

  UnionOp(const UnionOp&) = delete;
  UnionOp& operator=(const UnionOp&) = delete;

  /// Appends one producer's batch to the merged output buffer; an empty
  /// buffer takes the batch's vector whole instead of copying into it.
  void Add(std::vector<JoinResult> results) {
    total_ += static_cast<int64_t>(results.size());
    if (merged_.empty()) {
      merged_ = std::move(results);
      return;
    }
    merged_.insert(merged_.end(), std::make_move_iterator(results.begin()),
                   std::make_move_iterator(results.end()));
  }

  /// Removes and returns everything merged so far.
  std::vector<JoinResult> Drain() {
    std::vector<JoinResult> out;
    out.swap(merged_);
    return out;
  }

  /// Results merged over the operator's lifetime.
  int64_t total() const { return total_; }
  /// Results currently buffered (added but not drained).
  int64_t pending() const { return static_cast<int64_t>(merged_.size()); }

 private:
  std::vector<JoinResult> merged_;
  int64_t total_ = 0;
};

}  // namespace dcape

#endif  // DCAPE_OPERATORS_UNION_OP_H_
