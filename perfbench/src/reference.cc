#include "reference.h"

#include <algorithm>
#include <vector>

#include "stream/stream_generator.h"

namespace perfbench {
namespace {

using dcape::JoinKey;
using dcape::StreamGenerator;
using dcape::Tick;
using dcape::Tuple;

/// Dense index of a join key: the keys of partition p are
/// p * kKeyStride + [0, KeysPerPartition(p)).
class KeyIndex {
 public:
  explicit KeyIndex(const dcape::WorkloadConfig& workload) {
    for (dcape::PartitionId p = 0; p < workload.num_partitions; ++p) {
      offsets_.push_back(size_);
      size_ += static_cast<size_t>(dcape::KeysPerPartition(workload, p));
    }
  }
  size_t operator()(JoinKey key) const {
    const dcape::PartitionId p = StreamGenerator::PartitionOfKey(key);
    return offsets_[static_cast<size_t>(p)] +
           static_cast<size_t>(key - p * StreamGenerator::kKeyStride);
  }
  size_t size() const { return size_; }

 private:
  std::vector<size_t> offsets_;
  size_t size_ = 0;
};

struct Member {
  Tick ts = 0;
  int32_t stream = 0;
  int64_t seq = 0;
};

/// Results among one key's members (in emission order, so timestamps
/// never decrease), leaving out members[skip] (none when skip is out of
/// range). Each combination is counted once, at its earliest member i:
/// it joins iff every other member lies within `window` of members[i]
/// (any distance when window <= 0).
int64_t CountCombinations(const std::vector<Member>& members, int num_streams,
                          Tick window, size_t skip) {
  int64_t total = 0;
  std::vector<int64_t> in_range(static_cast<size_t>(num_streams));
  for (size_t i = 0; i < members.size(); ++i) {
    if (i == skip) continue;
    std::fill(in_range.begin(), in_range.end(), 0);
    for (size_t j = i + 1; j < members.size(); ++j) {
      if (window > 0 && members[j].ts - members[i].ts > window) break;
      if (j != skip) ++in_range[static_cast<size_t>(members[j].stream)];
    }
    int64_t combos = 1;
    for (int s = 0; s < num_streams; ++s) {
      if (s != members[i].stream) combos *= in_range[static_cast<size_t>(s)];
    }
    total += combos;
  }
  return total;
}

/// Calls `fn(tuple)` for every tuple of ticks [0, last_tick] in emission
/// order until it returns false.
template <typename Fn>
void ForEachTuple(const dcape::WorkloadConfig& workload, Tick last_tick,
                  Fn fn) {
  StreamGenerator generator(workload);
  for (Tick t = 0; t <= last_tick; ++t) {
    for (const Tuple& tuple : generator.EmitForTick(t)) {
      if (!fn(tuple)) return;
    }
  }
}

}  // namespace

Reference CountJoinResults(const dcape::WorkloadConfig& workload,
                           Tick last_tick, Tick window_ticks,
                           bool drop_one_tuple) {
  const KeyIndex index(workload);
  const int m = workload.num_streams;
  const size_t none = static_cast<size_t>(-1);
  Reference ref;
  std::vector<std::vector<Member>> members(index.size());
  ForEachTuple(workload, last_tick, [&](const Tuple& t) {
    members[index(t.join_key)].push_back(
        Member{t.timestamp, t.stream_id, t.seq});
    ++ref.tuples;
    return true;
  });
  for (const std::vector<Member>& key_members : members) {
    ref.results += CountCombinations(key_members, m, window_ticks, none);
  }
  if (drop_one_tuple) {
    ForEachTuple(workload, last_tick, [&](const Tuple& t) {
      const std::vector<Member>& key_members = members[index(t.join_key)];
      size_t pos = 0;
      while (key_members[pos].stream != t.stream_id ||
             key_members[pos].seq != t.seq) {
        ++pos;
      }
      const int64_t delta =
          CountCombinations(key_members, m, window_ticks, none) -
          CountCombinations(key_members, m, window_ticks, pos);
      ref.results -= delta;
      return delta == 0;
    });
  }
  return ref;
}

}  // namespace perfbench
