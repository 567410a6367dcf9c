#include "state/group_merge.h"

#include <algorithm>
#include <array>

#include "common/check.h"

namespace dcape {

int64_t CrossJoinGenerations(const PartitionGroup& older,
                             const PartitionGroup& newer,
                             const ResultProjection* projection,
                             std::vector<JoinResult>* results,
                             Tick window_ticks) {
  DCAPE_CHECK_EQ(older.partition(), newer.partition());
  DCAPE_CHECK_EQ(older.num_streams(), newer.num_streams());
  const int m = older.num_streams();
  DCAPE_CHECK_LE(m, kMaxStreams);

  int64_t produced = 0;
  const uint32_t full = (1u << m) - 1;
  // A cross result takes members from both generations, so only keys both
  // hold can produce one: walk the smaller key set. Keys go ascending,
  // which makes the result sequence a pure function of the two states
  // (restore sends it as is), not of either group's insertion history.
  const PartitionGroup& seed =
      older.DistinctKeyCount() <= newer.DistinctKeyCount() ? older : newer;
  const PartitionGroup* generations[2] = {&older, &newer};
  for (JoinKey key : seed.SortedKeys()) {
    // sides[g][s] = generation g's stream-s chain for this key.
    std::array<std::array<PartitionGroup::RowChain, kMaxStreams>, 2> sides;
    for (size_t g = 0; g < 2; ++g) {
      for (int s = 0; s < m; ++s) {
        sides[g][static_cast<size_t>(s)] = generations[g]->KeyTuples(key, s);
      }
    }
    // Mask bit s set → stream s's member comes from `newer`.
    for (uint32_t mask = 1; mask < full; ++mask) {
      std::array<PartitionGroup::RowChain, kMaxStreams> lists;
      bool all_present = true;
      for (int s = 0; s < m && all_present; ++s) {
        const size_t i = static_cast<size_t>(s);
        lists[i] = sides[(mask >> s) & 1u][i];
        all_present = !lists[i].empty();
      }
      if (!all_present) continue;

      JoinResult result;
      result.partition = older.partition();
      result.join_key = key;
      result.member_seqs.assign(static_cast<size_t>(m), 0);
      std::array<PartitionGroup::RowChain::Iterator, kMaxStreams> cursor;
      for (int s = 0; s < m; ++s) {
        cursor[static_cast<size_t>(s)] = lists[static_cast<size_t>(s)].begin();
      }
      while (true) {
        int64_t agg = 0;
        bool first_member = true;
        Tick min_ts = 0;
        Tick max_ts = 0;
        bool first_ts = true;
        for (int s = 0; s < m; ++s) {
          const size_t i = static_cast<size_t>(s);
          const PartitionGroup::RowRef member = *cursor[i];
          result.member_seqs[i] = member.seq;
          if (first_ts) {
            min_ts = max_ts = member.timestamp;
            first_ts = false;
          } else {
            min_ts = std::min(min_ts, member.timestamp);
            max_ts = std::max(max_ts, member.timestamp);
          }
          if (projection != nullptr) {
            if (s == projection->group_stream) {
              result.group_key = member.category;
            }
            agg = FoldAggregate(projection->op, agg, member.value,
                                first_member);
            first_member = false;
          }
        }
        if (window_ticks <= 0 || max_ts - min_ts <= window_ticks) {
          if (projection != nullptr) result.agg_value = agg;
          result.latest_member_ts = max_ts;
          if (results != nullptr) results->push_back(result);
          ++produced;
        }

        int s = m - 1;
        for (; s >= 0; --s) {
          const size_t i = static_cast<size_t>(s);
          if (++cursor[i] != lists[i].end()) break;
          cursor[i] = lists[i].begin();
        }
        if (s < 0) break;
      }
    }
  }
  return produced;
}

}  // namespace dcape
