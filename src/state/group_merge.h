#ifndef DCAPE_STATE_GROUP_MERGE_H_
#define DCAPE_STATE_GROUP_MERGE_H_

#include <cstdint>
#include <vector>

#include "common/virtual_clock.h"
#include "state/partition_group.h"
#include "tuple/projection.h"
#include "tuple/tuple.h"

namespace dcape {

/// Emits exactly the join results whose member tuples span the two
/// generations `older` and `newer` of the same partition — i.e.
/// Π(older ∪ newer) − Π(older) − Π(newer) — with the optional projection
/// applied. Returns the number of results (appended to `results` when
/// non-null, in ascending join-key order).
///
/// This is the building block of *online state restore* (§3 of the paper:
/// the state cleanup "can be performed at any time when memory becomes
/// available"): before a disk-resident generation is merged back into the
/// memory-resident group, the cross terms it owes are produced; the
/// merged group then behaves as a single generation for all later
/// processing, and the end-of-run cleanup never double-counts.
int64_t CrossJoinGenerations(const PartitionGroup& older,
                             const PartitionGroup& newer,
                             const ResultProjection* projection,
                             std::vector<JoinResult>* results,
                             Tick window_ticks = 0);

}  // namespace dcape

#endif  // DCAPE_STATE_GROUP_MERGE_H_
