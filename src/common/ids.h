#ifndef DCAPE_COMMON_IDS_H_
#define DCAPE_COMMON_IDS_H_

#include <cstdint>

namespace dcape {

/// Index of an input stream of the partitioned operator (0-based). A
/// three-way join has streams 0, 1, 2.
using StreamId = int32_t;

/// Most input streams one m-way join may have. Cluster validation and
/// both segment decoders enforce it; JoinResult stores its member seqs
/// inline in an array of this size, and cleanup enumerates 2^m stream
/// subsets.
constexpr int kMaxStreams = 16;

/// Identifier of one of the `n` hash partitions produced by the split
/// operators (0-based). `n` is much larger than the machine count so that
/// adaptation never re-hashes (§2 of the paper; e.g. 500 partitions over
/// 10 machines).
using PartitionId = int32_t;

/// A value of the join column. The synthetic workload draws keys from a
/// per-partition domain so that partition-by-key routing is consistent.
using JoinKey = int64_t;

/// Index of a query engine (machine) in the cluster (0-based).
using EngineId = int32_t;

/// Address of a node on the simulated network. Engines occupy
/// [0, num_engines); the coordinator, stream-generator and application-
/// server nodes get dedicated ids above that range (see runtime/cluster).
using NodeId = int32_t;

/// Sentinel for "no node".
constexpr NodeId kInvalidNode = -1;

}  // namespace dcape

#endif  // DCAPE_COMMON_IDS_H_
