#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>

#include "common/virtual_clock.h"
#include "stream/workload.h"

namespace perfbench {

/// What an all-memory, no-adaptation run must produce from a generated
/// input: the number of m-way join results, counted directly from the
/// tuples (one member per stream, equal join keys, member timestamps
/// spanning at most the window when there is one). It shares no code with
/// the engines, so a defect in the join, spill or cleanup path cannot
/// hide in the reference.
struct Reference {
  /// Tuples in the input (all streams).
  int64_t tuples = 0;
  int64_t results = 0;
};

/// Regenerates the input of ticks [0, last_tick] from `workload` and
/// counts its join results. With `drop_one_tuple` the count is taken
/// over the input minus the first emitted tuple that takes part in a
/// result — the benchmark's self-test uses it to prove the output check
/// can fail.
Reference CountJoinResults(const dcape::WorkloadConfig& workload,
                           dcape::Tick last_tick, dcape::Tick window_ticks,
                           bool drop_one_tuple);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
