#include "cleanup/cleanup.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "cleanup/block_reader.h"
#include "common/check.h"
#include "runtime/exec_pool.h"
#include "state/partition_group.h"

namespace dcape {
namespace {

/// What one partition's merge contributes to the global CleanupStats.
/// Accumulated privately per partition so the merge loop can run on any
/// ExecPool lane, then folded into the stats in fixed partition order.
struct PartitionOutcome {
  /// First decode/read error of this partition's merge (the whole Run
  /// fails with the lowest-partition error).
  Status status = Status::OK();
  EngineId home = 0;
  /// Busy time charged to the home engine (network fetch + join CPU).
  Tick home_ticks = 0;
  int64_t produced = 0;
  std::vector<JoinResult> results;
};

/// Concatenates the partitions' retained results in partition order.
/// Results are stored by value (inline member seqs), so each
/// partition's buffer is released as soon as it is copied out rather
/// than living on beside the concatenation.
std::vector<JoinResult> GatherResults(
    std::vector<PartitionOutcome>* outcomes) {
  size_t total = 0;
  for (const PartitionOutcome& outcome : *outcomes) {
    total += outcome.results.size();
  }
  std::vector<JoinResult> results;
  results.reserve(total);
  for (PartitionOutcome& outcome : *outcomes) {
    results.insert(results.end(), outcome.results.begin(),
                   outcome.results.end());
    std::vector<JoinResult>().swap(outcome.results);
  }
  return results;
}

/// One generation of a partition as the merge sees it *before* any data
/// is read: metadata plus a handle to open cursors from. Exactly one of
/// (store, meta) / group is set.
struct GenerationSource {
  EngineId home = 0;
  /// An eviction *fragment*: window-expired tuples preserved because
  /// their partition had disk generations. A fragment belongs to the
  /// logical generation it was evicted from, which ends at the next spill
  /// (or the memory remainder), so its tuples join that generation before
  /// the incremental merge: combinations inside one logical generation —
  /// produced at run time or outside the window — are then exactly the
  /// excluded all-Δ term.
  bool evicted = false;
  /// Ordering key: spill time for disk generations; memory remainders
  /// sort last.
  Tick order_time = 0;
  int64_t order_tiebreak = 0;
  int64_t bytes = 0;
  /// Disk generation: segment of `store` described by `meta` (which
  /// points into store->segments(); stable — cleanup never mutates the
  /// stores).
  const SpillStore* store = nullptr;
  const SpillSegmentMeta* meta = nullptr;
  /// Memory-resident remainder.
  const PartitionGroup* group = nullptr;
};

/// The work item the dispatcher hands a pool lane.
struct PartitionWork {
  PartitionId partition = 0;
  std::vector<GenerationSource> sources;
};

/// A source with its per-stream cursors opened.
struct OpenSource {
  std::vector<std::unique_ptr<KeyRunCursor>> cursors;  // one per stream
  std::vector<bool> active;  // cursor currently holds a key run
  /// Units count 0..U-1 in sorted order; fragments carry the index of
  /// the next unit after them instead (== U when none).
  bool is_unit = false;
  size_t unit_index = 0;
};

/// Opens the per-stream cursors of one source: blockwise section cursors
/// over a disk generation's segment (Run has checked its section index),
/// MemoryGenCursor over a memory remainder.
void OpenCursors(const CleanupConfig& config, int num_streams,
                 const GenerationSource& src, MemoryTracker* tracker,
                 BlockIoStats* io_stats, OpenSource* open) {
  open->cursors.resize(static_cast<size_t>(num_streams));
  open->active.assign(static_cast<size_t>(num_streams), false);
  for (int s = 0; s < num_streams; ++s) {
    std::unique_ptr<KeyRunCursor>& cursor =
        open->cursors[static_cast<size_t>(s)];
    if (src.group != nullptr) {
      cursor = std::make_unique<MemoryGenCursor>(
          src.group, static_cast<StreamId>(s), tracker);
      continue;
    }
    const SegmentSections& sections = src.meta->sections;
    const int64_t begin = sections.offsets[static_cast<size_t>(s)];
    const int64_t end = sections.offsets[static_cast<size_t>(s) + 1];
    auto reader = std::make_unique<BlockedReader>(
        [store = src.store, meta = src.meta](int64_t offset, int64_t len) {
          return store->ReadSegmentRange(*meta, offset, len);
        },
        begin, end, config.block_bytes, tracker, io_stats);
    if (sections.format == SegmentFormat::kV2) {
      cursor = std::make_unique<V2SectionCursor>(std::move(reader), tracker);
    } else {
      cursor = std::make_unique<V1SectionCursor>(
          std::move(reader), static_cast<StreamId>(s), tracker);
    }
  }
}

/// Tasks (2)+(3) of §3 for one partition: order its generations, route
/// eviction fragments, pick the cleanup home, and emit the
/// cross-generation results Π(C∪Δ)−Π(C)−Π(Δ). Evaluated key-by-key over
/// a k-way merge of the generations' cursors, so resident memory stays
/// O(one block per cursor + current key); results come out in ascending
/// (key, generation, mask) order. Partitions share only the atomic
/// tracker and I/O counters, which is what makes the parallel dispatch
/// race-free.
PartitionOutcome ProcessPartition(const CleanupConfig& config,
                                  int num_streams, const PartitionWork& work,
                                  MemoryTracker* tracker,
                                  BlockIoStats* io_stats) {
  PartitionOutcome outcome;
  if (work.sources.size() < 2) return outcome;
  std::vector<const GenerationSource*> sources;
  sources.reserve(work.sources.size());
  for (const GenerationSource& src : work.sources) sources.push_back(&src);
  std::sort(sources.begin(), sources.end(),
            [](const GenerationSource* a, const GenerationSource* b) {
              if (a->order_time != b->order_time) {
                return a->order_time < b->order_time;
              }
              if (a->home != b->home) return a->home < b->home;
              return a->order_tiebreak < b->order_tiebreak;
            });

  const size_t m = static_cast<size_t>(num_streams);
  std::vector<OpenSource> opened(sources.size());
  size_t num_units = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    opened[i].is_unit = !sources[i]->evicted;
    // For units: their own ordinal. For fragments: the index of the
    // next unit in sorted order (the start of their per-key search
    // range).
    opened[i].unit_index = num_units;
    if (opened[i].is_unit) ++num_units;
  }

  // Content-based: set once any fragment key coalesces into the
  // conceptual trailing unit (index num_units).
  bool has_trailing = false;
  // Tracked bytes charged for the current key's merged/cumulative lists.
  int64_t key_charged = 0;
  auto charge = [&](int64_t members) {
    const int64_t bytes =
        members * static_cast<int64_t>(sizeof(MemberRef));
    tracker->Add(bytes);
    key_charged += bytes;
  };

  // Effective member lists of the current key, per generation (units
  // then trailing) per stream, and the per-key cumulative C tables.
  // Allocated once; inner vectors are cleared per key.
  std::vector<std::vector<std::vector<MemberRef>>> gen_lists(
      num_units + 1, std::vector<std::vector<MemberRef>>(m));
  std::vector<std::vector<MemberRef>> cum(m);

  Status merge_status = [&]() -> Status {
    for (OpenSource& open : opened) {
      const size_t i = static_cast<size_t>(&open - opened.data());
      OpenCursors(config, num_streams, *sources[i], tracker, io_stats, &open);
      for (size_t s = 0; s < m; ++s) {
        DCAPE_ASSIGN_OR_RETURN(bool more, open.cursors[s]->Advance());
        open.active[s] = more;
      }
    }

    while (true) {
      // Minimum key over all active cursors.
      bool any = false;
      JoinKey key = 0;
      for (const OpenSource& open : opened) {
        for (size_t s = 0; s < m; ++s) {
          if (!open.active[s]) continue;
          const JoinKey k = open.cursors[s]->key();
          if (!any || k < key) {
            any = true;
            key = k;
          }
        }
      }
      if (!any) break;

      for (auto& per_stream : gen_lists) {
        for (auto& list : per_stream) list.clear();
      }
      for (auto& list : cum) list.clear();

      // Gather the units' own runs at this key. A unit "contains" the
      // key iff one of its cursors is at it; fragment routing below
      // tests containment against these original runs only (a fragment
      // only ever lands in a unit that already holds the key, so
      // routing never grows a unit's key set).
      std::vector<bool> unit_has_key(num_units, false);
      for (const OpenSource& open : opened) {
        if (!open.is_unit) continue;
        for (size_t s = 0; s < m; ++s) {
          if (!open.active[s] || open.cursors[s]->key() != key) continue;
          unit_has_key[open.unit_index] = true;
          const std::vector<MemberRef>& members = open.cursors[s]->members();
          gen_lists[open.unit_index][s] = members;
          charge(static_cast<int64_t>(members.size()));
        }
      }
      // Route fragment runs per key. A partial (bucket-granular) spill
      // carries only the cold keys while a fragment tuple's runtime
      // partners stay in the hot residue and surface in a later
      // generation, so the logical generation a fragment key closes in
      // is the first unit at or after the fragment that contains the
      // key (for whole-group spills, simply the next unit). Keys no
      // later unit contains form one trailing unit: within a key, pairs
      // that never coexisted in memory are separated by more than the
      // window and excluded by the span check either way. Fragments
      // append in sorted order, after the unit's own members.
      for (const OpenSource& open : opened) {
        if (open.is_unit) continue;
        for (size_t s = 0; s < m; ++s) {
          if (!open.active[s] || open.cursors[s]->key() != key) continue;
          size_t target = num_units;  // trailing
          for (size_t u = open.unit_index; u < num_units; ++u) {
            if (unit_has_key[u]) {
              target = u;
              break;
            }
          }
          if (target == num_units) has_trailing = true;
          const std::vector<MemberRef>& members = open.cursors[s]->members();
          std::vector<MemberRef>& bucket = gen_lists[target][s];
          bucket.insert(bucket.end(), members.begin(), members.end());
          charge(static_cast<int64_t>(members.size()));
        }
      }

      // Per-key incremental expansion over the generation sequence
      // (units in order, conceptual trailing last): for each Δ, emit
      // every mask with at least one Δ-side and one C-side stream.
      const uint32_t full = (1u << num_streams) - 1;
      for (size_t g = 0; g < gen_lists.size(); ++g) {
        const std::vector<std::vector<MemberRef>>& delta = gen_lists[g];
        if (g > 0) {
          for (uint32_t mask = 1; mask < full; ++mask) {
            std::vector<const std::vector<MemberRef>*> lists(m, nullptr);
            bool all_present = true;
            for (size_t s = 0; s < m && all_present; ++s) {
              const std::vector<MemberRef>& source =
                  ((mask >> s) & 1u) ? delta[s] : cum[s];
              if (source.empty()) {
                all_present = false;
              } else {
                lists[s] = &source;
              }
            }
            if (!all_present) continue;

            std::vector<size_t> cursor(m, 0);
            JoinResult result;
            result.partition = work.partition;
            result.join_key = key;
            result.member_seqs.assign(m, 0);
            while (true) {
              int64_t agg = 0;
              bool first_member = true;
              Tick min_ts = 0;
              Tick max_ts = 0;
              bool first_ts = true;
              for (int s = 0; s < num_streams; ++s) {
                const MemberRef& member =
                    (*lists[static_cast<size_t>(s)])[cursor[
                        static_cast<size_t>(s)]];
                result.member_seqs[static_cast<size_t>(s)] = member.seq;
                if (first_ts) {
                  min_ts = max_ts = member.timestamp;
                  first_ts = false;
                } else {
                  min_ts = std::min(min_ts, member.timestamp);
                  max_ts = std::max(max_ts, member.timestamp);
                }
                if (config.projection.has_value()) {
                  if (s == config.projection->group_stream) {
                    result.group_key = member.category;
                  }
                  agg = FoldAggregate(config.projection->op, agg,
                                      member.value, first_member);
                  first_member = false;
                }
              }
              if (config.window_ticks <= 0 ||
                  max_ts - min_ts <= config.window_ticks) {
                if (config.projection.has_value()) result.agg_value = agg;
                result.latest_member_ts = max_ts;
                outcome.produced += 1;
                if (config.collect_results) outcome.results.push_back(result);
              }

              int s = num_streams - 1;
              for (; s >= 0; --s) {
                size_t& c = cursor[static_cast<size_t>(s)];
                if (++c < lists[static_cast<size_t>(s)]->size()) break;
                c = 0;
              }
              if (s < 0) break;
            }
          }
        }
        // Merge Δ into this key's C.
        for (size_t s = 0; s < m; ++s) {
          if (delta[s].empty()) continue;
          cum[s].insert(cum[s].end(), delta[s].begin(), delta[s].end());
          charge(static_cast<int64_t>(delta[s].size()));
        }
      }

      // Release this key's merged lists before touching the cursors:
      // Advance below may fail, and the early return must leave the
      // tracker balanced.
      tracker->Add(-key_charged);
      key_charged = 0;

      for (OpenSource& open : opened) {
        for (size_t s = 0; s < m; ++s) {
          if (!open.active[s] || open.cursors[s]->key() != key) continue;
          DCAPE_ASSIGN_OR_RETURN(bool more, open.cursors[s]->Advance());
          open.active[s] = more;
        }
      }
    }
    return Status::OK();
  }();
  if (key_charged > 0) {
    tracker->Add(-key_charged);
    key_charged = 0;
  }
  if (!merge_status.ok()) {
    outcome.status = std::move(merge_status);
    return outcome;
  }

  // Tick model, deferred to after the merge (has_trailing — whether the
  // conceptual trailing generation has any content — is only known
  // now). Bytes are attributed per whole fragment, from metadata alone:
  // a fragment's bytes count toward the next unit after it, or toward
  // the trailing unit (held by the last such fragment's engine) when
  // none follows. They only steer the home choice and the tick model.
  std::vector<int64_t> unit_bytes;
  std::vector<EngineId> unit_home;
  unit_bytes.reserve(num_units);
  unit_home.reserve(num_units);
  int64_t trailing_bytes = 0;
  EngineId trailing_home = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (!opened[i].is_unit) continue;
    unit_bytes.push_back(sources[i]->bytes);
    unit_home.push_back(sources[i]->home);
  }
  // Second pass: a fragment's target unit sorts after it, so every unit
  // slot must exist before any fragment's bytes can land in one.
  for (size_t i = 0; i < sources.size(); ++i) {
    if (opened[i].is_unit) continue;
    if (opened[i].unit_index < num_units) {
      unit_bytes[opened[i].unit_index] += sources[i]->bytes;
    } else {
      trailing_home = sources[i]->home;
      trailing_bytes += sources[i]->bytes;
    }
  }
  const size_t total_gens = num_units + (has_trailing ? 1 : 0);
  if (total_gens < 2) return outcome;

  std::map<EngineId, int64_t> bytes_at;
  for (size_t u = 0; u < num_units; ++u) {
    bytes_at[unit_home[u]] += unit_bytes[u];
  }
  if (has_trailing) bytes_at[trailing_home] += trailing_bytes;
  EngineId home = num_units > 0 ? unit_home[0] : trailing_home;
  int64_t best = -1;
  for (const auto& [engine, bytes] : bytes_at) {
    if (bytes > best) {
      best = bytes;
      home = engine;
    }
  }
  outcome.home = home;
  auto charge_network = [&](EngineId gen_home, int64_t gen_bytes) {
    if (gen_home == home) return;
    outcome.home_ticks += (gen_bytes + config.network_bytes_per_tick - 1) /
                          config.network_bytes_per_tick;
  };
  for (size_t u = 0; u < num_units; ++u) {
    charge_network(unit_home[u], unit_bytes[u]);
  }
  if (has_trailing) charge_network(trailing_home, trailing_bytes);

  if (outcome.produced > 0) {
    outcome.home_ticks += (outcome.produced + config.results_per_tick - 1) /
                          config.results_per_tick;
  }
  return outcome;
}

}  // namespace

CleanupProcessor::CleanupProcessor(const CleanupConfig& config,
                                   int num_streams)
    : config_(config), num_streams_(num_streams) {
  DCAPE_CHECK_GE(num_streams, 2);
  // Subset expansion enumerates 2^m masks; keep m sane.
  DCAPE_CHECK_LE(num_streams, kMaxStreams);
  DCAPE_CHECK_GT(config_.results_per_tick, 0);
  DCAPE_CHECK_GT(config_.network_bytes_per_tick, 0);
  DCAPE_CHECK_GT(config_.block_bytes, 0);
}

StatusOr<CleanupStats> CleanupProcessor::Run(
    const std::vector<const SpillStore*>& spill_stores,
    const std::vector<const StateManager*>& state_managers,
    ExecPool* pool) const {
  CleanupStats stats;
  const size_t num_engines =
      std::max(spill_stores.size(), state_managers.size());
  stats.engine_ticks.assign(num_engines, 0);

  // ---- Task (1) of §3, metadata-only: organize the generations by
  // partition and charge the virtual read cost per segment up front —
  // the cost model reads whole segments regardless of how the bytes
  // arrive, while the actual reads happen blockwise inside the merge.
  std::map<PartitionId, PartitionWork> partitions;
  for (size_t e = 0; e < spill_stores.size(); ++e) {
    const SpillStore* store = spill_stores[e];
    if (store == nullptr) continue;
    const int64_t read_bw = store->config().read_bytes_per_tick;
    for (const SpillSegmentMeta& meta : store->segments()) {
      if (meta.tuple_count == 0) continue;
      // Cursors range-read the per-stream sections SpillStore indexed at
      // write time; a segment without an index is not a group blob.
      if (meta.sections.offsets.empty()) {
        return Status::InvalidArgument(
            "spilled segment without a section index during cleanup");
      }
      if (meta.sections.num_streams != num_streams_) {
        return Status::InvalidArgument(
            "spilled group stream count mismatch during cleanup");
      }
      stats.engine_ticks[e] += (meta.bytes + read_bw - 1) / read_bw;
      stats.segments_read += 1;
      stats.bytes_read += meta.bytes;
      GenerationSource src;
      src.home = static_cast<EngineId>(e);
      src.evicted = meta.evicted;
      src.order_time = meta.spill_time;
      src.order_tiebreak = meta.segment_id;
      src.bytes = meta.bytes;
      src.store = store;
      src.meta = &meta;
      PartitionWork& work = partitions[meta.partition];
      work.partition = meta.partition;
      work.sources.push_back(src);
    }
  }

  // Memory-resident remainders participate as the final generation.
  for (size_t e = 0; e < state_managers.size(); ++e) {
    const StateManager* state = state_managers[e];
    if (state == nullptr) continue;
    for (PartitionId p : state->PartitionIds()) {
      const PartitionGroup* group = state->FindGroup(p);
      if (group == nullptr || group->tuple_count() == 0) continue;
      GenerationSource src;
      src.home = static_cast<EngineId>(e);
      src.order_time = std::numeric_limits<Tick>::max();
      src.order_tiebreak = static_cast<int64_t>(e);
      src.bytes = group->bytes();
      src.group = group;
      PartitionWork& work = partitions[p];
      work.partition = p;
      work.sources.push_back(src);
    }
  }

  // ---- Tasks (2)+(3), streaming: per partition, k-way merge the
  // generation cursors in key order. Each lane reads its own
  // partition's blocks; every segment is already on its backend, so
  // concurrent block reads are safe.
  MemoryTracker tracker;
  BlockIoStats io_stats;

  std::vector<PartitionWork> work;
  work.reserve(partitions.size());
  for (auto& entry : partitions) {
    work.push_back(std::move(entry.second));
  }
  std::vector<PartitionOutcome> outcomes(work.size());
  const auto process = [&](int i) {
    outcomes[static_cast<size_t>(i)] = ProcessPartition(
        config_, num_streams_, work[static_cast<size_t>(i)], &tracker,
        &io_stats);
  };
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<int>(work.size()), process);
  } else {
    for (int i = 0; i < static_cast<int>(work.size()); ++i) process(i);
  }

  // First failure in partition order wins, so the surfaced error is
  // deterministic across thread counts.
  for (PartitionOutcome& outcome : outcomes) {
    DCAPE_RETURN_IF_ERROR(outcome.status);
  }

  for (PartitionOutcome& outcome : outcomes) {
    if (outcome.home_ticks > 0) {
      stats.engine_ticks[static_cast<size_t>(outcome.home)] +=
          outcome.home_ticks;
    }
    stats.result_count += outcome.produced;
    if (outcome.produced > 0) stats.partitions_cleaned += 1;
  }
  if (config_.collect_results) stats.results = GatherResults(&outcomes);

  stats.blocks_read = io_stats.blocks_read.load(std::memory_order_relaxed);
  stats.block_read_retries = io_stats.retries.load(std::memory_order_relaxed);
  stats.peak_resident_bytes = tracker.peak();
  stats.resident_bytes_leaked = tracker.current();

  for (Tick t : stats.engine_ticks) {
    stats.total_ticks = std::max(stats.total_ticks, t);
  }
  return stats;
}

}  // namespace dcape
