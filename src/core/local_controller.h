#ifndef DCAPE_CORE_LOCAL_CONTROLLER_H_
#define DCAPE_CORE_LOCAL_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/virtual_clock.h"
#include "core/productivity.h"
#include "core/strategy.h"
#include "core/victim_policy.h"
#include "state/state_manager.h"

namespace dcape {

/// The per-engine local adaptation controller (paper §2, Fig. 4).
///
/// It owns the *fine-grained* decisions: which partition groups to spill
/// when the engine's memory overflows (least productive first, k% of
/// state), and which groups to offer when the global coordinator asks for
/// `amount` bytes to relocate (most productive first). The *coarse*
/// decisions — when to relocate, between which engines, and when to force
/// a spill — belong to the GlobalCoordinator.
class LocalController {
 public:
  LocalController(const SpillConfig& config,
                  const ProductivityConfig& productivity, uint64_t seed)
      : config_(config),
        tracker_(productivity),
        rng_(seed),
        ss_timer_(config.ss_timer_period) {}

  LocalController(const LocalController&) = delete;
  LocalController& operator=(const LocalController&) = delete;

  /// The ss_timer check (Algorithm 1, "ss_timer_expired"): if the tracked
  /// memory exceeds threshold^mem, returns a gradual (bucket-granular)
  /// spill *plan* for k% of the resident state (or the adaptive target,
  /// SpillTargetBytes) — whole groups while they fit under the target,
  /// then one final partial request whose hot residue stays resident.
  /// Groups locked by an in-flight relocation are never planned; an
  /// empty plan means "no spill". Ordering comes from the
  /// incrementally re-costed SpillScoreModel when it has seen a stats
  /// window (kLeastProductiveFirst), falling back to the snapshot
  /// ranking for the other policies / the pre-stats cold start. Sizes
  /// always come from the live state, never the model.
  std::vector<SpillRequest> PlanSpill(Tick now, const StateManager& state);

  /// Gradual plan for a coordinator-forced spill (active-disk
  /// "start_ss"): `amount_bytes` of the least productive unlocked state;
  /// the last victim spills partially.
  std::vector<SpillRequest> PlanForcedSpill(const StateManager& state,
                                            int64_t amount_bytes);

  /// Selection for relocation step 2 ("computePartsToMove"): the most
  /// productive unlocked groups totaling `amount_bytes`.
  std::vector<PartitionId> ChoosePartitionsToMove(const StateManager& state,
                                                  int64_t amount_bytes);

  /// Advances the productivity estimator by one statistics window (the
  /// engine calls this on its stats timer). A no-op for the cumulative
  /// model.
  void RollProductivityWindow(const StateManager& state);

  const SpillConfig& config() const { return config_; }
  const ProductivityTracker& tracker() const { return tracker_; }
  const SpillScoreModel& scores() const { return scores_; }

 private:
  /// Stats snapshot with model-refined productivity values.
  std::vector<GroupStats> RefinedStats(const StateManager& state) const;
  /// Spill-first partition ordering for `policy` (model-backed when
  /// possible) and the plan built from it against live group sizes.
  std::vector<SpillRequest> BuildPlan(const StateManager& state,
                                      SpillPolicy policy,
                                      int64_t target_bytes);

  SpillConfig config_;
  ProductivityTracker tracker_;
  SpillScoreModel scores_;
  /// True once the score model has folded in at least one stats window.
  bool scores_ready_ = false;
  Rng rng_;
  PeriodicTimer ss_timer_;
};

}  // namespace dcape

#endif  // DCAPE_CORE_LOCAL_CONTROLLER_H_
