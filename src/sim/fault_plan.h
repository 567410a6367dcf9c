#ifndef DCAPE_SIM_FAULT_PLAN_H_
#define DCAPE_SIM_FAULT_PLAN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/virtual_clock.h"
#include "net/message.h"

namespace dcape {
namespace sim {

/// Which faults a chaos trial injects, and how aggressively. All
/// probabilities are per-event (per message, per disk operation, per
/// engine-tick); zero disables the class. A trial's behaviour is a pure
/// function of (FaultSpec, seed), which is what makes every failure
/// replayable bit-for-bit.
struct FaultSpec {
  /// Network: probability that a message is delayed by an extra
  /// uniform(1, max_extra_delay) ticks. Delays are applied before the
  /// per-link FIFO clamp, so in-order delivery — which the relocation
  /// protocol's drain markers rely on — is preserved; messages on
  /// *different* links still reorder freely.
  double delay_prob = 0.0;
  Tick max_extra_delay = 0;
  /// Deliberate protocol violation (tests only): probability that a
  /// tuple batch is delivered twice. A correct harness MUST flag this.
  double duplicate_batch_prob = 0.0;

  /// Disk: per-operation probabilities of a transient read error, a
  /// corrupted (truncated) read, and a transient write error; plus the
  /// per-write probability that the disk latches broken (every later
  /// write fails until Heal).
  double read_error_prob = 0.0;
  double corrupt_read_prob = 0.0;
  double write_error_prob = 0.0;
  double latch_write_prob = 0.0;

  /// Engine: per-engine-per-tick probability of a stall of
  /// uniform(1, max_stall_ticks) ticks (models GC pauses / CPU steal);
  /// queued batches wait the stall out.
  double stall_prob = 0.0;
  Tick max_stall_ticks = 0;

  /// Streaming-cleanup block reads (SpillStore::ReadSegmentRange):
  /// per-attempt probabilities of a transient read error, a corrupted
  /// (truncated) block, and an injected prefetch stall (~1 ms sleep
  /// before the block lands). Unlike the other disk faults these are
  /// sampled by a pure hash of (seed, engine, object, offset, attempt)
  /// rather than a sequential RNG stream: block reads run concurrently
  /// on worker lanes and the prefetch thread, so draw *order* is not
  /// deterministic — but the draw per identity is. The fetcher's
  /// bounded retry budget re-samples with a fresh attempt number, so
  /// any transient fault clears deterministically.
  double block_read_error_prob = 0.0;
  double block_corrupt_prob = 0.0;
  double block_stall_prob = 0.0;
  /// Keep the block faults active after Heal(). Block reads happen only
  /// during the cleanup phase, which the harness runs post-heal; the
  /// retry budget keeps them output-transparent, so the differential
  /// oracle still demands exact equality.
  bool block_faults_survive_heal = false;

  /// True when at least one fault class is enabled.
  bool AnyEnabled() const;
  /// Comma-separated names of the enabled fault classes ("none" when
  /// everything is off) — the shrinker's output vocabulary.
  std::string Describe() const;
  /// Field-wise union with `other` (max of probabilities/bounds); used
  /// to overlay deliberate-bug specs onto generated ones.
  void MergeMax(const FaultSpec& other);
};

/// The seeded fault source for one chaos trial.
///
/// Determinism contract: network draws happen once per send, in the
/// simulator's fixed send order, disk draws come from a per-engine
/// stream whose operation order is fixed by the virtual schedule, and
/// stall draws are made in engine-id order each tick. Re-running with
/// the same spec and seed therefore replays the identical fault
/// sequence for any --threads value.
///
/// Heal() turns every fault off; the harness calls it between the
/// runtime phase and drain/cleanup so that faults stay output-
/// transparent (the differential oracle demands exact equality).
class FaultPlan {
 public:
  FaultPlan(const FaultSpec& spec, uint64_t seed, int num_engines);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Extra delivery delay for `message` (0 = none).
  Tick SampleExtraDelay(const Message& message);
  /// True when `message` should be delivered twice (bug-injection mode;
  /// only tuple batches are ever duplicated).
  bool SampleDuplicate(const Message& message);

  /// Outcome of one disk operation on `engine`'s backend.
  enum class DiskFault {
    kNone,
    kError,    // the operation fails with an injected Status
    kCorrupt,  // reads only: the blob comes back truncated
  };
  DiskFault SampleRead(EngineId engine);
  DiskFault SampleWrite(EngineId engine);
  /// True once engine's disk has latched broken (until Heal).
  bool write_latched(EngineId engine) const;

  /// Outcome of one streaming-cleanup block read attempt.
  struct BlockFault {
    DiskFault fault = DiskFault::kNone;
    /// Sleep ~1 ms before completing (prefetch-stall injection).
    bool stall = false;
  };
  /// Pure hash of (seed, engine, name, offset, attempt) — thread-safe,
  /// callable concurrently from any lane or the prefetch thread.
  /// Honours Heal() unless spec.block_faults_survive_heal is set.
  BlockFault SampleBlockReadAttempt(EngineId engine, std::string_view name,
                                    int64_t offset, int attempt) const;

  /// Stall duration for `engine` this tick (0 = none). Called once per
  /// engine per tick, in engine-id order.
  Tick SampleStall(EngineId engine);

  /// Disables every fault from now on. Thread-safe (the cleanup's
  /// workers and prefetch thread read it through the block sampler).
  void Heal() { healed_.store(true, std::memory_order_release); }
  bool healed() const { return healed_.load(std::memory_order_acquire); }

  const FaultSpec& spec() const { return spec_; }

 private:
  struct DiskState {
    Rng rng;
    bool write_latched = false;
  };

  FaultSpec spec_;
  /// Kept verbatim for the pure-hash block-fault sampler.
  uint64_t seed_;
  Rng net_rng_;
  Rng stall_rng_;
  std::vector<DiskState> disks_;
  std::atomic<bool> healed_{false};
};

}  // namespace sim
}  // namespace dcape

#endif  // DCAPE_SIM_FAULT_PLAN_H_
