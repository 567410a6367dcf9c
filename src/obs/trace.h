#ifndef DCAPE_OBS_TRACE_H_
#define DCAPE_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/virtual_clock.h"
#include "obs/taxonomy.h"

namespace dcape {
namespace obs {

/// One typed argument of a trace event. Keys must be string literals
/// (they are kept by pointer); values are int64 or double.
struct TraceArg {
  const char* key = nullptr;
  bool is_double = false;
  int64_t i = 0;
  double d = 0.0;

  static TraceArg Int(const char* key, int64_t value) {
    TraceArg a;
    a.key = key;
    a.i = value;
    return a;
  }
  static TraceArg Double(const char* key, double value) {
    TraceArg a;
    a.key = key;
    a.is_double = true;
    a.d = value;
    return a;
  }
};

/// The shape of a trace event, mirroring Chrome trace_event phases.
enum class TracePhase : uint8_t {
  kInstant,   // "i": a point event
  kComplete,  // "X": a span whose (virtual) duration is known at emit time
  kBegin,     // "b": async span open, keyed by (name, scope)
  kEnd,       // "e": async span close
  kCounter,   // "C": a sampled counter value
};

/// One structured trace event, stamped with the virtual-clock tick and
/// the emitting node's lane. `name` MUST be an obs::ev:: taxonomy
/// constant (see obs/taxonomy.h) — enforced by dcape-lint's trace-name
/// check at the Emit* call sites.
struct TraceEvent {
  Tick tick = 0;
  int32_t lane = 0;
  TracePhase phase = TracePhase::kInstant;
  const char* name = nullptr;
  /// Async-span key (relocation id, …); -1 = none.
  int64_t scope = -1;
  /// Virtual duration, kComplete only.
  Tick duration = 0;
  /// Sampled value, kCounter only.
  int64_t value = 0;
  std::vector<TraceArg> args;
};

/// The deterministic structured trace.
///
/// Buffering discipline: events append to a per-lane buffer, where a
/// lane is one node (engines, coordinator, split hosts, sink, generator)
/// plus one extra *driver* lane for the cluster itself. Each lane is
/// only ever appended to by whatever steps that node (the simulator's
/// one thread, or the node's own thread under the realtime driver), so
/// emission needs no locks, and the merged stream — ordered by (tick,
/// lane, per-lane emit order) — is a pure function of the simulation,
/// independent of `--threads` and of wall-clock scheduling. That is the
/// whole determinism argument: per-lane order is deterministic because
/// each node's step sequence is, and the merge key contains no
/// wall-clock or thread-dependent component.
///
/// Cost when disabled: the cluster simply holds no Tracer, and every
/// instrumentation site is behind `DCAPE_TRACE_ACTIVE(tracer)` — a null
/// check, or constant false when compiled out with DCAPE_OBS_NO_TRACING.
class Tracer {
 public:
  /// `num_lanes` = highest node id + 2 (the last lane is the driver's).
  /// `verbose` additionally records hot-path data-plane events
  /// (per-batch engine.batch instants).
  explicit Tracer(int num_lanes, bool verbose = false);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Human-readable lane (process) name for the exported trace.
  void SetLaneName(int lane, std::string name);
  const std::string& lane_name(int lane) const {
    return lane_names_[static_cast<size_t>(lane)];
  }

  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  int driver_lane() const { return static_cast<int>(lanes_.size()) - 1; }
  bool verbose() const { return verbose_; }

  /// Appends `event` to its lane's buffer. Thread contract: at most one
  /// task emits on a given lane at any instant (the cluster's per-node
  /// stepping discipline).
  void Emit(TraceEvent event);

  // Convenience emitters. `name` MUST be an obs::ev:: constant.
  void EmitInstant(int lane, Tick tick, const char* name,
                   std::vector<TraceArg> args = {}, int64_t scope = -1);
  void EmitComplete(int lane, Tick tick, const char* name, Tick duration,
                    std::vector<TraceArg> args = {}, int64_t scope = -1);
  void BeginSpan(int lane, Tick tick, const char* name, int64_t scope,
                 std::vector<TraceArg> args = {});
  void EndSpan(int lane, Tick tick, const char* name, int64_t scope,
               std::vector<TraceArg> args = {});
  void EmitCounter(int lane, Tick tick, const char* name, int64_t value);

  int64_t event_count() const;

  /// The merged deterministic stream: pointers into the lane buffers,
  /// ordered by (tick, lane, per-lane emit order). Valid until the next
  /// Emit.
  std::vector<const TraceEvent*> Merged() const;

  /// Serializes the merged stream as Chrome trace_event JSON (the
  /// "traceEvents" array format), loadable in Perfetto / chrome://tracing.
  /// Virtual ticks (ms) map to microsecond timestamps. Byte-identical
  /// for byte-identical traces.
  std::string ToChromeJson() const;

  /// Async spans opened (BeginSpan) but never closed, or closed without
  /// opening — one human-readable line each, in deterministic order.
  /// Empty on a well-formed trace; the chaos harness asserts this even
  /// under injected faults.
  std::vector<std::string> OpenSpans() const;

 private:
  std::vector<std::vector<TraceEvent>> lanes_;
  std::vector<std::string> lane_names_;
  bool verbose_;
};

/// Compile-time + runtime gate for every instrumentation site:
/// `if (DCAPE_TRACE_ACTIVE(tracer)) tracer->...`. Defining
/// DCAPE_OBS_NO_TRACING turns the whole expression into constant false,
/// compiling the instrumentation out entirely.
#if defined(DCAPE_OBS_NO_TRACING)
#define DCAPE_TRACE_ACTIVE(tracer) false
#else
#define DCAPE_TRACE_ACTIVE(tracer) ((tracer) != nullptr)
#endif

}  // namespace obs
}  // namespace dcape

#endif  // DCAPE_OBS_TRACE_H_
