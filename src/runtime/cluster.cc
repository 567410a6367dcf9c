#include "runtime/cluster.h"

#include <utility>

#include "common/check.h"
#include "obs/taxonomy.h"
#include "sim/fault_plan.h"

namespace dcape {

std::vector<EngineId> Cluster::PlacementFor(const ClusterConfig& config) {
  return ComputePlacement(config.workload.num_partitions, config.num_engines,
                          config.placement_fractions);
}

Cluster::Cluster(const ClusterConfig& config)
    : network_(config.network),
      topology_(config, &network_, "cluster") {
  if (config.fault_plan != nullptr) {
    sim::FaultPlan* plan = config.fault_plan.get();
    network_.SetFaultHooks(
        [plan](const Message& m) { return plan->SampleExtraDelay(m); },
        [plan](const Message& m) { return plan->SampleDuplicate(m); });
  }
}

void Cluster::StepTick(Tick now, bool generate) {
  network_.DeliverWaves(now);
  topology_.generator().OnTicks(now, now, generate);
  // Injected stalls are sampled in engine-id order before any engine
  // steps, so the fault sequence is a pure function of the schedule.
  sim::FaultPlan* plan = topology_.config().fault_plan.get();
  if (plan != nullptr) {
    for (EngineId e = 0; e < num_engines(); ++e) {
      const Tick stall = plan->SampleStall(e);
      if (stall > 0) engine(e).InjectStall(now, stall);
    }
  }
  // Engine housekeeping (pending batches, spill checks, stats), in
  // engine-id order.
  for (EngineId e = 0; e < num_engines(); ++e) engine(e).OnTick(now);
  if (!draining_) coordinator().OnTick(now);
}

void Cluster::SampleIfDue(Tick now, bool force) {
  // Precomputed next-due tick keeps the common (not due) case to one
  // comparison; RunUntil calls this every tick.
  if (!force && now < next_sample_) return;
  next_sample_ = now + topology_.config().sample_period;
  const int64_t results = topology_.sink().total();
  topology_.AddSample(now, results,
                      [&](EngineId e) { return engine(e).state_bytes(); });
  // Sampled counter events ride the trace at the same cadence as the
  // series, emitted between ticks on the engines' and the sink's lanes.
  obs::Tracer* tracer = topology_.tracer();
  if (DCAPE_TRACE_ACTIVE(tracer)) {
    for (EngineId e = 0; e < num_engines(); ++e) {
      tracer->EmitCounter(e, now, obs::ev::kStateBytes,
                          engine(e).state_bytes());
      tracer->EmitCounter(e, now, obs::ev::kDiskResidentBytes,
                          engine(e).spill_store().resident_bytes());
    }
    tracer->EmitCounter(sink_node(), now, obs::ev::kSinkResults, results);
  }
}

void Cluster::RunUntil(Tick end) {
  for (Tick t = clock_.now(); t <= end; ++t) {
    clock_.AdvanceTo(t);
    StepTick(t, /*generate=*/true);
    SampleIfDue(t);
  }
}

bool Cluster::Quiescent(Tick now) const {
  // Ordered cheapest-first: the O(1) network check fails on almost every
  // mid-drain tick, short-circuiting the host/engine walks.
  if (!network_.idle()) return false;
  for (int h = 0; h < num_split_hosts(); ++h) {
    if (topology_.split_host(h).total_buffered() != 0) return false;
  }
  for (EngineId e = 0; e < num_engines(); ++e) {
    if (!engine(e).Idle(now)) return false;
  }
  return true;
}

void Cluster::Drain() {
  draining_ = true;
  const Tick start = clock_.now();
  const Tick cap = start + MinutesToTicks(30);
  Tick t = start;
  // No sampling inside the loop: the series get one forced point at the
  // quiescence tick below.
  while (t < cap) {
    ++t;
    clock_.AdvanceTo(t);
    StepTick(t, /*generate=*/false);
    if (Quiescent(t)) break;
  }
  DCAPE_CHECK_LT(t, cap);  // pipeline failed to quiesce
  SampleIfDue(clock_.now(), /*force=*/true);
  draining_ = false;
}

StatusOr<CleanupStats> Cluster::RunCleanup() {
  return topology_.RunCleanup(clock_.now());
}

RunResult Cluster::Collect() {
  return topology_.Collect(network_.stats(), clock_.now(),
                           topology_.sink().latency());
}

RunResult Cluster::Run() {
  RunUntil(config().run_duration);
  Drain();
  topology_.generator().FinishTrace();
  RunResult result = Collect();
  if (config().run_cleanup) {
    StatusOr<CleanupStats> cleanup = RunCleanup();
    DCAPE_CHECK(cleanup.ok());
    result.cleanup = std::move(cleanup).value();
  }
  return result;
}

}  // namespace dcape
