#include "runtime/cluster.h"

#include <algorithm>
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
    : pool_(std::max(1, config.num_threads)),
      network_(config.network),
      topology_(config, &network_, "cluster") {
  if (config.fault_plan != nullptr) {
    sim::FaultPlan* plan = config.fault_plan.get();
    network_.SetFaultHooks(
        [plan](const Message& m) { return plan->SampleExtraDelay(m); },
        [plan](const Message& m) { return plan->SampleDuplicate(m); });
  }
}

void Cluster::DeliverWaves(Tick now) {
  // Delivery supersteps: each wave removes every message due by `now`,
  // drains the engine/split-host inboxes concurrently on the pool, the
  // coordinator/sink inboxes on the caller, and merges all sends in
  // (node id, send order) order at the barrier. Handlers only touch
  // their own node's state, so disjoint inboxes never race; the merge
  // rule makes the schedule identical for every pool size. The loop
  // repeats for zero-latency sends that fall due within the same tick.
  while (true) {
    const Tick next = network_.NextArrival();
    if (next < 0 || next > now) break;
    std::vector<Network::Inbox> inboxes = network_.TakeArrivals(now);
    network_.BeginBuffered();
    std::vector<Network::Inbox*> concurrent;
    concurrent.reserve(inboxes.size());
    for (Network::Inbox& inbox : inboxes) {
      if (IsConcurrentNode(inbox.node)) concurrent.push_back(&inbox);
    }
    pool_.ParallelFor(static_cast<int>(concurrent.size()),
                      [&](int i) { network_.Deliver(*concurrent[i]); });
    for (Network::Inbox& inbox : inboxes) {
      if (!IsConcurrentNode(inbox.node)) network_.Deliver(inbox);
    }
    network_.FlushBuffered();
  }
}

void Cluster::StepTick(Tick now, bool generate) {
  DeliverWaves(now);
  topology_.generator().OnTicks(now, now, generate);
  // Injected stalls are sampled here, in engine-id order on the main
  // thread, so the fault sequence is identical for every --threads
  // value.
  sim::FaultPlan* plan = topology_.config().fault_plan.get();
  if (plan != nullptr) {
    for (EngineId e = 0; e < num_engines(); ++e) {
      const Tick stall = plan->SampleStall(e);
      if (stall > 0) engine(e).InjectStall(now, stall);
    }
  }
  // Engine housekeeping (pending batches, spill checks, stats) is
  // per-engine state only; their sends buffer and merge like a wave.
  network_.BeginBuffered();
  pool_.ParallelFor(num_engines(), [&](int i) { engine(i).OnTick(now); });
  network_.FlushBuffered();
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
  // series. This runs serially between ticks, so emitting on other
  // nodes' lanes honors the one-writer-per-lane contract.
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
  return topology_.RunCleanup(&pool_, clock_.now());
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
