#include "rt/realtime_driver.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "obs/taxonomy.h"

namespace dcape {
namespace rt {
namespace {

/// Bounded park the node loops use when idle: short enough that every
/// periodic timer (stats each 5 s, spill checks each tick) fires with
/// sub-millisecond slack, long enough not to burn a whole core spinning
/// on a quiet link.
constexpr int64_t kIdleWaitMicros = 500;
/// Messages drained per Poll round before housekeeping runs again.
constexpr int kPollBudget = 256;
/// Longest sleep between the sampler's stop checks. Run joins the
/// sampler once the pipeline is quiet, so whatever is left of this sleep
/// adds itself to the run's wall time.
constexpr int64_t kSamplerSleepMicros = 2000;
/// Most ticks the generator coalesces into one emission when it is
/// behind schedule (free-run always is). A stream emits at most one
/// tuple per tick, so this also bounds every data-plane batch at 256
/// tuples; kDefaultLinkCapacity is sized against it.
constexpr Tick kMaxTicksPerEmit = 256;

}  // namespace

RealtimeDriver::RealtimeDriver(const ClusterConfig& config,
                               const RealtimeOptions& options)
    : options_(options),
      transport_(Topology::NumNodes(config),
                 SpscTransport::Config{.link_capacity = options.link_capacity}),
      topology_(config, &transport_, "realtime driver",
                [this](const ResultBatch& batch) { OnResultBatch(batch); }) {
  // The realtime plane runs without the simulator-only machinery: fault
  // plans and invariant recorders assume single-threaded deterministic
  // stepping, and window eviction compares tick-domain timestamps
  // against the node's clock — which here is the wall clock.
  DCAPE_CHECK(config.fault_plan == nullptr);
  DCAPE_CHECK(config.invariants == nullptr);
  DCAPE_CHECK_EQ(config.join_window_ticks, 0);

  if (options_.rate > 0) {
    // rate tuples/sec over all streams; the workload emits
    // num_streams / inter_arrival tuples per tick on average, so pace
    // the tick cursor at rate / (that density) ticks per wall second.
    const double tuples_per_tick =
        static_cast<double>(config.workload.num_streams) /
        static_cast<double>(config.workload.inter_arrival_ticks);
    ticks_per_sec_ = static_cast<double>(options_.rate) / tuples_per_tick;
    DCAPE_CHECK_GT(ticks_per_sec_, 0);
  }

  latency_us_ = topology_.metrics().AddHistogram(obs::m::kRtLatencyUs);

  published_state_bytes_.reserve(static_cast<size_t>(config.num_engines));
  published_idle_.reserve(static_cast<size_t>(config.num_engines));
  for (EngineId e = 0; e < config.num_engines; ++e) {
    published_state_bytes_.push_back(
        std::make_unique<std::atomic<int64_t>>(0));
    published_idle_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  for (int h = 0; h < topology_.num_split_hosts(); ++h) {
    published_buffered_.push_back(
        std::make_unique<std::atomic<int64_t>>(0));
  }
}

void RealtimeDriver::OnResultBatch(const ResultBatch& batch) {
  if (batch.emit_wall_us > 0 && !batch.results.empty()) {
    // Every result of the batch shares the latency: one sample each.
    const int64_t lat =
        std::max<int64_t>(0, clock_.NowMicros() - batch.emit_wall_us);
    const auto n = static_cast<int64_t>(batch.results.size());
    latency_us_->Add(lat, n);
    latency_ms_.Add(lat / 1000, n);
  }
  results_total_.fetch_add(static_cast<int64_t>(batch.results.size()),
                           std::memory_order_relaxed);
}

RealtimeDriver::~RealtimeDriver() {
  // Run() joins everything; this only covers a driver destroyed without
  // running (or after a CHECK unwound nothing — aborts don't unwind).
  phase_.store(Phase::kStopped, std::memory_order_release);
  if (generator_thread_.joinable()) generator_thread_.join();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void RealtimeDriver::EngineLoop(EngineId e) {
  QueryEngine& engine = topology_.engine(e);
  const NodeId node = e;
  std::atomic<int64_t>& state_bytes =
      *published_state_bytes_[static_cast<size_t>(e)];
  std::atomic<bool>& idle = *published_idle_[static_cast<size_t>(e)];
  while (phase_.load(std::memory_order_acquire) != Phase::kStopped) {
    const Tick now = clock_.NowMs();
    const int delivered = transport_.Poll(node, now, kPollBudget);
    engine.OnTick(now);
    state_bytes.store(engine.state_bytes(), std::memory_order_relaxed);
    idle.store(engine.Idle(now) && transport_.InboundEmpty(node),
               std::memory_order_release);
    if (delivered == 0) transport_.WaitForInbound(node, kIdleWaitMicros);
  }
}

void RealtimeDriver::SplitHostLoop(int h) {
  SplitHost& host = topology_.split_host(h);
  const NodeId node = topology_.split_host_node(h);
  std::atomic<int64_t>& buffered = *published_buffered_[static_cast<size_t>(h)];
  while (phase_.load(std::memory_order_acquire) != Phase::kStopped) {
    const Tick now = clock_.NowMs();
    const int delivered = transport_.Poll(node, now, kPollBudget);
    buffered.store(host.total_buffered(), std::memory_order_release);
    if (delivered == 0) transport_.WaitForInbound(node, kIdleWaitMicros);
  }
}

void RealtimeDriver::CoordinatorLoop() {
  GlobalCoordinator& coordinator = topology_.coordinator();
  const NodeId node = topology_.coordinator_node();
  while (phase_.load(std::memory_order_acquire) != Phase::kStopped) {
    const Tick now = clock_.NowMs();
    const int delivered = transport_.Poll(node, now, kPollBudget);
    // Adaptation decisions stop once generation ends, mirroring the
    // simulator's drain (Cluster suppresses coordinator OnTick while
    // draining); in-flight protocol exchanges still complete above.
    if (phase_.load(std::memory_order_acquire) == Phase::kRunning) {
      coordinator.OnTick(now);
    }
    coordinator_quiet_.store(!coordinator.relocation_in_flight(),
                             std::memory_order_release);
    if (delivered == 0) transport_.WaitForInbound(node, kIdleWaitMicros);
  }
}

void RealtimeDriver::SinkLoop() {
  const NodeId node = topology_.sink_node();
  while (phase_.load(std::memory_order_acquire) != Phase::kStopped) {
    const Tick now = clock_.NowMs();
    const int delivered = transport_.Poll(node, now, kPollBudget);
    if (delivered == 0) transport_.WaitForInbound(node, kIdleWaitMicros);
  }
}

void RealtimeDriver::GeneratorLoop() {
  // The generator walks the virtual-tick cursor 0,1,2,... — the same
  // sequence, in the same order, as the simulator's RunUntil — either
  // paced against the wall clock (rate mode) or as fast as backpressure
  // admits (free-run). Falling behind schedule is handled by catching
  // up, never by skipping ticks: the emitted tuple set stays exactly
  // the tick-range prefix the oracle replays. Catching up coalesces:
  // one OnTicks call covers every tick already due, up to
  // kMaxTicksPerEmit, so a late generator ships many ticks per message
  // while one that keeps pace still ships one tick per message.
  GeneratorNode& generator = topology_.generator();
  const bool paced = ticks_per_sec_ > 0;
  const int64_t duration_us =
      static_cast<int64_t>(options_.duration_sec) * 1000 * 1000;
  const Tick total_ticks =
      paced ? static_cast<Tick>(static_cast<double>(options_.duration_sec) *
                                ticks_per_sec_)
            : 0;
  auto due_us = [this](Tick t) {
    return static_cast<int64_t>(static_cast<double>(t) * 1e6 /
                                ticks_per_sec_);
  };
  Tick next = 0;  // first tick not yet emitted
  while (paced ? next <= total_ticks : clock_.NowMicros() < duration_us) {
    Tick last = next + kMaxTicksPerEmit - 1;  // free-run: a full cap
    if (paced) {
      const int64_t next_due_us = due_us(next);
      int64_t now_us = clock_.NowMicros();
      while (now_us < next_due_us) {
        const int64_t gap = next_due_us - now_us;
        if (gap > 2000) {
          std::this_thread::sleep_for(std::chrono::microseconds(gap - 1000));
        } else {
          std::this_thread::yield();
        }
        now_us = clock_.NowMicros();
      }
      // Every tick already due, up to the cap.
      last = next;
      const Tick limit = std::min(total_ticks, next + kMaxTicksPerEmit - 1);
      while (last < limit && due_us(last + 1) <= now_us) ++last;
    }
    generator.StampNextEmit(clock_.NowMicros());
    generator.OnTicks(next, last, /*generate=*/true);
    next = last + 1;
  }
  ticks_emitted_ = next - 1;
  generator.FinishTrace();
}

void RealtimeDriver::SamplerLoop() {
  // Sampling cadence: the configured sample period, floored so short
  // benchmark runs still get a handful of points. All reads are from
  // published atomics — the sampler never touches node-owned state.
  const int64_t period_ms =
      std::clamp<int64_t>(topology_.config().sample_period, 10, 1000);
  Tick next_sample = 0;
  while (phase_.load(std::memory_order_acquire) != Phase::kStopped) {
    const Tick now = clock_.NowMs();
    if (now >= next_sample) {
      next_sample = now + period_ms;
      topology_.AddSample(
          now, results_total_.load(std::memory_order_relaxed),
          [&](EngineId e) {
            return published_state_bytes_[static_cast<size_t>(e)]->load(
                std::memory_order_relaxed);
          });
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(kSamplerSleepMicros));
  }
}

void RealtimeDriver::AwaitQuiescence() {
  // The pipeline is quiescent when no message is in flight or queued,
  // every engine reports itself idle with an empty inbox, no split host
  // buffers tuples, and no relocation is mid-protocol — the realtime
  // mirror of Cluster::Quiescent — and that picture holds across
  // several consecutive samples (a single snapshot can race a message
  // between "popped" and "handled", which Outstanding() covers, but
  // stability is cheap insurance).
  const Tick deadline = clock_.NowMs() + options_.quiesce_timeout_ms;
  int stable = 0;
  while (stable < 3) {
    DCAPE_CHECK_LT(clock_.NowMs(), deadline);
        // realtime pipeline failed to quiesce after generation stopped
    bool quiet = transport_.Outstanding() == 0 &&
                 coordinator_quiet_.load(std::memory_order_acquire);
    if (quiet) {
      for (const auto& idle : published_idle_) {
        if (!idle->load(std::memory_order_acquire)) {
          quiet = false;
          break;
        }
      }
    }
    if (quiet) {
      for (const auto& buffered : published_buffered_) {
        if (buffered->load(std::memory_order_acquire) != 0) {
          quiet = false;
          break;
        }
      }
    }
    stable = quiet ? stable + 1 : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

RunResult RealtimeDriver::Run() {
  const ClusterConfig& config = topology_.config();
  const int num_hosts = topology_.num_split_hosts();
  phase_.store(Phase::kRunning, std::memory_order_release);
  for (EngineId e = 0; e < config.num_engines; ++e) {
    threads_.emplace_back([this, e] { EngineLoop(e); });
  }
  for (int h = 0; h < num_hosts; ++h) {
    threads_.emplace_back([this, h] { SplitHostLoop(h); });
  }
  threads_.emplace_back([this] { CoordinatorLoop(); });
  threads_.emplace_back([this] { SinkLoop(); });
  threads_.emplace_back([this] { SamplerLoop(); });
  generator_thread_ = std::thread([this] { GeneratorLoop(); });

  generator_thread_.join();
  const double generate_wall_sec =
      static_cast<double>(clock_.NowMicros()) / 1e6;
  phase_.store(Phase::kDraining, std::memory_order_release);
  AwaitQuiescence();
  phase_.store(Phase::kStopped, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  // Threads are joined: every node's state, metrics cell, and series is
  // now safely readable from this thread.
  const double total_wall_sec = static_cast<double>(clock_.NowMicros()) / 1e6;

  report_.generate_wall_sec = generate_wall_sec;
  report_.total_wall_sec = total_wall_sec;
  report_.ticks_run = ticks_emitted_;
  report_.tuples_generated = topology_.source().total_emitted();
  report_.runtime_results = topology_.sink().total();
  report_.tuples_per_sec =
      generate_wall_sec > 0
          ? static_cast<double>(report_.tuples_generated) / generate_wall_sec
          : 0;
  report_.results_per_sec =
      generate_wall_sec > 0
          ? static_cast<double>(report_.runtime_results) / generate_wall_sec
          : 0;
  report_.latency_us = *latency_us_;
  const SpscTransport::Stats transport_stats = transport_.TotalStats();
  report_.backpressure_parks = transport_stats.backpressure_parks;
  report_.engine_threads = config.num_engines;
  report_.total_threads = config.num_engines + num_hosts + 3;

  Network::Stats network;
  network.messages_sent = transport_stats.messages_sent;
  network.bytes_sent = transport_stats.bytes_sent;
  network.state_transfer_bytes = transport_stats.state_transfer_bytes;
  // The sink's internal tick-domain histogram is meaningless when wall
  // time and tuple ticks diverge (rate pacing, free-run); report the
  // wall-clock end-to-end measurement instead, in milliseconds to match
  // the slot's unit.
  RunResult result = topology_.Collect(network, clock_.NowMs(), latency_ms_);
  if (config.run_cleanup) {
    StatusOr<CleanupStats> cleanup = topology_.RunCleanup(clock_.NowMs());
    DCAPE_CHECK(cleanup.ok());
    result.cleanup = std::move(cleanup).value();
  }
  return result;
}

}  // namespace rt
}  // namespace dcape
