// One repetition of a benchmark workload, as one process so its peak
// RSS is its own; the reference a repetition's output must match; or
// the host calibration timed around every repetition. perfbench/run.py
// starts all three, checks a repetition against its reference and
// divides its times by the calibration; README.md documents the
// workloads and metrics.
//
// Usage:
//   perfbench --workload=NAME --seed=N [--traced --spans-out=PATH]
//   perfbench --workload=NAME --seed=N --reference-last-tick=T
//             [--drop-one-tuple]
//   perfbench --calibrate
//
// Prints one JSON object on stdout: the repetition's raw measurements,
// the reference's tuple and result counts, or the calibration's
// seconds. Exit status: 0 on success, 1 when the run returned an error,
// 2 on a bad command line.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "calibrate.h"
#include "common/units.h"
#include "host.h"
#include "layers.h"
#include "reference.h"
#include "rt/realtime_driver.h"
#include "runtime/cluster.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dcape::kMiB;

/// Driver constructions timed before the measured one: setup_s is
/// their median, so a one-off page fault or preemption does not move it.
constexpr int kSetupReps = 100;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  bool traced = false;
  std::string spans_out;
  /// Reference mode: count the results of ticks [0, this] instead of
  /// running the workload (-1 = run mode).
  int64_t reference_last_tick = -1;
  bool drop_one_tuple = false;
  /// Calibration mode: time the host calibration kernel and exit.
  bool calibrate = false;
};

/// What one driver run measured. Phase times are wall seconds of the
/// benchmark's calls into the driver.
struct DriverRun {
  double construct_s = 0, run_s = 0, drain_s = 0, collect_s = 0,
         cleanup_s = 0;
  /// Time to the complete result: run-time phase + drain + cleanup
  /// (sim); the whole RealtimeDriver::Run call (rt).
  double wall_s = 0;
  /// Every timed driver call, construction included.
  double driver_s = 0;
  dcape::RunResult result;
  dcape::Status status;
  /// Last tick the generator emitted: [0, last_tick] is the input.
  dcape::Tick last_tick = 0;
  dcape::rt::RealtimeReport report;
  dcape::rt::SpscTransport::Stats transport;
  /// Per-thread CPU seconds of the realtime driver's threads (traced
  /// realtime runs only), in start order.
  std::vector<double> thread_cpu_s;
  /// The driver. A traced repetition destroys it inside a span; an
  /// untraced one keeps it until Main ends the process. No metric
  /// includes the teardown, and freeing a grown join state one
  /// allocation at a time took 2.5 s of each 7.5 s rt-saturate
  /// repetition, time better spent on more repetitions.
  std::unique_ptr<dcape::Cluster> cluster;
  std::unique_ptr<dcape::rt::RealtimeDriver> realtime;
};

void RunSimulator(const Workload& w, SpanRecorder* spans, DriverRun* out) {
  std::unique_ptr<dcape::Cluster>& cluster = out->cluster;
  out->construct_s = Timed(spans, "Cluster::Cluster", [&] {
    cluster = std::make_unique<dcape::Cluster>(w.config);
  });
  // One RunUntil call: RunUntil steps from the current tick inclusive,
  // so consecutive calls would step (and generate at) each boundary
  // tick twice and change the input.
  out->run_s = Timed(spans, "Cluster::RunUntil",
                     [&] { cluster->RunUntil(w.config.run_duration); });
  out->drain_s = Timed(spans, "Cluster::Drain", [&] { cluster->Drain(); });
  out->collect_s = Timed(spans, "Cluster::Collect",
                         [&] { out->result = cluster->Collect(); });
  if (w.config.run_cleanup) {
    out->cleanup_s = Timed(spans, "Cluster::RunCleanup", [&] {
      dcape::StatusOr<dcape::CleanupStats> cleanup = cluster->RunCleanup();
      if (cleanup.ok()) {
        out->result.cleanup = std::move(cleanup).value();
      } else {
        out->status = cleanup.status();
      }
    });
  }
  if (spans != nullptr) {
    Timed(spans, "Cluster::~Cluster", [&] { cluster.reset(); });
  }
  out->wall_s = out->run_s + out->drain_s + out->cleanup_s;
  out->driver_s = out->construct_s + out->run_s + out->drain_s +
                  out->collect_s + out->cleanup_s;
  out->last_tick = w.config.run_duration;
}

void RunRealtime(const Workload& w, SpanRecorder* spans, DriverRun* out) {
  std::unique_ptr<dcape::rt::RealtimeDriver>& driver = out->realtime;
  out->construct_s = Timed(spans, "RealtimeDriver::RealtimeDriver", [&] {
    driver = std::make_unique<dcape::rt::RealtimeDriver>(w.config, w.realtime);
  });
  std::unique_ptr<ThreadCpuMonitor> monitor;
  if (spans != nullptr) monitor = std::make_unique<ThreadCpuMonitor>(10);
  const double run_call_s = Timed(spans, "RealtimeDriver::Run",
                                  [&] { out->result = driver->Run(); });
  if (monitor != nullptr) {
    monitor->Stop();
    out->thread_cpu_s = monitor->NewThreadCpuSeconds();
  }
  out->report = driver->report();
  out->transport = driver->transport_stats();
  if (w.realtime.rate > 0 &&
      out->report.generate_wall_sec < 1.25 * w.realtime.duration_sec) {
    std::cerr << "warning: generation nearly kept pace with the schedule ("
              << out->report.generate_wall_sec << " s for a "
              << w.realtime.duration_sec
              << " s schedule); the paced rate caps throughput_tps\n";
  }
  // The driver's wall clock starts at construction; its report splits
  // the Run call into generation, drain, and the rest (Collect).
  out->run_s = out->report.generate_wall_sec;
  out->drain_s = out->report.total_wall_sec - out->report.generate_wall_sec;
  out->collect_s = std::max(0.0, run_call_s - out->drain_s - out->run_s);
  if (spans != nullptr) {
    Timed(spans, "RealtimeDriver::~RealtimeDriver", [&] { driver.reset(); });
  }
  out->wall_s = run_call_s;
  out->driver_s = out->construct_s + run_call_s;
  out->last_tick = out->report.ticks_run;
}

/// Constructs and destroys the workload's driver `reps` times and
/// returns each construction's wall time.
std::vector<double> SetupSamples(const Workload& w, int reps,
                                 SpanRecorder* spans) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    if (w.driver == Driver::kSimulator) {
      std::unique_ptr<dcape::Cluster> cluster;
      samples.push_back(Timed(spans, "Cluster::Cluster", [&] {
        cluster = std::make_unique<dcape::Cluster>(w.config);
      }));
    } else {
      std::unique_ptr<dcape::rt::RealtimeDriver> driver;
      samples.push_back(Timed(spans, "RealtimeDriver::RealtimeDriver", [&] {
        driver =
            std::make_unique<dcape::rt::RealtimeDriver>(w.config, w.realtime);
      }));
    }
  }
  return samples;
}

double Mib(int64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(kMiB);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The per-layer metrics of one traced run (README.md, "Per-layer
/// metrics"), from the driver's returned counters, the spans around its
/// calls, and the replay's unit costs.
std::map<std::string, double> LayerMetrics(const Workload& w,
                                           const DriverRun& run,
                                           const LayerCosts& costs) {
  const dcape::RunResult& r = run.result;
  std::map<std::string, double> m;
  m["runtime.run_s"] = run.run_s;
  m["runtime.drain_s"] = run.drain_s;
  m["runtime.collect_s"] = run.collect_s;
  m["cleanup.run_s"] = run.cleanup_s;
  m["cleanup.read_mib"] = Mib(r.cleanup.bytes_read);
  m["cleanup.segments_read"] = static_cast<double>(r.cleanup.segments_read);
  m["cleanup.prefetch_stalls"] = static_cast<double>(r.cleanup.prefetch_stalls);
  m["cleanup.peak_resident_mib"] = Mib(r.cleanup.peak_resident_bytes);
  m["cleanup.block_read_retries"] =
      static_cast<double>(r.cleanup.block_read_retries);

  m["stream.emit_ns"] = costs.emit_ns;
  m["operators.route_ns"] = costs.route_ns;
  m["rt.spsc_hop_ns"] = costs.spsc_hop_ns;
  m["net.send_deliver_ns"] = costs.send_deliver_ns;
  m["state.probe_insert_ns"] = costs.probe_insert_ns;
  m["state.evict_ns"] = costs.evict_ns;
  m["state.extract_mib_s"] = costs.extract_mib_s;
  m["state.install_mib_s"] = costs.install_mib_s;
  m["tuple.encode_mib_s"] = costs.encode_mib_s;
  m["tuple.decode_mib_s"] = costs.decode_mib_s;
  m["storage.write_mib_s"] = costs.write_mib_s;
  m["storage.read_mib_s"] = costs.read_mib_s;

  m["rt.messages"] = static_cast<double>(run.transport.messages_sent);
  m["rt.mib"] = Mib(run.transport.bytes_sent);
  m["rt.backpressure_parks"] =
      static_cast<double>(run.transport.backpressure_parks);
  // Realtime threads start as engines, split hosts, coordinator, sink,
  // sampler, generator (RealtimeDriver::Run).
  const int engines = w.config.num_engines;
  const int hosts = std::clamp(w.config.num_split_hosts, 1,
                               w.config.workload.num_streams);
  const std::vector<double>& cpu = run.thread_cpu_s;
  double busy_engine = 0, busy_split = 0, busy_sink = 0, busy_generator = 0;
  if (static_cast<int>(cpu.size()) == engines + hosts + 4) {
    const double gen_s = run.report.generate_wall_sec;
    for (int e = 0; e < engines; ++e) {
      busy_engine =
          std::max(busy_engine, Ratio(cpu[static_cast<size_t>(e)], gen_s));
    }
    for (int h = 0; h < hosts; ++h) {
      busy_split = std::max(
          busy_split, Ratio(cpu[static_cast<size_t>(engines + h)], gen_s));
    }
    busy_sink = Ratio(cpu[static_cast<size_t>(engines + hosts + 1)], gen_s);
    busy_generator = Ratio(cpu.back(), gen_s);
  }
  m["rt.busy_engine"] = busy_engine;
  m["rt.busy_split"] = busy_split;
  m["rt.busy_sink"] = busy_sink;
  m["rt.busy_generator"] = busy_generator;

  m["net.messages"] = static_cast<double>(r.network.messages_sent);
  m["net.mib"] = Mib(r.network.bytes_sent);
  m["net.state_transfer_mib"] = Mib(r.network.state_transfer_bytes);

  double peak_state = 0;
  if (!r.engine_memory.empty()) {
    size_t samples = r.engine_memory[0].size();
    for (const auto& series : r.engine_memory) {
      samples = std::min(samples, series.size());
    }
    for (size_t i = 0; i < samples; ++i) {
      double sum = 0;
      for (const auto& series : r.engine_memory) {
        sum += series.samples()[i].second;
      }
      peak_state = std::max(peak_state, sum);
    }
  }
  m["state.peak_mib"] = peak_state / static_cast<double>(kMiB);

  m["storage.spill_events"] = static_cast<double>(r.spill_events);
  m["storage.segments_written"] =
      static_cast<double>(r.storage.segments_written);
  m["storage.encoded_mib"] = Mib(r.storage.encoded_bytes);
  m["storage.encoded_ratio"] = r.storage.CompressionRatio();

  double processed = 0, results = 0, max_processed = 0;
  double cold_misses = 0, max_stall = 0, evicted = 0, write_failures = 0;
  for (const auto& e : r.engines) {
    processed += static_cast<double>(e.tuples_processed);
    results += static_cast<double>(e.results_produced);
    max_processed =
        std::max(max_processed, static_cast<double>(e.tuples_processed));
    cold_misses += static_cast<double>(e.cold_probe_misses);
    max_stall =
        std::max(max_stall, static_cast<double>(e.max_spill_stall_ticks));
    evicted += static_cast<double>(e.evicted_tuples);
    write_failures += static_cast<double>(e.spill_write_failures);
  }
  m["engine.tuples_processed"] = processed;
  m["engine.results_per_tuple"] = Ratio(results, processed);
  m["engine.skew"] =
      Ratio(max_processed, processed / static_cast<double>(engines));
  m["engine.cold_probe_misses"] = cold_misses;
  m["engine.max_spill_stall_ticks"] = max_stall;
  m["engine.evicted_tuples"] = evicted;
  m["engine.spill_write_failures"] = write_failures;

  const auto& c = r.coordinator;
  m["core.relocations"] = static_cast<double>(c.relocations_completed);
  m["core.relocation_abort_share"] = Ratio(
      static_cast<double>(c.relocations_aborted),
      static_cast<double>(c.relocations_started));
  m["core.relocated_mib"] = Mib(c.bytes_relocated);
  m["core.forced_spills"] = static_cast<double>(c.forced_spills);

  // Replay unit costs x this run's counts, against the run-time phase's
  // CPU time: the wall time of the serial simulator, the summed thread
  // CPU time of the realtime driver.
  const double tuples = static_cast<double>(r.tuples_generated);
  double explained_ns =
      tuples * (costs.emit_ns + costs.route_ns) +
      processed * costs.probe_insert_ns + evicted * costs.evict_ns;
  double run_cpu_s = run.run_s;
  if (w.driver == Driver::kRealtime) {
    explained_ns += m["rt.messages"] * costs.spsc_hop_ns;
    run_cpu_s = 0;
    for (double s : cpu) run_cpu_s += s;
  } else {
    explained_ns += m["net.messages"] * costs.send_deliver_ns;
    const double spilled_mib = Mib(r.spilled_bytes);
    const double relocated_mib = m["core.relocated_mib"];
    if (costs.extract_mib_s > 0) {
      explained_ns += (spilled_mib + relocated_mib) / costs.extract_mib_s * 1e9;
    }
    if (costs.write_mib_s > 0) {
      explained_ns += m["storage.encoded_mib"] / costs.write_mib_s * 1e9;
    }
    if (costs.install_mib_s > 0) {
      explained_ns += relocated_mib / costs.install_mib_s * 1e9;
    }
  }
  m["replay.coverage"] = Ratio(explained_ns / 1e9, run_cpu_s);
  return m;
}

void PrintJson(std::ostream& os, const std::string& key, double value) {
  os << "\"" << key << "\": " << value << ", ";
}

/// `text` as a JSON string literal.
std::string JsonString(const std::string& text) {
  std::ostringstream out;
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
          << static_cast<int>(c) << std::dec;
    } else {
      out << c;
    }
  }
  out << '"';
  return out.str();
}

int Main(const Options& options) {
  if (options.calibrate) {
    std::cout << std::setprecision(15) << "{\"calibration_s\": "
              << CalibrationSeconds() << "}" << std::endl;
    return 0;
  }
  dcape::StatusOr<Workload> made = MakeWorkload(options.workload, options.seed);
  if (!made.ok()) {
    std::cerr << made.status().ToString() << "\n";
    return 2;
  }
  const Workload& w = *made;
  if (options.reference_last_tick >= 0) {
    const Reference ref = CountJoinResults(
        w.config.workload, options.reference_last_tick,
        w.config.join_window_ticks, options.drop_one_tuple);
    std::cout << "{\"tuples\": " << ref.tuples << ", \"results\": "
              << ref.results << "}" << std::endl;
    return 0;
  }
  const std::string run_id =
      w.name + "-seed" + std::to_string(options.seed);
  std::unique_ptr<SpanRecorder> recorder;
  if (options.traced) recorder = std::make_unique<SpanRecorder>(run_id);
  SpanRecorder* spans = recorder.get();

  std::vector<double> setup = SetupSamples(w, kSetupReps, spans);
  DriverRun run;
  const int driver_span = spans != nullptr ? spans->Begin("driver") : -1;
  if (w.driver == Driver::kSimulator) {
    RunSimulator(w, spans, &run);
  } else {
    RunRealtime(w, spans, &run);
  }
  if (spans != nullptr) spans->End(driver_span);
  setup.push_back(run.construct_s);
  const int64_t peak_rss = PeakRssBytes();

  std::map<std::string, double> layers;
  if (spans != nullptr) {
    const LayerCosts costs =
        ReplayLayers(w.config, run.last_tick, w.realtime.link_capacity, *spans);
    layers = LayerMetrics(w, run, costs);
    std::ofstream out(options.spans_out);
    out << spans->ToJson();
  }

  std::ostringstream json;
  json << std::setprecision(15) << "{\"workload\": \"" << w.name
       << "\", \"seed\": " << options.seed << ", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \"" << PERFBENCH_COMPILER
       << "\", \"setup_s\": [";
  for (size_t i = 0; i < setup.size(); ++i) {
    json << (i > 0 ? ", " : "") << setup[i];
  }
  json << "], ";
  PrintJson(json, "wall_s", run.wall_s);
  PrintJson(json, "driver_s", run.driver_s);
  PrintJson(json, "run_s", run.run_s);
  PrintJson(json, "tuples", static_cast<double>(run.result.tuples_generated));
  PrintJson(json, "runtime_results",
            static_cast<double>(run.result.runtime_results));
  PrintJson(json, "total_results",
            static_cast<double>(run.result.TotalResults()));
  PrintJson(json, "last_tick", static_cast<double>(run.last_tick));
  PrintJson(json, "peak_rss_bytes", static_cast<double>(peak_rss));
  json << "\"error\": "
       << JsonString(run.status.ok() ? "" : run.status.ToString())
       << ", \"layers\": {";
  bool first = true;
  for (const auto& [name, value] : layers) {
    json << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  const int code = run.status.ok() ? 0 : 1;
  // The output is flushed; an untraced repetition ends here without
  // destroying its driver (DriverRun::cluster).
  if (spans == nullptr) std::_Exit(code);
  return code;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        options->workload = value;
      } else if (key == "--seed") {
        size_t used = 0;
        options->seed = std::stoull(value, &used);
        if (used != value.size()) return false;
        options->seed_set = true;
      } else if (key == "--traced") {
        options->traced = true;
      } else if (key == "--spans-out") {
        options->spans_out = value;
      } else if (key == "--reference-last-tick") {
        options->reference_last_tick = std::stoll(value);
        if (options->reference_last_tick < 0) return false;
      } else if (key == "--drop-one-tuple") {
        options->drop_one_tuple = true;
      } else if (key == "--calibrate") {
        options->calibrate = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  if (options->calibrate) return argc == 2;
  return !options->workload.empty() && options->seed_set &&
         (!options->traced || !options->spans_out.empty());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: perfbench --workload=NAME --seed=N [--traced "
                 "--spans-out=PATH]\n"
                 "       perfbench --workload=NAME --seed=N "
                 "--reference-last-tick=T [--drop-one-tuple]\n"
                 "       perfbench --calibrate\n";
    return 2;
  }
  return perfbench::Main(options);
}
