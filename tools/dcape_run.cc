// dcape_run — command-line experiment driver for the DCAPE library.
//
// Examples:
//   dcape_run --strategy=lazy-disk --engines=3 --placement=0.6,0.2,0.2
//             --threshold-kib=16384 --duration-min=20
//   dcape_run --strategy=active-disk --verbose --csv=run.csv
//   dcape_run --record-trace=day.trace --duration-min=5
//   dcape_run --replay-trace=day.trace --strategy=spill-only
//   dcape_run --strategy=active-disk --trace-out=run.trace.json
//   dcape_run --strategy=lazy-disk --report=timeline

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dcape.h"
#include "metrics/csv.h"
#include "rt/realtime_driver.h"
#include "sim/oracle.h"
#include "stream/trace.h"

namespace dcape {
namespace {

/// Writes the files both drivers produce: the throughput/memory series
/// with its storage-counter sidecar (--csv) and the recorded input
/// (--record-trace). Returns false after reporting a failed write.
bool WriteRunFiles(const ExperimentOptions& options, const RunResult& result) {
  if (!options.csv_path.empty()) {
    std::vector<const TimeSeries*> series = {&result.throughput};
    for (const TimeSeries& m : result.engine_memory) series.push_back(&m);
    Status status = WriteSeriesCsv(options.csv_path, series);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return false;
    }
    std::cout << "series written to " << options.csv_path << "\n";

    // Storage-plane counters ride along as a sibling CSV.
    std::string storage_path = options.csv_path;
    const size_t dot = storage_path.rfind(".csv");
    if (dot != std::string::npos && dot == storage_path.size() - 4) {
      storage_path.resize(dot);
    }
    storage_path += ".storage.csv";
    std::ofstream storage_out(storage_path);
    storage_out << result.StorageCsv();
    if (!storage_out) {
      std::cerr << "cannot write " << storage_path << "\n";
      return false;
    }
    std::cout << "storage counters written to " << storage_path << "\n";
  }
  if (!options.record_trace_path.empty()) {
    Status status = WriteTraceFile(options.record_trace_path,
                                   *options.cluster.record_trace);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return false;
    }
    std::cout << "trace (" << options.cluster.record_trace->size()
              << " bytes) written to " << options.record_trace_path << "\n";
  }
  return true;
}

/// The --realtime path: run the wall-clock driver, print the sustained
/// throughput + latency report, and (with --check-oracle) replay the
/// identical input on the deterministic simulator and diff the outputs.
int RunRealtime(ExperimentOptions options) {
  if (options.rt_check_oracle) {
    // The oracle compares the complete output multiset; both runs must
    // retain their results.
    options.cluster.collect_results = true;
    options.cluster.cleanup.collect_results = true;
  }
  rt::RealtimeOptions rt_options;
  rt_options.duration_sec = options.rt_duration_sec;
  rt_options.rate = options.rt_rate;
  rt_options.link_capacity = options.rt_queue_capacity;

  std::cout << "realtime strategy=" << StrategyName(options.cluster.strategy)
            << " engines=" << options.cluster.num_engines
            << " duration=" << rt_options.duration_sec << "s rate="
            << (rt_options.rate > 0 ? std::to_string(rt_options.rate)
                                    : std::string("free-run"))
            << " threshold="
            << FormatBytes(options.cluster.spill.memory_threshold_bytes)
            << "\n";

  rt::RealtimeDriver driver(options.cluster, rt_options);
  RunResult result = driver.Run();
  const rt::RealtimeReport& report = driver.report();

  std::cout << "generated " << report.tuples_generated << " tuples over "
            << report.ticks_run << " virtual ticks in "
            << report.generate_wall_sec << "s wall ("
            << static_cast<int64_t>(report.tuples_per_sec)
            << " tuples/sec in, "
            << static_cast<int64_t>(report.results_per_sec)
            << " results/sec out)\n";
  const Histogram& lat = report.latency_us;
  if (lat.count() > 0) {
    std::cout << "latency_us p50=" << lat.Quantile(0.5)
              << " p90=" << lat.Quantile(0.9) << " p99=" << lat.Quantile(0.99)
              << " max=" << lat.max() << " (n=" << lat.count() << ")\n";
  }
  std::cout << "backpressure_parks=" << report.backpressure_parks
            << " threads=" << report.total_threads << " (engines "
            << report.engine_threads << ")\n";
  result.PrintSummary(std::cout);
  if (!WriteRunFiles(options, result)) return 1;

  if (options.rt_check_oracle) {
    // Golden: the same query and workload on the virtual clock, without
    // adaptation (the strategy whose output correctness is established
    // by the tier-1 suite), over exactly the tick range the realtime
    // generator emitted.
    ClusterConfig golden_config = options.cluster;
    golden_config.strategy = AdaptationStrategy::kNoAdaptation;
    golden_config.num_threads = 1;
    golden_config.use_file_backend = false;
    golden_config.trace = false;
    golden_config.record_trace = nullptr;
    golden_config.run_duration = report.ticks_run;
    Cluster golden_cluster(golden_config);
    RunResult golden = golden_cluster.Run();

    std::vector<std::string> violations;
    sim::DiffOutputs(sim::ResultMultiset(result), sim::ResultMultiset(golden),
                     &violations);
    const int num_streams = options.cluster.workload.num_streams;
    const std::vector<int64_t> got =
        sim::PerStreamProcessed(result, num_streams);
    const std::vector<int64_t> want =
        sim::PerStreamProcessed(golden, num_streams);
    if (got != want) {
      std::string text = "per-stream processed mismatch:";
      for (int s = 0; s < num_streams; ++s) {
        text += " s" + std::to_string(s) + "=" +
                std::to_string(got[static_cast<size_t>(s)]) + "/" +
                std::to_string(want[static_cast<size_t>(s)]);
      }
      violations.push_back(std::move(text));
    }
    if (!violations.empty()) {
      for (const std::string& v : violations) {
        std::cerr << "ORACLE VIOLATION: " << v << "\n";
      }
      return 1;
    }
    std::cout << "oracle check passed: output multiset ("
              << result.TotalResults()
              << " results) and per-stream accounting match the "
                 "deterministic replay\n";
  }
  return 0;
}

int Run(const std::vector<std::string>& args) {
  StatusOr<ExperimentOptions> parsed = ParseExperimentFlags(args);
  if (!parsed.ok()) {
    std::cerr << parsed.status().message() << "\n";
    return 2;
  }
  ExperimentOptions options = std::move(parsed).value();
  Logging::SetLevel(options.verbose ? LogLevel::kInfo : LogLevel::kWarning);

  if (!options.replay_trace_path.empty()) {
    StatusOr<std::string> trace = ReadTraceFile(options.replay_trace_path);
    if (!trace.ok()) {
      std::cerr << "cannot read trace: " << trace.status() << "\n";
      return 1;
    }
    options.cluster.replay_trace =
        std::make_shared<const std::string>(*std::move(trace));
    // Flag validation ran before the file was read; a corrupt trace or
    // one with another stream count is rejected here.
    Status valid = ClusterConfig::Builder(options.cluster).Validate();
    if (!valid.ok()) {
      std::cerr << valid.message() << "\n";
      return 1;
    }
  }
  if (!options.record_trace_path.empty()) {
    options.cluster.record_trace = std::make_shared<std::string>();
  }
  // The summary prints only the cleanup result count; RunRealtime keeps
  // the results again when --check-oracle compares them.
  options.cluster.cleanup.collect_results = false;

  if (options.realtime) return RunRealtime(std::move(options));

  std::cout << "strategy=" << StrategyName(options.cluster.strategy)
            << " engines=" << options.cluster.num_engines
            << " threads=" << options.cluster.num_threads << " duration="
            << options.cluster.run_duration / MinutesToTicks(1)
            << "min threshold="
            << FormatBytes(options.cluster.spill.memory_threshold_bytes)
            << "\n";

  Cluster cluster(options.cluster);
  RunResult result = cluster.Run();
  result.PrintSummary(std::cout);

  if (options.tables) {
    TimeSeries rate = ToRatePerMinute(result.throughput);
    rate.set_name("tuples/min");
    std::vector<const TimeSeries*> series = {&result.throughput, &rate};
    for (const TimeSeries& m : result.engine_memory) series.push_back(&m);
    const int64_t minutes =
        options.cluster.run_duration / MinutesToTicks(1);
    PrintSeriesByMinute(std::cout, "minute", series, 0, minutes,
                        std::max<int64_t>(1, minutes / 10));
  }

  if (!WriteRunFiles(options, result)) return 1;
  if (!options.trace_out_path.empty()) {
    const obs::Tracer* tracer = cluster.tracer();
    std::ofstream trace_out(options.trace_out_path);
    trace_out << tracer->ToChromeJson();
    if (!trace_out) {
      std::cerr << "cannot write " << options.trace_out_path << "\n";
      return 1;
    }
    std::cout << "structured trace (" << tracer->event_count()
              << " events) written to " << options.trace_out_path
              << " (open in Perfetto / chrome://tracing)\n";
  }
  if (options.report == "timeline") {
    std::cout << obs::RenderTimeline(*cluster.tracer());
  }
  return 0;
}

}  // namespace
}  // namespace dcape

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return dcape::Run(args);
}
