// Reproduces Figure 6: memory usage over time while varying the spill
// volume k% — the same runs as Figure 5, now plotting each engine's
// tracked state bytes. Each drop ("zag") is one spill adaptation; larger
// k% means deeper drops and fewer adaptations.

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "common/units.h"

namespace dcape {
namespace bench {
namespace {

/// CI smoke override (full paper runs use the defaults): shorten the
/// run.
struct Options {
  Tick duration = 0;  // 0 = keep PaperBaseConfig's 40 min
};

bool ParseOptions(const std::vector<std::string>& args, Options* out) {
  for (const std::string& arg : args) {
    const std::string_view view = arg;
    if (view.rfind("--duration-min=", 0) == 0) {
      const long minutes = std::atol(arg.c_str() + 15);
      if (minutes <= 0) {
        std::cerr << "--duration-min expects a positive integer\n";
        return false;
      }
      out->duration = MinutesToTicks(minutes);
    } else {
      std::cerr << "unknown flag '" << arg << "' (known: --duration-min=N)\n";
      return false;
    }
  }
  return true;
}

void Apply(const Options& options, ClusterConfig* config) {
  if (options.duration > 0) config->run_duration = options.duration;
}

int Main(const std::vector<std::string>& args) {
  Options options;
  if (!ParseOptions(args, &options)) return 2;
  PrintFigureHeader(
      "Figure 6", "Varying k%: impact on memory usage",
      "same runs as Figure 5; tracked operator-state bytes on the single "
      "engine, sampled every 30 s",
      "memory is capped near the threshold for every k; higher k% gives "
      "deeper, less frequent zigzags (fewer adaptations)");

  std::vector<RunResult> runs;
  std::vector<std::string> labels;

  ClusterConfig config = PaperBaseConfig();
  Apply(options, &config);
  config.strategy = AdaptationStrategy::kNoAdaptation;
  runs.push_back(RunLabeled(config, "All-Mem"));
  labels.push_back("All-Mem");

  for (double k : {0.10, 0.30, 0.50, 1.00}) {
    ClusterConfig variant = PaperBaseConfig();
    Apply(options, &variant);
    variant.strategy = AdaptationStrategy::kSpillOnly;
    variant.spill.policy = SpillPolicy::kRandom;
    variant.spill.spill_fraction = k;
    std::string label = std::to_string(static_cast<int>(k * 100)) + "%-push";
    runs.push_back(RunLabeled(variant, label));
    labels.push_back(label);
  }

  std::vector<const TimeSeries*> series;
  for (const RunResult& run : runs) series.push_back(&run.engine_memory[0]);
  PrintMemoryTables(series, labels, 40, 2);

  std::cout << "\nthreshold: "
            << FormatBytes(PaperBaseConfig().spill.memory_threshold_bytes)
            << "; adaptations: ";
  for (size_t i = 1; i < runs.size(); ++i) {
    std::cout << labels[i] << "=" << runs[i].spill_events << " ";
  }
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dcape

int main(int argc, char** argv) {
  return dcape::bench::Main(std::vector<std::string>(argv + 1, argv + argc));
}
