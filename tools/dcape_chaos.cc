// dcape_chaos — seeded chaos sweep over randomized DCAPE scenarios.
//
// Each trial samples a scenario (cluster size, strategy, thresholds,
// segment formats, skew, threads) and a fault mix (message delay jitter,
// transient/latched disk failures, corrupted blobs, engine stalls) from
// the trial seed, runs it with invariant checkers armed, then diffs the
// final join output and per-stream tuple accounting against an all-mem
// serial golden run of the same scenario. Failures print the seed, the
// scenario flag line, and a greedily shrunk fault mix; re-running with
// --trials=1 --seed=N replays the identical trace.
//
// Examples:
//   dcape_chaos --trials=200 --seed=0
//   dcape_chaos --trials=1 --seed=137 --verbose      # replay a failure
//   dcape_chaos --trials=20 --bug=duplicate-batch    # must fail
//
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "dcape.h"
#include "sim/harness.h"

namespace dcape {
namespace {

constexpr char kHelp[] =
    R"(dcape_chaos — seeded chaos sweep over randomized DCAPE scenarios

usage: dcape_chaos [--key=value ...]

  --trials=N      number of trials (seeds base..base+N-1)     [50]
  --seed=N        base seed                                   [0]
  --bug=CLASS     overlay a deliberate bug on every trial:
                  duplicate-batch (protocol violation the
                  harness must flag)
  --scenario=S    overlay a fault emphasis on every trial:
                  cleanup-stream (block-granular read faults
                  and truncated blocks during the streaming
                  cleanup, persisting past heal)
  --no-shrink     report failures without shrinking the fault mix
  --verbose       per-trial progress lines

exit status: 0 when every trial passes, 1 otherwise, 2 on bad flags.
)";

bool ParseUint64(std::string_view value, uint64_t* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  const std::string copy(value);
  const unsigned long long parsed = std::strtoull(copy.c_str(), &end, 10);
  if (end != copy.c_str() + copy.size()) return false;
  *out = static_cast<uint64_t>(parsed);
  return true;
}

int Run(const std::vector<std::string>& args) {
  sim::HarnessOptions options;
  options.out = &std::cout;
  for (const std::string& arg : args) {
    const std::string_view view = arg;
    if (view == "--help" || view == "-h") {
      std::cout << kHelp;
      return 0;
    }
    if (view == "--no-shrink") {
      options.shrink = false;
      continue;
    }
    if (view == "--verbose") {
      options.verbose = true;
      continue;
    }
    const size_t eq = view.find('=');
    const std::string_view key = view.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : view.substr(eq + 1);
    uint64_t parsed = 0;
    if (key == "--trials") {
      if (!ParseUint64(value, &parsed) || parsed < 1) {
        std::cerr << "--trials expects a positive integer\n";
        return 2;
      }
      options.trials = static_cast<int>(parsed);
    } else if (key == "--seed") {
      if (!ParseUint64(value, &parsed)) {
        std::cerr << "--seed expects an unsigned integer\n";
        return 2;
      }
      options.base_seed = parsed;
    } else if (key == "--bug") {
      if (value == "duplicate-batch") {
        options.extra_faults.duplicate_batch_prob = 0.02;
      } else {
        std::cerr << "unknown --bug class '" << value
                  << "' (known: duplicate-batch)\n";
        return 2;
      }
    } else if (key == "--scenario") {
      if (value == "cleanup-stream") {
        // Every trial gets block-granular cleanup faults on top of
        // whatever its seed drew; the retry budget must absorb them.
        options.extra_faults.block_read_error_prob = 0.08;
        options.extra_faults.block_corrupt_prob = 0.06;
        options.extra_faults.block_faults_survive_heal = true;
      } else {
        std::cerr << "unknown --scenario '" << value
                  << "' (known: cleanup-stream)\n";
        return 2;
      }
    } else {
      std::cerr << "unknown flag '" << arg << "' (see --help)\n";
      return 2;
    }
  }

  Logging::SetLevel(options.verbose ? LogLevel::kWarning : LogLevel::kError);
  const sim::HarnessReport report = sim::RunTrials(options);
  return report.failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dcape

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return dcape::Run(args);
}
