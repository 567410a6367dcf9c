#include "calibrate.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

/// Chasing through a 16 MiB and a 64 MiB table waits on the shared
/// caches and on memory, as the engines' probes into grown state do. A
/// 4 MiB table followed the workloads' drift less and varied more from
/// one process to the next (README.md, "Host-normalized times").
constexpr size_t kSmallTableWords = size_t{1} << 21;
constexpr size_t kSmallTableSteps = 1500000;
constexpr size_t kLargeTableWords = size_t{1} << 23;
constexpr size_t kLargeTableSteps = 750000;
constexpr uint64_t kMultiplySteps = 50000000;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Seconds for `steps` dependent loads through a table of `words`
/// (a power of two) pseudo-random words.
double ChaseSeconds(size_t words, size_t steps) {
  std::vector<uint64_t> table(words);
  uint64_t x = 88172645463325252ull;
  for (uint64_t& word : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    word = x;
  }
  const auto start = std::chrono::steady_clock::now();
  uint64_t index = 0;
  for (size_t i = 0; i < steps; ++i) {
    index = (table[index] ^ i) & (words - 1);
  }
  const double seconds = SecondsSince(start);
  // The result must stay observable, or the loop could be dropped.
  volatile uint64_t sink = index;
  (void)sink;
  return seconds;
}

/// Seconds for a chain of `steps` dependent multiplies.
double MultiplySeconds(uint64_t steps) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t h = 1;
  for (uint64_t i = 0; i < steps; ++i) {
    h = h * 6364136223846793005ull + i;
    h ^= h >> 29;
  }
  const double seconds = SecondsSince(start);
  volatile uint64_t sink = h;
  (void)sink;
  return seconds;
}

}  // namespace

double CalibrationSeconds() {
  return ChaseSeconds(kSmallTableWords, kSmallTableSteps) +
         ChaseSeconds(kLargeTableWords, kLargeTableSteps) +
         MultiplySeconds(kMultiplySteps);
}

}  // namespace perfbench
