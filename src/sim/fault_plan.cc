#include "sim/fault_plan.h"

#include <algorithm>

#include "common/check.h"

namespace dcape {
namespace sim {

bool FaultSpec::AnyEnabled() const {
  return delay_prob > 0 || duplicate_batch_prob > 0 || read_error_prob > 0 ||
         corrupt_read_prob > 0 || write_error_prob > 0 ||
         latch_write_prob > 0 || stall_prob > 0 ||
         block_read_error_prob > 0 || block_corrupt_prob > 0;
}

std::string FaultSpec::Describe() const {
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) out += ",";
    out += name;
  };
  if (delay_prob > 0) add("delay");
  if (duplicate_batch_prob > 0) add("duplicate");
  if (read_error_prob > 0) add("disk-read");
  if (corrupt_read_prob > 0) add("corrupt");
  if (write_error_prob > 0) add("disk-write");
  if (latch_write_prob > 0) add("disk-latch");
  if (stall_prob > 0) add("stall");
  if (block_read_error_prob > 0) add("block-read");
  if (block_corrupt_prob > 0) add("block-corrupt");
  if (out.empty()) out = "none";
  return out;
}

void FaultSpec::MergeMax(const FaultSpec& other) {
  delay_prob = std::max(delay_prob, other.delay_prob);
  max_extra_delay = std::max(max_extra_delay, other.max_extra_delay);
  duplicate_batch_prob =
      std::max(duplicate_batch_prob, other.duplicate_batch_prob);
  read_error_prob = std::max(read_error_prob, other.read_error_prob);
  corrupt_read_prob = std::max(corrupt_read_prob, other.corrupt_read_prob);
  write_error_prob = std::max(write_error_prob, other.write_error_prob);
  latch_write_prob = std::max(latch_write_prob, other.latch_write_prob);
  stall_prob = std::max(stall_prob, other.stall_prob);
  max_stall_ticks = std::max(max_stall_ticks, other.max_stall_ticks);
  block_read_error_prob =
      std::max(block_read_error_prob, other.block_read_error_prob);
  block_corrupt_prob = std::max(block_corrupt_prob, other.block_corrupt_prob);
  block_faults_survive_heal =
      block_faults_survive_heal || other.block_faults_survive_heal;
}

FaultPlan::FaultPlan(const FaultSpec& spec, uint64_t seed, int num_engines)
    : spec_(spec),
      seed_(seed),
      net_rng_(seed * 0x9E3779B97F4A7C15ULL + 1),
      stall_rng_(seed * 0x9E3779B97F4A7C15ULL + 2) {
  DCAPE_CHECK_GT(num_engines, 0);
  disks_.reserve(static_cast<size_t>(num_engines));
  for (int e = 0; e < num_engines; ++e) {
    disks_.push_back(DiskState{
        Rng(seed * 0x9E3779B97F4A7C15ULL + 100 + static_cast<uint64_t>(e)),
        false});
  }
}

Tick FaultPlan::SampleExtraDelay(const Message& message) {
  (void)message;
  if (healed() || spec_.delay_prob <= 0 || spec_.max_extra_delay <= 0) {
    return 0;
  }
  if (!net_rng_.Bernoulli(spec_.delay_prob)) return 0;
  return 1 + static_cast<Tick>(net_rng_.Uniform(
                 static_cast<uint64_t>(spec_.max_extra_delay)));
}

bool FaultPlan::SampleDuplicate(const Message& message) {
  if (healed() || spec_.duplicate_batch_prob <= 0) return false;
  // Only the data plane is duplicated: the point of the bug mode is to
  // plant an output-visible defect the oracle must catch, not to break
  // the protocol channels in ways a real TCP link never would.
  if (message.type != MessageType::kTupleBatch) return false;
  return net_rng_.Bernoulli(spec_.duplicate_batch_prob);
}

FaultPlan::DiskFault FaultPlan::SampleRead(EngineId engine) {
  if (healed()) return DiskFault::kNone;
  DiskState& disk = disks_[static_cast<size_t>(engine)];
  if (spec_.read_error_prob > 0 &&
      disk.rng.Bernoulli(spec_.read_error_prob)) {
    return DiskFault::kError;
  }
  if (spec_.corrupt_read_prob > 0 &&
      disk.rng.Bernoulli(spec_.corrupt_read_prob)) {
    return DiskFault::kCorrupt;
  }
  return DiskFault::kNone;
}

FaultPlan::DiskFault FaultPlan::SampleWrite(EngineId engine) {
  if (healed()) return DiskFault::kNone;
  DiskState& disk = disks_[static_cast<size_t>(engine)];
  if (disk.write_latched) return DiskFault::kError;
  if (spec_.latch_write_prob > 0 &&
      disk.rng.Bernoulli(spec_.latch_write_prob)) {
    disk.write_latched = true;
    return DiskFault::kError;
  }
  if (spec_.write_error_prob > 0 &&
      disk.rng.Bernoulli(spec_.write_error_prob)) {
    return DiskFault::kError;
  }
  return DiskFault::kNone;
}

bool FaultPlan::write_latched(EngineId engine) const {
  return disks_[static_cast<size_t>(engine)].write_latched;
}

namespace {

/// splitmix64 finalizer — the same fixed mix SecondaryKeyHash uses, so
/// fault sampling is identical across platforms and standard libraries.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Uniform [0, 1) from 53 high bits.
double MixUniform(uint64_t x) {
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

FaultPlan::DiskFault FaultPlan::SampleBlockReadAttempt(EngineId engine,
                                                       std::string_view name,
                                                       int64_t offset,
                                                       int attempt) const {
  if (healed() && !spec_.block_faults_survive_heal) return DiskFault::kNone;
  if (spec_.block_read_error_prob <= 0 && spec_.block_corrupt_prob <= 0) {
    return DiskFault::kNone;
  }
  uint64_t h = Mix64(seed_ ^ 0xB10CFA417ULL);
  for (const char c : name) {
    h = Mix64(h ^ static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  h = Mix64(h ^ static_cast<uint64_t>(engine));
  h = Mix64(h ^ static_cast<uint64_t>(offset));
  h = Mix64(h ^ static_cast<uint64_t>(attempt));
  if (spec_.block_read_error_prob > 0 &&
      MixUniform(Mix64(h + 1)) < spec_.block_read_error_prob) {
    return DiskFault::kError;
  }
  if (spec_.block_corrupt_prob > 0 &&
      MixUniform(Mix64(h + 2)) < spec_.block_corrupt_prob) {
    return DiskFault::kCorrupt;
  }
  return DiskFault::kNone;
}

Tick FaultPlan::SampleStall(EngineId engine) {
  (void)engine;
  if (healed() || spec_.stall_prob <= 0 || spec_.max_stall_ticks <= 0) {
    return 0;
  }
  if (!stall_rng_.Bernoulli(spec_.stall_prob)) return 0;
  return 1 + static_cast<Tick>(stall_rng_.Uniform(
                 static_cast<uint64_t>(spec_.max_stall_ticks)));
}

}  // namespace sim
}  // namespace dcape
