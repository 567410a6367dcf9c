#include "sim/faulty_backend.h"

#include <utility>

#include "common/check.h"

namespace dcape {
namespace sim {

FaultyBackend::FaultyBackend(std::unique_ptr<DiskBackend> inner,
                             FaultPlan* plan, EngineId engine)
    : inner_(std::move(inner)), plan_(plan), engine_(engine) {
  DCAPE_CHECK(inner_ != nullptr);
  DCAPE_CHECK(plan_ != nullptr);
}

Status FaultyBackend::Write(const std::string& name, std::string_view data) {
  if (plan_->SampleWrite(engine_) == FaultPlan::DiskFault::kError) {
    return Status::Internal("injected disk write failure on " + name);
  }
  return inner_->Write(name, data);
}

StatusOr<std::string> FaultyBackend::Read(const std::string& name) {
  const FaultPlan::DiskFault fault = plan_->SampleRead(engine_);
  if (fault == FaultPlan::DiskFault::kError) {
    return Status::Internal("injected disk read failure on " + name);
  }
  DCAPE_ASSIGN_OR_RETURN(std::string data, inner_->Read(name));
  if (fault == FaultPlan::DiskFault::kCorrupt) {
    // Truncation is the one corruption the store detects with certainty
    // (segment size check) — the data on disk stays intact, so a healed
    // re-read during cleanup still succeeds.
    data.resize(data.size() / 2);
  }
  return data;
}

StatusOr<std::string> FaultyBackend::ReadRange(const std::string& name,
                                               int64_t offset, int64_t len) {
  int attempt = 0;
  {
    MutexLock lock(block_mu_);
    attempt = block_attempts_[name + ":" + std::to_string(offset)]++;
  }
  const FaultPlan::DiskFault fault =
      plan_->SampleBlockReadAttempt(engine_, name, offset, attempt);
  if (fault == FaultPlan::DiskFault::kError) {
    return Status::Internal("injected block read failure on " + name);
  }
  DCAPE_ASSIGN_OR_RETURN(std::string data,
                         inner_->ReadRange(name, offset, len));
  if (fault == FaultPlan::DiskFault::kCorrupt) {
    // A short block; the reader detects the length mismatch and
    // retries with a fresh attempt number.
    data.resize(data.size() / 2);
  }
  return data;
}

Status FaultyBackend::Remove(const std::string& name) {
  return inner_->Remove(name);
}

}  // namespace sim
}  // namespace dcape
