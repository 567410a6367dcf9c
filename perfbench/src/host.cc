#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {
namespace {

std::set<int> ThreadIds() {
  std::set<int> ids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.insert(std::stoi(entry.path().filename().string()));
  }
  return ids;
}

/// utime + stime of one thread in clock ticks; -1 once it has exited.
int64_t ThreadCpuTicks(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  // Fields after the parenthesised command name, which may hold spaces:
  // state is field 3, utime field 14, stime field 15.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  int64_t utime = 0;
  int64_t stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoll(field);
    if (i == 15) stime = std::stoll(field);
  }
  return utime + stime;
}

}  // namespace

int64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

ThreadCpuMonitor::ThreadCpuMonitor(int period_ms)
    : period_ms_(period_ms), preexisting_(ThreadIds()) {
  sampler_ = std::thread([this] {
    preexisting_.insert(static_cast<int>(gettid()));
    while (!stop_.load(std::memory_order_acquire)) {
      Sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(period_ms_));
    }
  });
}

ThreadCpuMonitor::~ThreadCpuMonitor() { Stop(); }

void ThreadCpuMonitor::Stop() {
  stop_.store(true, std::memory_order_release);
  if (sampler_.joinable()) sampler_.join();
}

void ThreadCpuMonitor::Sample() {
  for (int tid : ThreadIds()) {
    if (preexisting_.count(tid) > 0) continue;
    const int64_t ticks = ThreadCpuTicks(tid);
    if (ticks < 0) continue;
    dcape::MutexLock lock(mu_);
    cpu_ticks_[tid] = ticks;
  }
}

std::vector<double> ThreadCpuMonitor::NewThreadCpuSeconds() const {
  const double ticks_per_sec = static_cast<double>(sysconf(_SC_CLK_TCK));
  std::vector<double> seconds;
  dcape::MutexLock lock(mu_);
  for (const auto& [tid, ticks] : cpu_ticks_) {
    seconds.push_back(static_cast<double>(ticks) / ticks_per_sec);
  }
  return seconds;
}

}  // namespace perfbench
