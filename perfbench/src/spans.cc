#include "spans.h"

#include <sstream>

#include "common/check.h"

namespace perfbench {

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), epoch_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::Begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      Span{std::move(name), open_.empty() ? -1 : open_.back(), NowNs(), -1});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  DCAPE_CHECK(!open_.empty() && open_.back() == id);
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

double SpanRecorder::Seconds(int id) const {
  const Span& span = spans_[static_cast<size_t>(id)];
  DCAPE_CHECK_GE(span.end_ns, 0);
  return static_cast<double>(span.end_ns - span.start_ns) / 1e9;
}

double SpanRecorder::SelfSeconds(int id) const {
  // Children of one span are sequential (one thread), so the time they
  // cover is the sum of their durations.
  double self = Seconds(id);
  for (size_t c = 0; c < spans_.size(); ++c) {
    if (spans_[c].parent == id) self -= Seconds(static_cast<int>(c));
  }
  return self;
}

std::string SpanRecorder::ToJson() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const int id = static_cast<int>(i);
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(span.start_ns) / 1e3
        << ", \"dur\": " << Seconds(id) * 1e6 << ", \"args\": {\"span\": "
        << id << ", \"parent\": " << span.parent
        << ", \"self_us\": " << SelfSeconds(id) * 1e6 << ", \"run_id\": \""
        << run_id_ << "\"}}";
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace perfbench
