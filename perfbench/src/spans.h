#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The traced run's span recorder. Each span has a name, a start, an
/// end and the span open around it (its parent); all spans of one
/// recorder share a run id. Spans stay in memory and are written out
/// once, when the run ends. Single-threaded: only the benchmark's main
/// thread opens and closes spans.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span as a child of the innermost open span; returns its id.
  int Begin(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);
  /// Duration of closed span `id`, in seconds.
  double Seconds(int id) const;
  /// Duration of span `id` minus the time its child spans cover.
  double SelfSeconds(int id) const;

  /// Chrome trace_event JSON (viewable in Perfetto); each event carries
  /// its span id, parent id, self time and the run id.
  std::string ToJson() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };

  int64_t NowNs() const;

  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Runs `fn` and returns its wall time in seconds. When `spans` is not
/// null the call is also recorded as span `name`; the untraced run
/// passes null and records nothing.
template <typename Fn>
double Timed(SpanRecorder* spans, const char* name, Fn&& fn) {
  if (spans != nullptr) {
    const int id = spans->Begin(name);
    fn();
    spans->End(id);
    return spans->Seconds(id);
  }
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
