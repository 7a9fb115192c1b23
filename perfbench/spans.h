#ifndef RANKJOIN_PERFBENCH_SPANS_H_
#define RANKJOIN_PERFBENCH_SPANS_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace rankjoin::perfbench {

/// One timed call into a layer. The layer is the part of `name` before
/// the first '.', so "data.load" belongs to layer "data".
struct Span {
  int id = 0;
  /// Id of the span that caused this one, -1 for a root.
  int parent = -1;
  /// Shared by all spans of one pass.
  int pass = 0;
  std::string name;
  double start_us = 0;
  double end_us = 0;
};

/// The layer a span name belongs to.
std::string LayerOf(const std::string& name);

/// Keeps the spans of a run in memory; they are written out once, at the
/// end, so recording costs one clock read and one push per boundary.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span and returns its id.
  int Begin(const std::string& name, int parent, int pass);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace format (the format of `rankjoin_cli --trace-out`):
  /// complete events, one thread row per pass, with span, parent and
  /// pass ids in `args`.
  std::string ToChromeJson() const;

 private:
  using Clock = std::chrono::steady_clock;
  double NowUs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction. A null
/// recorder records nothing, which is how untraced passes run.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent,
             int pass)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, parent, pass) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Self seconds per layer over the spans of one pass: each span's
/// duration minus the part of it that its child spans cover. The self
/// times of a pass add up to the duration of its root spans.
std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans,
                                                 int pass);

}  // namespace rankjoin::perfbench

#endif  // RANKJOIN_PERFBENCH_SPANS_H_
