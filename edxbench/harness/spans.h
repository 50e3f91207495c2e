// In-memory span recorder for the traced run.
//
// A Span marks one call into a layer: its name ("<layer>.<call>", e.g.
// "core.step1" or "service.submit"), start and end on the monotonic
// clock, and the span open on the same thread when it began (its
// parent).  Each thread appends to its own buffer, so recording takes no
// lock; buffers are read only after the threads that filled them were
// joined.  With tracing off a Span costs one relaxed load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace edxbench {

void set_tracing(bool enabled);
[[nodiscard]] bool tracing();

class Span {
 public:
  /// `name` must outlive the recorder (pass a string literal).
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_{-1};
};

/// Durations in microseconds of every recorded span named `name`.
[[nodiscard]] std::vector<double> span_us(const std::string& name);
/// Sum of those durations in milliseconds.
[[nodiscard]] double span_total_ms(const std::string& name);
/// Self time per layer in milliseconds: each span's duration minus the
/// part its child spans cover, summed by the name's first component.
[[nodiscard]] std::map<std::string, double> layer_self_ms();
/// Number of recorded spans.
[[nodiscard]] std::size_t span_count();
/// Writes one JSON object per span: id, parent, thread, name, start_ns,
/// end_ns.
void write_spans(const std::string& path);

}  // namespace edxbench
