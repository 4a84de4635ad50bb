#ifndef KBENCH_TRACE_H_
#define KBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// In-memory span recorder of the traced run. Spans are taken in the
/// benchmark's own code around each call into a program layer; a span
/// has a name, start and end (microseconds since the recorder was made),
/// the id of the span that caused it (0 for none) and the id of the
/// request or job it belongs to. Nothing is written until WriteJson at
/// exit. Every span is kept: a run is bounded by its --seconds, and a
/// 60-second serve run records under a million spans (under 50 MB). A
/// disabled recorder keeps nothing, so untraced runs pay one branch per
/// span.

namespace kbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Microseconds since the recorder was made.
  double NowUs() const;

  /// A fresh span id (0 when disabled), taken when a span opens so its
  /// children can name it before it closes. Thread-safe.
  uint64_t NextId();

  /// Records a finished span. `name` must be a string literal.
  /// Thread-safe.
  void Record(const char* name, uint64_t id, uint64_t parent,
              uint64_t request, double start_us, double end_us);

  /// Writes {"spans": [...], <extra>} to `path`; `extra`
  /// is a JSON object body (no braces) appended as further keys.
  bool WriteJson(const std::string& path, const std::string& extra) const;

  size_t size() const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    double start_us;
    double end_us;
  };

  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call into a layer: the span opens on construction and is
/// recorded by Close() (or the destructor), which returns the elapsed
/// microseconds whether or not tracing is on.
class SpanTimer {
 public:
  SpanTimer(Tracer* tracer, const char* name, uint64_t parent = 0,
            uint64_t request = 0);
  ~SpanTimer();
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  double Close();
  /// Id of this span (0 when untraced), for its children to name.
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  double start_us_;
  bool closed_ = false;
  uint64_t id_ = 0;
  double elapsed_us_ = 0.0;
};

/// Median of `values` (mean of the middle two for an even count); 0 for
/// none.
double Median(std::vector<double> values);

/// Named samples of a traced run, reported as medians.
class LayerSamples {
 public:
  void Add(const std::string& name, double value);
  /// Median of the samples under `name`; 0 when there are none.
  double Median(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

}  // namespace kbench

#endif  // KBENCH_TRACE_H_
