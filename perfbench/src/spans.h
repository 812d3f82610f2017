// Benchmark-side timing spans.
//
// Every call the benchmark makes into a SiMany module goes through
// Tracer::span, which always measures the call's host seconds. When the
// tracer is on it also keeps a span record (name, job, parent, start,
// end) in memory; the records are written out once, at the end of the
// run, as a Chrome trace. Nothing inside the simulator is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "core.run"
  std::uint32_t job = 0;
  std::int64_t parent = -1;  // index into the span list, -1 for roots
  std::uint64_t t0_ns = 0;   // offset from the tracer's creation
  std::uint64_t t1_ns = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Records spans from now on (timing is measured either way).
  void set_recording(bool on) noexcept { recording_ = on; }
  [[nodiscard]] bool recording() const noexcept { return recording_; }

  /// Runs `fn` inside a span named `name` for job `job` and returns
  /// its host seconds. Spans opened inside `fn` become its children.
  template <class F>
  double span(const char* name, std::uint32_t job, F&& fn) {
    Open open(*this, name, job);
    fn();
    return open.close();
  }

  /// Sum over recorded spans named `name` of their self time (duration
  /// minus the time covered by their children), grouped by job.
  [[nodiscard]] std::map<std::uint32_t, double> self_seconds_by_job(
      const std::string& name) const;

  /// Writes the recorded spans as a Chrome trace (chrome://tracing,
  /// Perfetto): one track per job, one complete event per span.
  void write_chrome_trace(std::ostream& os) const;

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  class Open {
   public:
    Open(Tracer& t, const char* name, std::uint32_t job);
    ~Open();
    Open(const Open&) = delete;
    Open& operator=(const Open&) = delete;
    double close();

   private:
    Tracer& t_;
    Clock::time_point t0_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
    bool closed_ = false;
  };

  [[nodiscard]] std::uint64_t offset_ns(Clock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  }

  Clock::time_point origin_;
  bool recording_ = false;
  std::int64_t parent_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench
