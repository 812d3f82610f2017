#include "spans.h"

#include <iomanip>

namespace perfbench {

Tracer::Open::Open(Tracer& t, const char* name, std::uint32_t job)
    : t_(t), t0_(Clock::now()), saved_parent_(t.parent_) {
  if (t_.recording_) {
    index_ = static_cast<std::int64_t>(t_.spans_.size());
    t_.spans_.push_back(Span{name, job, t_.parent_, t_.offset_ns(t0_), 0});
    t_.parent_ = index_;
  }
}

Tracer::Open::~Open() {
  if (!closed_) close();  // the call threw: still end the span
}

double Tracer::Open::close() {
  const auto t1 = Clock::now();
  closed_ = true;
  if (index_ >= 0) {
    t_.spans_[static_cast<std::size_t>(index_)].t1_ns = t_.offset_ns(t1);
    t_.parent_ = saved_parent_;
  }
  return std::chrono::duration<double>(t1 - t0_).count();
}

std::map<std::uint32_t, double> Tracer::self_seconds_by_job(
    const std::string& name) const {
  // Children run strictly inside their parent and one after another,
  // so the time they cover is the sum of their durations.
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.t1_ns - s.t0_ns;
    }
  }
  std::map<std::uint32_t, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    out[s.job] += static_cast<double>(s.t1_ns - s.t0_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  os << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) os << ',';
    os << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.job << ",\"ts\":" << static_cast<double>(s.t0_ns) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
