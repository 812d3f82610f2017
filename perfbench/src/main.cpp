// SiMany benchmark program: runs one workload for a fixed time and prints
// its metrics as one JSON object on the last line of standard output.
//
//   simany_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics, measured with span recording
// off. --trace 1 prints the per-layer metrics: its passes cycle between
// plain, span-recording and, where the workload needs them,
// telemetry-off, host-profiled and sequential-host passes; then it runs
// the counting pass, the snapshot probe and the unit-cost probes, and
// writes the spans to <out-dir>/spans-<workload>-<seed>.json. README.md
// in this directory defines every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "calibrate.h"
#include "core/fiber.h"
#include "jobs.h"
#include "spans.h"
#include "unit_costs.h"

using namespace perfbench;
using simany::ExecutionMode;

namespace {

// Fewest passes of each kind: a traced run cycles through several kinds
// and has probes to run after them, so it takes fewer of each.
constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 2;
constexpr double kProbeSeconds = 10;
constexpr double kCalibrationEvery = 0.4;  // seconds between rounds
#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif
constexpr std::uint32_t kExtraIds = 1u << 30;  // span ids outside passes

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "simany_perfbench: %s\nusage: simany_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\nworkloads:",
               msg);
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    const std::string k = argv[i];
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (k == "--out-dir") {
        a.out_dir = value();
      } else {
        usage(("unknown argument " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown or missing --workload");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::uint32_t cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::uint32_t>(CPU_COUNT(&set));
  }
  return 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

class MetricSet {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  /// Takes the values of `other`'s metrics whose names start with
  /// `prefix`.
  void adopt(const MetricSet& other, const std::string& prefix) {
    for (Item& mine : items_) {
      if (mine.name.rfind(prefix, 0) != 0) continue;
      for (const Item& theirs : other.items_) {
        if (theirs.name == mine.name) mine.value = theirs.value;
      }
    }
  }
  void write_json(std::ostream& os) const {
    os << '{';
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(items_[i].value) ? items_[i].value : 0.0);
      os << (i ? "," : "") << '"' << items_[i].name << "\":{\"value\":"
         << buf << ",\"unit\":\"" << items_[i].unit << "\"}";
    }
    os << '}';
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// What a pass runs besides the plain jobs.
enum class PassKind {
  kPlain,
  kSpans,         // records spans
  kTelemetryOff,  // observed jobs without telemetry
  kProfiled,      // obs::HostProfiler attached (parallel host)
  kSequential,    // parallel-host jobs on the sequential host
  kCounted,       // counting EngineObserver attached (sequential host)
};

const char* to_string(PassKind k) {
  switch (k) {
    case PassKind::kPlain: return "plain";
    case PassKind::kSpans: return "spans";
    case PassKind::kTelemetryOff: return "telemetry off";
    case PassKind::kProfiled: return "host profiled";
    case PassKind::kSequential: return "sequential host";
    case PassKind::kCounted: return "counted";
  }
  return "?";
}

/// One run of every job of the workload.
struct Pass {
  PassKind kind = PassKind::kPlain;
  std::uint32_t first_id = 0;
  std::vector<JobResult> jobs;
  /// Calibration rounds taken before, between and after the jobs.
  std::vector<double> calibration;
  /// Multiplies the pass's host times to the reference host speed: the
  /// reference round seconds over the mean of `calibration`.
  double scale = 1.0;
  /// Per job, the fastest native seconds of its dataset measured right
  /// after the pass; 0 if not measured.
  std::vector<double> native;
  /// `scale` for the native runs, from the rounds just before and after
  /// them.
  double native_scale = 1.0;
};

struct Fig5Run {
  const JobSpec* spec;
  JobResult result;
};

/// Fig 5 accuracy over `runs`: per dwarf, the mean over datasets of the
/// 1-core over 64-core completion time, for CL and VT; then the
/// geometric mean over dwarfs of (1 + |VT - CL| / CL) minus one, in
/// percent (bench/fig05_validation_mesh's definition; the paper reports
/// 22.9 %). Returns 0 when a run failed or is missing.
double fig5_error_pct(const std::vector<Fig5Run>& runs) {
  // [dwarf][seed][(cores, cl)] -> completion ticks
  std::map<std::string,
           std::map<std::uint64_t, std::map<std::pair<std::uint32_t, bool>,
                                            double>>>
      t;
  for (const Fig5Run& r : runs) {
    if (!r.result.ok) return 0.0;
    t[r.spec->dwarf->name][r.spec->seed][{r.spec->cores,
                                    r.spec->mode ==
                                        ExecutionMode::kCycleLevel}] =
        static_cast<double>(r.result.stats.completion_ticks);
  }
  std::vector<double> shifted;
  for (auto& [name, by_seed] : t) {
    double s_cl = 0, s_vt = 0;
    for (auto& [seed, m] : by_seed) {
      if (m.size() != 4) return 0.0;
      s_cl += m[{1, true}] / m[{64, true}];
      s_vt += m[{1, false}] / m[{64, false}];
    }
    s_cl /= static_cast<double>(by_seed.size());
    s_vt /= static_cast<double>(by_seed.size());
    shifted.push_back(1.0 + std::fabs(s_vt - s_cl) / s_cl);
    std::printf("fig5 %-22s 64-core speedup CL %.3f VT %.3f\n", name.c_str(),
                s_cl, s_vt);
  }
  return shifted.empty() ? 0.0 : (geomean(shifted) - 1.0) * 100.0;
}

class Bench {
 public:
  Bench(Args args, std::uint32_t nproc)
      : a_(std::move(args)),
        nproc_(nproc),
        jobs_(make_jobs(a_.workload, nproc,
                        dataset_seeds(a_.workload, a_.seed))) {}

  int run();

 private:
  void measure();
  /// Runs `workload`'s traced passes as a probe and takes its metrics
  /// whose names start with `prefix`.
  void adopt_probe(const char* workload, const std::string& prefix,
                   MetricSet& m);
  Pass run_pass(PassKind kind);
  void fail(const std::string& what);
  void measure_natives(Pass& p);
  /// Fastest native seconds of job `j`'s dataset; 0 if never measured.
  double native_of(std::size_t j) const;
  double accuracy_panel();
  std::vector<const Pass*> select(PassKind kind) const;
  /// Job `j`'s fastest repetition among `ps` of `f(pass, j)`; 0 if the
  /// job never succeeded.
  template <class F>
  double best_of(const std::vector<const Pass*>& ps, std::size_t j,
                 F&& f) const;
  /// best_of summed over jobs.
  template <class F>
  double best_sum(const std::vector<const Pass*>& ps, F&& f) const;
  /// Median over the plain passes of the pass's total of `f(pass, j)`
  /// over the jobs `j` that `take(j)` accepts, times `pass.*scale`.
  template <class F, class T>
  double scaled_median(F&& f, T&& take,
                       double Pass::*scale = &Pass::scale) const;
  /// Self seconds of the spans named `name` in job `j` of `p`.
  double span_s(const Pass& p, std::size_t j, const char* name);
  double counted(std::uint64_t (*f)(const simany::SimStats&)) const;
  void end_to_end(MetricSet& m);
  void per_layer(MetricSet& m);
  [[nodiscard]] bool sequential() const { return jobs_.front().shards == 0; }

  Args a_;
  std::uint32_t nproc_;
  std::vector<JobSpec> jobs_;
  Tracer tracer_;
  std::vector<Pass> passes_;
  using Dataset = std::pair<const simany::dwarfs::DwarfSpec*, std::uint64_t>;
  std::map<Dataset, double> native_;  // fastest native seconds
  std::vector<std::uint64_t> ref_digest_;
  std::uint32_t next_id_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::map<std::uint32_t, double>> span_cache_;
};

void Bench::fail(const std::string& what) {
  ++failed_;
  std::printf("FAILED: %s\n", what.c_str());
}

Pass Bench::run_pass(PassKind kind) {
  RunOptions opt;
  opt.telemetry_off = kind == PassKind::kTelemetryOff;
  opt.profile_host = kind == PassKind::kProfiled;
  opt.force_sequential = kind == PassKind::kSequential;
  opt.count_events = kind == PassKind::kCounted;
  // One shard instead of four changes the simulated results.
  const bool check_digest = kind != PassKind::kSequential;
  tracer_.set_recording(kind == PassKind::kSpans);
  Pass p;
  p.kind = kind;
  p.first_id = next_id_;
  next_id_ += static_cast<std::uint32_t>(jobs_.size());
  ref_digest_.resize(jobs_.size(), 0);
  // Calibration rounds spread evenly over the pass's time, so their mean
  // is the host's speed over the pass.
  auto last_round = Clock::now();
  p.calibration.push_back(calibration_round_seconds());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (seconds_since(last_round) >= kCalibrationEvery) {
      last_round = Clock::now();
      p.calibration.push_back(calibration_round_seconds());
    }
    JobResult r = run_job(jobs_[j], tracer_,
                          p.first_id + static_cast<std::uint32_t>(j), opt);
    ++attempted_;
    if (!r.ok) {
      fail(jobs_[j].label + ": " + r.error);
    } else if (check_digest) {
      if (ref_digest_[j] == 0) {
        ref_digest_[j] = r.digest;
      } else if (ref_digest_[j] != r.digest) {
        fail(jobs_[j].label + ": simulated statistics differ between "
             "repetitions");
      }
    }
    p.jobs.push_back(std::move(r));
  }
  p.calibration.push_back(calibration_round_seconds());
  double cal_sum = 0;
  for (double c : p.calibration) cal_sum += c;
  p.scale = kReferenceRoundSeconds /
            (cal_sum / static_cast<double>(p.calibration.size()));
  tracer_.set_recording(false);
  span_cache_.clear();
  return p;
}

void Bench::measure_natives(Pass& p) {
  // Once per dataset and pass, so the references are sampled over the
  // same stretch of time as the simulations.
  std::map<Dataset, double> in_pass;
  p.native.assign(jobs_.size(), 0.0);
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const Dataset d{jobs_[j].dwarf, jobs_[j].seed};
    if (const auto it = in_pass.find(d); it != in_pass.end()) {
      p.native[j] = it->second;
      continue;
    }
    ++attempted_;
    double s = 0;
    try {
      s = native_seconds(jobs_[j], tracer_,
                         p.first_id + static_cast<std::uint32_t>(j));
      const auto [it, fresh] = native_.emplace(d, s);
      if (!fresh) it->second = std::min(it->second, s);
    } catch (const std::exception& e) {
      fail(jobs_[j].label + " (native): " + e.what());
    }
    in_pass.emplace(d, s);
    p.native[j] = s;
  }
}

double Bench::native_of(std::size_t j) const {
  const auto it = native_.find({jobs_[j].dwarf, jobs_[j].seed});
  return it == native_.end() ? 0.0 : it->second;
}

double Bench::accuracy_panel() {
  // A fixed panel, independent of --seed: the error of one dataset
  // swings between 17 % and 39 % with the seed (connected-components
  // dominates), which would hide any change of the timing model.
  // Seeds follow bench/fig05_validation_mesh (seed 1, 3 datasets).
  std::vector<Fig5Run> runs;
  const std::vector<JobSpec> specs =
      make_jobs("validate-64", nproc_, {1, 1001, 2001});
  for (const JobSpec& s : specs) {
    if (s.cores == 16) continue;
    runs.push_back({&s, run_job(s, tracer_, kExtraIds)});
    ++attempted_;
    if (!runs.back().result.ok) {
      fail(s.label + " (accuracy panel): " + runs.back().result.error);
    }
  }
  return fig5_error_pct(runs);
}

std::vector<const Pass*> Bench::select(PassKind kind) const {
  std::vector<const Pass*> out;
  for (const Pass& p : passes_) {
    if (p.kind == kind) out.push_back(&p);
  }
  return out;
}

template <class F>
double Bench::best_of(const std::vector<const Pass*>& ps, std::size_t j,
                      F&& f) const {
  double best = std::numeric_limits<double>::infinity();
  for (const Pass* p : ps) {
    if (p->jobs[j].ok) best = std::min(best, f(*p, j));
  }
  return std::isfinite(best) ? best : 0.0;
}

template <class F>
double Bench::best_sum(const std::vector<const Pass*>& ps, F&& f) const {
  double total = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) total += best_of(ps, j, f);
  return total;
}

template <class F, class T>
double Bench::scaled_median(F&& f, T&& take, double Pass::*scale) const {
  std::vector<double> totals;
  for (const Pass* p : select(PassKind::kPlain)) {
    double total = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (take(j)) total += f(*p, j);
    }
    totals.push_back(p->*scale * total);
  }
  return median(std::move(totals));
}

double Bench::span_s(const Pass& p, std::size_t j, const char* name) {
  auto it = span_cache_.find(name);
  if (it == span_cache_.end()) {
    it = span_cache_.emplace(name, tracer_.self_seconds_by_job(name)).first;
  }
  const auto hit = it->second.find(p.first_id + static_cast<std::uint32_t>(j));
  return hit == it->second.end() ? 0.0 : hit->second;
}

double Bench::counted(std::uint64_t (*f)(const simany::SimStats&)) const {
  double s = 0;
  for (const JobResult& r : passes_.front().jobs) {
    s += static_cast<double>(f(r.stats));
  }
  return s;
}

double job_wall(const Pass& p, std::size_t j) { return p.jobs[j].wall_s(); }
double job_run(const Pass& p, std::size_t j) { return p.jobs[j].run_s; }
double job_setup(const Pass& p, std::size_t j) {
  return p.jobs[j].gen_s + p.jobs[j].construct_s;
}

void Bench::end_to_end(MetricSet& m) {
  const auto all = [](std::size_t) { return true; };
  m.add("setup_s", scaled_median(job_setup, all), "s");
  m.add("wall_s", scaled_median(job_wall, all), "s");

  // The rate covers VT jobs only, like slowdown_gm; the CL rate is
  // cyclesim.ns_per_event.
  const auto vt = [this](std::size_t j) {
    return jobs_[j].mode == ExecutionMode::kVirtualTime;
  };
  double vt_events = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (vt(j)) {
      vt_events += static_cast<double>(passes_.front().jobs[j].sim_events());
    }
  }
  // Both times at the reference host speed: per job, the scaled median
  // of its runs over the scaled median of its dataset's native runs.
  const auto job_native = [](const Pass& p, std::size_t j) {
    return p.native[j];
  };
  std::vector<double> slowdowns;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const auto only_j = [j](std::size_t k) { return k == j; };
    const double native =
        scaled_median(job_native, only_j, &Pass::native_scale);
    if (vt(j) && native > 0) {
      slowdowns.push_back(scaled_median(job_run, only_j) / native);
    }
  }
  m.add("slowdown_gm", geomean(slowdowns), "x");
  m.add("host_ns_per_event",
        vt_events > 0 ? scaled_median(job_run, vt) / vt_events * 1e9 : 0,
        "ns");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");

  const auto t_panel = Clock::now();
  const double err = accuracy_panel();
  std::printf("accuracy panel: %.2f s\n", seconds_since(t_panel));
  if (!(err > 0)) fail("speedup_err_pct could not be computed");
  m.add("speedup_err_pct", err, "%");
}

void Bench::per_layer(MetricSet& m) {
  const auto plain = select(PassKind::kPlain);
  const auto traced = select(PassKind::kSpans);
  auto spans = [&](const char* name) {
    return best_sum(traced, [&](const Pass& p, std::size_t j) {
      return span_s(p, j, name);
    });
  };
  const bool seq = sequential();
  const UnitCosts u = measure_unit_costs();

  // core
  const double core_run_s = spans("core.run");
  const double cl_run_s = spans("cyclesim.run");
  m.add("core.run_s", core_run_s, "s");
  // The fastest of the job's set-up repetitions (see run_job).
  m.add("core.construct_s",
        best_sum(traced,
                 [&](const Pass& p, std::size_t j) {
                   return jobs_[j].mode == ExecutionMode::kVirtualTime
                              ? p.jobs[j].construct_s
                              : 0.0;
                 }),
        "s");
  m.add("core.tasks", counted([](const simany::SimStats& s) {
          return s.tasks_spawned + s.tasks_inlined;
        }), "count");
  m.add("core.messages",
        counted([](const simany::SimStats& s) { return s.messages; }),
        "count");
  const double fiber_switches =
      counted([](const simany::SimStats& s) { return s.fiber_switches; });
  m.add("core.fiber_switches", fiber_switches, "count");
  m.add("core.sync_stalls",
        counted([](const simany::SimStats& s) { return s.sync_stalls; }),
        "count");
  m.add("core.limit_recomputes",
        counted([](const simany::SimStats& s) { return s.limit_recomputes; }),
        "count");
  m.add("core.joins_suspended",
        counted([](const simany::SimStats& s) { return s.joins_suspended; }),
        "count");
  m.add("core.fiber_switch_ns", u.fiber_switch_ns, "ns");

  // net
  const double hops =
      counted([](const simany::SimStats& s) { return s.network.hops; });
  m.add("net.hops", hops, "count");
  m.add("net.contention_ticks", counted([](const simany::SimStats& s) {
          return static_cast<std::uint64_t>(s.network.contention_ticks);
        }), "ticks");
  m.add("net.route_lookup_ns", u.route_lookup_ns, "ns");
  m.add("net.hop_ns", u.hop_ns, "ns");
  m.add("net.route_build_s", u.route_build_s, "s");

  // Counts only an observer sees. An observer pins the host to one
  // thread, so the parallel workload reports none.
  ObservedCounts oc;
  if (seq) {
    const Pass counted_pass = run_pass(PassKind::kCounted);
    for (const JobResult& r : counted_pass.jobs) {
      oc.advances += r.counts.advances;
      oc.cell_acquires += r.counts.cell_acquires;
      oc.data_msgs += r.counts.data_msgs;
    }
  }

  // mem
  m.add("mem.cell_acquires", static_cast<double>(oc.cell_acquires), "count");
  m.add("mem.data_msgs", static_cast<double>(oc.data_msgs), "count");
  m.add("mem.l1_access_ns", u.l1_access_ns, "ns");
  m.add("mem.setassoc_access_ns", u.setassoc_access_ns, "ns");

  // timing
  m.add("timing.advances", static_cast<double>(oc.advances), "count");
  m.add("timing.block_ns", u.block_ns, "ns");

  // host: round phases from obs::HostProfiler on the profiled passes,
  // and the sequential-host passes for the speedup.
  HostPhases hp;
  double speedup = 0;
  if (!seq) {
    const auto prof = select(PassKind::kProfiled);
    auto phase = [&](double HostPhases::*field) {
      return best_sum(prof, [&](const Pass& p, std::size_t j) {
        return p.jobs[j].host.*field;
      });
    };
    hp.drain_s = phase(&HostPhases::drain_s);
    hp.execute_s = phase(&HostPhases::execute_s);
    hp.publish_s = phase(&HostPhases::publish_s);
    hp.barrier_s = phase(&HostPhases::barrier_s);
    hp.serial_s = phase(&HostPhases::serial_s);
    const double seq_wall = best_sum(select(PassKind::kSequential), job_wall);
    const double par_wall = best_sum(plain, job_wall);
    speedup = seq_wall / par_wall;
    std::printf("host: sequential %.4f s, parallel %.4f s (%u threads)\n",
                seq_wall, par_wall, jobs_.front().threads);
  }
  m.add("host.rounds",
        counted([](const simany::SimStats& s) { return s.host_rounds; }),
        "count");
  m.add("host.execute_s", hp.execute_s, "s");
  m.add("host.drain_s", hp.drain_s, "s");
  m.add("host.publish_s", hp.publish_s, "s");
  m.add("host.barrier_s", hp.barrier_s, "s");
  m.add("host.serial_s", hp.serial_s, "s");
  m.add("host.speedup_vs_seq", speedup, "x");

  // obs: the telemetry-off passes give the recording overhead (the event
  // loop, SimStats::wall_seconds) and the finalize tail (Engine::run
  // after the event loop, where Telemetry::finalize runs).
  double overhead = 0, finalize_s = 0;
  if (jobs_.front().observed) {
    const auto off = select(PassKind::kTelemetryOff);
    auto loop = [](const Pass& p, std::size_t j) {
      return p.jobs[j].engine_wall_s;
    };
    auto tail = [](const Pass& p, std::size_t j) {
      return p.jobs[j].run_s - p.jobs[j].engine_wall_s;
    };
    overhead = best_sum(plain, loop) / best_sum(off, loop) - 1.0;
    finalize_s = best_sum(plain, tail) - best_sum(off, tail);
  }
  const Pass& first = passes_.front();
  double events = 0, export_bytes = 0;
  for (const JobResult& r : first.jobs) {
    events += static_cast<double>(r.events);
    export_bytes += static_cast<double>(r.export_bytes);
  }
  m.add("obs.events", events, "count");
  m.add("obs.record_overhead", overhead, "ratio");
  m.add("obs.finalize_s", finalize_s, "s");
  m.add("obs.critpath_s", spans("obs.critpath"), "s");
  m.add("obs.export_s", spans("obs.export"), "s");
  m.add("obs.export_bytes", export_bytes, "bytes");

  // cyclesim. CL jobs also rerun with the synthetic address layout
  // shifted by half a cache way: a job whose simulated statistics change
  // depends on where earlier jobs of its process left runtime::synth_alloc.
  double cl_events = 0, layout_sensitive = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].mode != ExecutionMode::kCycleLevel) continue;
    cl_events += static_cast<double>(first.jobs[j].sim_events());
    const JobResult r = run_job(jobs_[j], tracer_, kExtraIds,
                                RunOptions{.address_shift = 2048});
    ++attempted_;
    if (!r.ok) fail(jobs_[j].label + " (shifted layout): " + r.error);
    if (r.digest != ref_digest_[j]) {
      layout_sensitive += 1;
      std::printf("layout-sensitive: %s\n", jobs_[j].label.c_str());
    }
  }
  m.add("cyclesim.run_s", cl_run_s, "s");
  m.add("cyclesim.ns_per_event",
        cl_events > 0 ? cl_run_s / cl_events * 1e9 : 0, "ns");
  m.add("cyclesim.layout_sensitive_jobs", layout_sensitive, "count");

  m.add("dwarfs.gen_s", spans("dwarfs.make_root"), "s");
  double native_total = 0;
  for (const auto& [d, sec] : native_) native_total += sec;
  m.add("runtime.native_s", native_total, "s");

  // snapshot: resume cost of one explore-1024 job.
  std::vector<SnapshotCost> snaps = {{25}, {50}, {75}};
  if (a_.workload == "explore-1024") {
    // The run's largest distributed dijkstra dataset (some seeds draw
    // graphs whose source has no edges).
    std::size_t pick = jobs_.size();
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (jobs_[j].dwarf->name != "dijkstra" || jobs_[j].arch != "distributed") {
        continue;
      }
      if (pick == jobs_.size() ||
          first.jobs[j].sim_events() > first.jobs[pick].sim_events()) {
        pick = j;
      }
    }
    ++attempted_;
    try {
      snaps = measure_snapshots(jobs_[pick], tracer_, kExtraIds, a_.out_dir);
    } catch (const std::exception& e) {
      fail(std::string("snapshot probe: ") + e.what());
    }
  }
  for (const SnapshotCost& c : snaps) {
    const std::string q = ".q" + std::to_string(c.percent);
    m.add("snapshot.capture_s" + q, c.capture_s, "s");
    m.add("snapshot.restore_s" + q, c.restore_s, "s");
    m.add("snapshot.restore_over_fresh" + q, c.restore_over_fresh, "ratio");
  }

  // Host-time ledger: counts times unit costs, against the measured
  // Engine::run time. Memory accesses have no count by model path, so
  // the mem layer stays unattributed and lands in the residual.
  double ledger_run = 0, l_core = 0, l_net = 0, l_timing = 0;
  if (seq) {
    ledger_run = core_run_s + cl_run_s;
    l_core = fiber_switches * u.fiber_switch_ns * 1e-9;
    l_net = hops * u.hop_ns * 1e-9;
    l_timing = static_cast<double>(oc.advances) * u.block_ns * 1e-9;
    std::printf(
        "ledger: Engine::run %.4f s = core (fiber switches) %.4f + net %.4f "
        "+ timing %.4f + mem (unattributed) + residual %.4f s\n",
        ledger_run, l_core, l_net, l_timing,
        ledger_run - l_core - l_net - l_timing);
  }
  const double residual = ledger_run - l_core - l_net - l_timing;
  m.add("ledger.run_s", ledger_run, "s");
  m.add("ledger.core_s", l_core, "s");
  m.add("ledger.net_s", l_net, "s");
  m.add("ledger.timing_s", l_timing, "s");
  m.add("ledger.residual_s", residual, "s");
  m.add("ledger.residual_share", ledger_run > 0 ? residual / ledger_run : 0,
        "ratio");

  // The parallel host and the observability layer are too noisy on a
  // shared host to gate as workloads of their own (README.md). Their
  // jobs run here as probes, in the traced runs of the gated workloads.
  if (a_.workload == "explore-1024") adopt_probe("par-host", "host.", m);
  if (a_.workload == "validate-64") adopt_probe("observed", "obs.", m);

  m.add("trace.overhead",
        best_sum(traced, job_wall) / best_sum(plain, job_wall) - 1.0, "ratio");
}

void Bench::measure() {
  // A traced run cycles through the pass kinds its per-layer metrics
  // compare, so both sides of each comparison see the same stretch of
  // host time.
  std::vector<PassKind> cycle = {PassKind::kPlain};
  if (a_.trace) {
    cycle.push_back(PassKind::kSpans);
    if (jobs_.front().observed) cycle.push_back(PassKind::kTelemetryOff);
    if (!sequential()) {
      cycle.push_back(PassKind::kProfiled);
      cycle.push_back(PassKind::kSequential);
    }
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const PassKind kind = cycle[i % cycle.size()];
    passes_.push_back(run_pass(kind));
    Pass& p = passes_.back();
    if (kind == PassKind::kPlain || kind == PassKind::kSpans) {
      tracer_.set_recording(kind == PassKind::kSpans);
      measure_natives(p);
      tracer_.set_recording(false);
      p.native_scale = kReferenceRoundSeconds /
                       (0.5 * (p.calibration.back() +
                               calibration_round_seconds()));
    }
    std::printf("pass %zu (%s): setup %.4f s, wall %.4f s, %zu calibration "
                "rounds of %.4f s, scale %.3f\n",
                i, to_string(kind), best_sum({&p}, job_setup),
                best_sum({&p}, job_wall), p.calibration.size(),
                kReferenceRoundSeconds / p.scale, p.scale);
    const bool enough =
        i + 1 >= (a_.trace ? kMinTracedPasses : kMinPasses) * cycle.size();
    if (enough && seconds_since(t0) >= a_.seconds) break;
  }
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    std::vector<double> run;
    for (const Pass* p : select(PassKind::kPlain)) run.push_back(p->jobs[j].run_s);
    std::printf("job %-44s run min %.4f median %.4f s, native %.6f s, "
                "%llu events\n",
                jobs_[j].label.c_str(), *std::min_element(run.begin(), run.end()),
                median(run), native_of(j),
                static_cast<unsigned long long>(
                    passes_.front().jobs[j].sim_events()));
  }
}

void Bench::adopt_probe(const char* workload, const std::string& prefix,
                        MetricSet& m) {
  Args sub = a_;
  sub.workload = workload;
  sub.seconds = kProbeSeconds;
  std::printf("probe: %s for the %s* metrics\n", workload, prefix.c_str());
  Bench probe(sub, nproc_);
  probe.measure();
  MetricSet pm;
  probe.per_layer(pm);
  m.adopt(pm, prefix);
  attempted_ += probe.attempted_;
  failed_ += probe.failed_;
}

int Bench::run() {
  std::error_code ec;
  std::filesystem::create_directories(a_.out_dir, ec);
  measure();
  MetricSet m;
  if (a_.trace) {
    per_layer(m);
    const std::string path = a_.out_dir + "/spans-" + a_.workload + "-" +
                             std::to_string(a_.seed) + ".json";
    std::ofstream out(path);
    tracer_.write_chrome_trace(out);
    std::printf("spans: %zu written to %s\n", tracer_.size(), path.c_str());
  } else {
    end_to_end(m);
  }

  std::cout << "{\"correct\":" << (failed_ == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
            << ",\"metrics\":";
  m.write_json(std::cout);
  const char* backend =
      simany::Fiber::resolve_backend(simany::FiberBackend::kAuto) ==
              simany::FiberBackend::kFast
          ? "fast"
          : "ucontext";
  std::cout << ",\"context\":{\"workload\":\"" << a_.workload
            << "\",\"seed\":" << a_.seed << ",\"nproc\":" << nproc_
            << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"compiler\":\"" << kCompiler
            << "\",\"fiber_backend\":\"" << backend
            << "\",\"host_pin_workers\":"
            << (simany::HostConfig{}.pin_workers ? "true" : "false") << "}}"
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(parse(argc, argv), cpu_count());
  return bench.run();
}
