#include "jobs.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/engine_observer.h"
#include "cyclesim/cycle_sim.h"
#include "dwarfs/workloads.h"
#include "obs/critpath.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "runtime/data.h"
#include "runtime/native_sim.h"
#include "snapshot/plan.h"
#include "snapshot/snapshot.h"

namespace perfbench {

using namespace simany;

namespace {

constexpr int kSetupReps = 3;

JobSpec job(const dwarfs::DwarfSpec& d, std::uint64_t seed, double factor,
            const char* arch, std::uint32_t cores, ExecutionMode mode) {
  JobSpec s;
  s.dwarf = &d;
  s.seed = seed;
  s.factor = factor;
  s.arch = arch;
  s.cores = cores;
  s.mode = mode;
  s.label = d.name + "/" + arch + std::to_string(cores) + "/" +
            (mode == ExecutionMode::kCycleLevel ? "cl" : "vt") + "#" +
            std::to_string(seed);
  return s;
}

class CountingObserver final : public EngineObserver {
 public:
  ObservedCounts counts;

  void on_advance(const Engine&, CoreId, Tick, Tick, AdvanceKind,
                  bool) override {
    ++counts.advances;
  }
  void on_cell_acquired(const Engine&, CoreId, CellId) override {
    ++counts.cell_acquires;
  }
  void on_message_handled(const Engine&, CoreId, const Message& m) override {
    if (m.kind == MsgKind::kDataRequest || m.kind == MsgKind::kDataResponse) {
      ++counts.data_msgs;
    }
  }
};

HostPhases sum_phases(const obs::HostProfiler& p) {
  HostPhases h;
  auto add = [&h](const obs::HostSpan& s) {
    const double sec = static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
    switch (s.phase) {
      case obs::HostPhase::kDrain: h.drain_s += sec; break;
      case obs::HostPhase::kExecute: h.execute_s += sec; break;
      case obs::HostPhase::kPublish: h.publish_s += sec; break;
      case obs::HostPhase::kBarrier: h.barrier_s += sec; break;
      case obs::HostPhase::kSerial: h.serial_s += sec; break;
    }
  };
  for (std::uint32_t s = 0; s < p.num_shards(); ++s) {
    for (const obs::HostSpan& span : p.shard_spans(s)) add(span);
  }
  for (const obs::HostSpan& span : p.serial_spans()) add(span);
  return h;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::unique_ptr<Engine> make_engine(const JobSpec& spec, ArchConfig cfg) {
  if (spec.mode == ExecutionMode::kCycleLevel) {
    return cyclesim::make_cycle_sim(std::move(cfg));
  }
  return std::make_unique<Engine>(std::move(cfg));
}

/// Moves runtime::synth_alloc's process-wide cursor to 64 + `shift`
/// bytes past the next 1 MiB boundary. A fresh process starts at 64, so
/// with shift 0 every job sees the synthetic address layout it would see
/// as the first job of its own process. The cycle-level caches index
/// sets by these addresses, so without this a job's simulated timing
/// would depend on the jobs that ran before it in the process.
void align_synth_addresses(std::uint64_t shift) {
  constexpr std::uint64_t kBoundary = 1u << 20;
  const std::uint64_t next = runtime::synth_alloc(0) + 64;  // advances 64
  const std::uint64_t target =
      (next + kBoundary - 1) / kBoundary * kBoundary + 64 + shift;
  // synth_alloc(d - 64) advances the cursor by exactly d (d % 64 == 0).
  if (target > next) (void)runtime::synth_alloc(target - next - 64);
}

/// True if the dijkstra dataset of `seed` at factor 1.0 has a source
/// node without edges. About one draw in twenty does; its job then
/// simulates nothing, and a run that drew one would do a tenth less
/// work than the others. The graph size is dijkstra's in all_dwarfs().
bool isolated_dijkstra_source(std::uint64_t seed) {
  constexpr std::uint32_t kNodes = 2000;
  return dwarfs::gen_graph(seed, kNodes, kNodes * 3 / 2).adj[0].empty();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"explore-1024",
                                                 "validate-64", "par-host",
                                                 "observed"};
  return names;
}

std::vector<std::uint64_t> dataset_seeds(const std::string& workload,
                                         std::uint64_t seed) {
  // Enough datasets that explore-1024's totals vary little with --seed.
  // validate-64 has 24 jobs per dataset; par-host and observed mostly run
  // as probes inside the traced runs, where time is short.
  const std::size_t n = workload == "explore-1024" ? 6 : 2;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t k = 0; seeds.size() < n; ++k) {
    const std::uint64_t candidate = seed * 1000 + k;
    if (workload == "explore-1024" && isolated_dijkstra_source(candidate)) {
      continue;
    }
    seeds.push_back(candidate);
  }
  return seeds;
}

std::vector<JobSpec> make_jobs(const std::string& workload,
                               std::uint32_t nproc,
                               const std::vector<std::uint64_t>& seeds) {
  std::vector<JobSpec> jobs;
  for (std::uint64_t seed : seeds) {
    if (workload == "explore-1024") {
      // Fig 7 at the paper's headline scale.
      for (const auto& d : dwarfs::all_dwarfs()) {
        for (const char* arch : {"shared", "distributed"}) {
          jobs.push_back(
              job(d, seed, 1.0, arch, 1024, ExecutionMode::kVirtualTime));
        }
      }
    } else if (workload == "validate-64") {
      // Fig 5: CL and VT on a coherent shared mesh, speedups vs 1 core.
      for (const auto& d : dwarfs::validation_dwarfs()) {
        for (std::uint32_t cores : {1u, 16u, 64u}) {
          for (ExecutionMode m :
               {ExecutionMode::kCycleLevel, ExecutionMode::kVirtualTime}) {
            JobSpec s = job(d, seed, 0.5, "shared", cores, m);
            s.fig5 = true;
            jobs.push_back(std::move(s));
          }
        }
      }
    } else if (workload == "par-host") {
      // Shard count fixes the simulated results; threads only the speed.
      for (const auto& d : dwarfs::all_dwarfs()) {
        JobSpec s =
            job(d, seed, 1.0, "shared", 256, ExecutionMode::kVirtualTime);
        s.shards = 4;
        s.threads = std::max(1u, std::min(2u, nproc));
        s.label += "/par4x" + std::to_string(s.threads);
        jobs.push_back(std::move(s));
      }
    } else if (workload == "observed") {
      for (const char* name :
           {"dijkstra", "connected-components", "quicksort"}) {
        JobSpec s = job(dwarfs::dwarf_by_name(name), seed, 1.0, "distributed",
                        256, ExecutionMode::kVirtualTime);
        s.observed = true;
        s.label += "/observed";
        jobs.push_back(std::move(s));
      }
    } else {
      throw std::invalid_argument("unknown workload: " + workload);
    }
  }
  return jobs;
}

ArchConfig make_config(const JobSpec& spec, bool force_sequential) {
  ArchConfig cfg = spec.arch == "distributed"
                       ? ArchConfig::distributed_mesh(spec.cores)
                       : ArchConfig::shared_mesh(spec.cores);
  // make_cycle_sim adds coherence to CL jobs on its own.
  if (spec.fig5 && spec.mode == ExecutionMode::kVirtualTime) {
    cfg = cyclesim::validation_vt_config(std::move(cfg));
  }
  if (spec.shards > 0 && !force_sequential) {
    cfg.host.mode = HostMode::kParallel;
    cfg.host.shards = spec.shards;
    cfg.host.threads = spec.threads;
  }
  return cfg;
}

std::uint64_t stats_digest(const SimStats& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t v :
       {static_cast<std::uint64_t>(s.completion_ticks), s.tasks_spawned,
        s.tasks_inlined, s.tasks_migrated, s.messages, s.network.messages,
        s.network.bytes, s.network.hops,
        static_cast<std::uint64_t>(s.network.contention_ticks)}) {
    h = fnv(h, v);
  }
  h = fnv(h, s.core_busy_ticks.size());
  for (Tick t : s.core_busy_ticks) h = fnv(h, static_cast<std::uint64_t>(t));
  return h;
}

JobResult run_job(const JobSpec& spec, Tracer& tracer,
                  std::uint32_t job_id, const RunOptions& opt) {
  JobResult r;
  const bool cl = spec.mode == ExecutionMode::kCycleLevel;
  try {
    tracer.span("bench.job", job_id, [&] {
      // Declared before the engine, which holds pointers to them.
      CountingObserver counter;
      std::optional<obs::Telemetry> telemetry;
      TaskFn root;
      align_synth_addresses(opt.address_shift);
      r.gen_s = tracer.span("dwarfs.make_root", job_id, [&] {
        root = spec.dwarf->make_root(spec.seed, spec.factor);
      });
      // Set-up takes milliseconds; keep the fastest of a few.
      std::unique_ptr<Engine> engine;
      r.construct_s = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < kSetupReps; ++rep) {
        engine.reset();
        r.construct_s = std::min(
            r.construct_s,
            tracer.span(cl ? "cyclesim.construct" : "core.construct", job_id,
                        [&] {
                          engine = make_engine(
                              spec, make_config(spec, opt.force_sequential));
                        }));
      }

      if (opt.count_events) engine->set_observer(&counter);
      const bool observe = spec.observed && !opt.telemetry_off;
      if (observe || opt.profile_host) {
        obs::TelemetryOptions topt;
        topt.events = observe;
        topt.profile_host = opt.profile_host;
        telemetry.emplace(topt);
        engine->set_telemetry(&*telemetry);
      }

      r.run_s = tracer.span(cl ? "cyclesim.run" : "core.run", job_id,
                            [&] { r.stats = engine->run(std::move(root)); });
      r.engine_wall_s = r.stats.wall_seconds;

      if (observe) {
        r.events = telemetry->events().size();
        obs::CritPathReport report;
        r.critpath_s = tracer.span("obs.critpath", job_id, [&] {
          report = obs::analyze_critical_path(telemetry->events());
        });
        r.export_s = tracer.span("obs.export", job_id, [&] {
          std::ostringstream os;
          obs::ChromeTraceOptions copt;
          copt.critpath = &report;
          obs::write_chrome_trace(os, *telemetry, copt);
          obs::write_critpath_json(os, report);
          telemetry->metrics().write_json(os);
          r.export_bytes = static_cast<std::uint64_t>(os.tellp());
        });
      }
      if (opt.profile_host) r.host = sum_phases(telemetry->host_profiler());
      r.counts = counter.counts;
      r.digest = stats_digest(r.stats);
    });
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

double native_seconds(const JobSpec& spec, Tracer& tracer,
                      std::uint32_t job_id) {
  // Small datasets run in well under a millisecond: repeat until the
  // repetitions add up to 20 ms and keep the fastest.
  double best = std::numeric_limits<double>::infinity();
  for (double total = 0; total < 0.02;) {
    TaskFn root = spec.dwarf->make_root(spec.seed, spec.factor);
    runtime::NativeCtx ctx(spec.seed);
    const double s = tracer.span("runtime.native", job_id, [&] { root(ctx); });
    best = std::min(best, s);
    total += s;
  }
  return best;
}

std::vector<SnapshotCost> measure_snapshots(const JobSpec& spec,
                                            Tracer& tracer,
                                            std::uint32_t job_id,
                                            const std::string& dir) {
  const std::uint64_t wf =
      snapshot::workload_fingerprint(spec.dwarf->name, spec.seed,
                                      spec.factor);
  const std::string path = dir + "/snapshot-probe.bin";
  // Runs the job once, optionally capturing at `at` or restoring from
  // the capture; returns Engine::run seconds.
  auto run = [&](std::uint64_t at, bool restore, std::uint64_t& digest,
                 const char* name) {
    align_synth_addresses(0);
    Engine engine(make_config(spec));
    if (at != 0) {
      snapshot::SnapshotPlan plan;
      plan.path = path;
      plan.at_quanta = at;
      plan.workload_fp = wf;
      engine.snapshot_to(plan);
    }
    if (restore) engine.restore_from(path, wf);
    TaskFn root = spec.dwarf->make_root(spec.seed, spec.factor);
    SimStats st;
    const double s =
        tracer.span(name, job_id, [&] { st = engine.run(std::move(root)); });
    digest = stats_digest(st);
    return s;
  };

  std::uint64_t fresh_digest = 0;
  const double fresh_s = run(0, false, fresh_digest, "snapshot.fresh");
  // A cursor past the end captures the final state; its cursor is the
  // job's total quanta.
  std::uint64_t digest = 0;
  run(~std::uint64_t{0} / 2, false, digest, "snapshot.capture");
  const std::uint64_t total =
      snapshot::read_snapshot_file(path).header.cursor_actual;
  if (digest != fresh_digest) {
    throw std::runtime_error("final capture run diverged");
  }
  if (total < 4) throw std::runtime_error("job too short to capture");

  std::vector<SnapshotCost> out;
  for (std::uint64_t pct : {25u, 50u, 75u}) {
    SnapshotCost c;
    c.percent = static_cast<std::uint32_t>(pct);
    c.capture_s = run(total * pct / 100, false, digest, "snapshot.capture");
    if (digest != fresh_digest) {
      throw std::runtime_error("capture run diverged");
    }
    c.restore_s = run(0, true, digest, "snapshot.restore");
    if (digest != fresh_digest) {
      throw std::runtime_error("restored run diverged");
    }
    c.restore_over_fresh = c.restore_s / fresh_s;
    out.push_back(c);
  }
  std::remove(path.c_str());
  return out;
}

}  // namespace perfbench
