// Workloads and jobs of the SiMany benchmark.
//
// A job is one Engine::run of one dwarf dataset on one architecture.
// A workload is a fixed list of jobs; one pass runs every job once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/arch_config.h"
#include "core/engine.h"
#include "dwarfs/dwarfs.h"
#include "spans.h"

namespace perfbench {

struct JobSpec {
  std::string label;  // "<dwarf>/<arch><cores>/<vt|cl>#<dataset seed>"
  const simany::dwarfs::DwarfSpec* dwarf = nullptr;
  std::uint64_t seed = 1;  // dataset seed given to DwarfSpec::make_root
  double factor = 1.0;
  std::string arch;  // "shared" or "distributed"
  std::uint32_t cores = 1;
  simany::ExecutionMode mode = simany::ExecutionMode::kVirtualTime;
  /// Fig 5 protocol: a VT job runs cyclesim::validation_vt_config.
  bool fig5 = false;
  /// Parallel host: shard count and worker threads (0 = sequential).
  std::uint32_t shards = 0;
  std::uint32_t threads = 0;
  /// Attach obs::Telemetry, then analyze the critical path and export
  /// the Chrome trace, critpath and metrics JSON (the CLI's
  /// --trace-json --critpath-out --metrics-out turnaround).
  bool observed = false;
};

/// The dataset seeds one run of `workload` uses, derived from `seed`.
/// Each job of the workload runs on every one of these datasets, so a
/// run's totals average over several inputs. explore-1024 skips draws
/// whose dijkstra source has no edges.
[[nodiscard]] std::vector<std::uint64_t> dataset_seeds(
    const std::string& workload, std::uint64_t seed);

/// The jobs of `workload` on the datasets of `seeds`; throws
/// std::invalid_argument for an unknown name. `nproc` caps the parallel
/// host's worker threads.
[[nodiscard]] std::vector<JobSpec> make_jobs(
    const std::string& workload, std::uint32_t nproc,
    const std::vector<std::uint64_t>& seeds);

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Counts only an EngineObserver can see (sequential host only).
struct ObservedCounts {
  std::uint64_t advances = 0;
  std::uint64_t cell_acquires = 0;
  std::uint64_t data_msgs = 0;  // DATA_REQUEST + DATA_RESPONSE handled
};

/// Host-round phase seconds from obs::HostProfiler (parallel host).
struct HostPhases {
  double drain_s = 0, execute_s = 0, publish_s = 0, barrier_s = 0,
         serial_s = 0;
};

/// How to run a job beyond its spec (the traced run's extra passes).
struct RunOptions {
  bool count_events = false;    // attach the counting EngineObserver
  bool profile_host = false;    // attach Telemetry with the host profiler
  bool force_sequential = false;
  bool telemetry_off = false;   // run an observed job without telemetry
  /// Synthetic address layout offset in bytes (multiple of 64); 0 is the
  /// layout of a fresh process.
  std::uint64_t address_shift = 0;
};

struct JobResult {
  bool ok = false;
  std::string error;
  double gen_s = 0;        // DwarfSpec::make_root
  double construct_s = 0;  // config build + Engine construction
  double run_s = 0;        // Engine::run, measured around the call
  double engine_wall_s = 0;  // SimStats::wall_seconds (event loop only)
  double critpath_s = 0;
  double export_s = 0;
  std::uint64_t export_bytes = 0;
  std::uint64_t events = 0;  // telemetry events recorded
  /// Digest of the simulated statistics: identical on every repetition.
  std::uint64_t digest = 0;
  simany::SimStats stats;
  ObservedCounts counts;
  HostPhases host;

  [[nodiscard]] std::uint64_t sim_events() const {
    return stats.tasks_spawned + stats.tasks_inlined + stats.messages;
  }
  /// Host seconds of the job as a user waits for it (set-up excluded).
  [[nodiscard]] double wall_s() const { return run_s + critpath_s + export_s; }
};

[[nodiscard]] simany::ArchConfig make_config(const JobSpec& spec,
                                             bool force_sequential = false);

[[nodiscard]] std::uint64_t stats_digest(const simany::SimStats& s);

/// Runs one job: set-up, Engine::run and, for observed jobs, the
/// post-run analysis and export. Never throws; failures (SimError, a
/// dwarf's failed self-check) come back with ok == false.
[[nodiscard]] JobResult run_job(const JobSpec& spec,
                                Tracer& tracer, std::uint32_t job_id,
                                const RunOptions& opt = {});

/// Native seconds of the job's dataset: the fastest of repeated runs of
/// its root task on runtime::NativeCtx (the root task generates and
/// verifies its dataset, exactly as it does under Engine::run).
[[nodiscard]] double native_seconds(const JobSpec& spec,
                                    Tracer& tracer, std::uint32_t job_id);

struct SnapshotCost {
  std::uint32_t percent = 0;  // capture cursor, % of the job's quanta
  double capture_s = 0;  // Engine::run of the capturing run (to the end)
  double restore_s = 0;  // Engine::run restored from the capture
  double restore_over_fresh = 0;  // restore_s over an unarmed run
};

/// Captures `spec` at 25, 50 and 75 % of its scheduling quanta and
/// restores each capture, checking that every run reaches the fresh
/// run's statistics. Snapshot files go to `dir` and are removed.
/// Throws on any failure.
[[nodiscard]] std::vector<SnapshotCost> measure_snapshots(
    const JobSpec& spec, Tracer& tracer,
    std::uint32_t job_id, const std::string& dir);

}  // namespace perfbench
