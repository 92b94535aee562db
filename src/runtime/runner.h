// The ILPS runtime: assembles a World with the Fig. 2 role layout
// (engines, ADLB servers, workers), runs a Turbine program, and collects
// output and statistics. At run time an ILPS program is a message-passing
// program, exactly as a Swift/T program is an MPI program.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "adlb/client.h"
#include "adlb/server.h"
#include "mpi/comm.h"
#include "obs/trace.h"
#include "turbine/context.h"

namespace ilps::runtime {

struct Config {
  int engines = 1;
  int workers = 2;
  int servers = 1;
  turbine::InterpPolicy policy = turbine::InterpPolicy::kRetain;
  bool restricted_os = false;
  // Hook run on every rank's interpreter before execution (register
  // packages, static-package loaders, extra commands, ...).
  std::function<void(tcl::Interp&)> setup_interp;
  // Like setup_interp but also receives the rank's blob registry (for
  // BindGen bindings whose pointer arguments are blob handles).
  std::function<void(tcl::Interp&, blob::Registry&)> setup_bindings;
  // If set, output lines stream here as well as into the result.
  bool echo_output = false;

  // Throw DeadlockError (with the engines' stuck-future report) when the
  // program terminates with rules still pending. Off lets callers inspect
  // RunResult::unfired_rules / RunResult::stuck themselves.
  bool deadlock_error = true;

  // ADLB policy knobs (see adlb::Config; ablated in bench_ablation).
  bool steal_half = true;
  int data_cache_mb = -1;  // client datum cache budget; 0 disables, -1 = env

  // ---- recovery (every run_program; see src/ckpt) ----
  // Scripted failures injected into the World (kill/hang a rank,
  // drop/delay a message). Consumed actions are not re-fired on restart.
  mpi::FaultPlan fault_plan;
  int max_task_retries = 2;      // requeue budget per leaf task
  int retry_backoff_ms = 2;      // requeue delay, doubled per attempt; 0 = off
  int heartbeat_timeout_ms = 0;  // hung-worker detection; 0 = off. Must
                                 // exceed the longest legitimate leaf task.
  int ckpt_interval = 0;         // checkpoint every K completed leaf tasks
                                 // (requires servers == 1); 0 = off
  std::string ckpt_dir;          // checkpoint directory
  int max_restarts = 3;          // restart-from-checkpoint budget

  int total_ranks() const { return engines + workers + servers; }
  // The ADLB configuration for this layout.
  adlb::Config adlb() const {
    adlb::Config cfg;
    cfg.nservers = servers;
    cfg.nengines = engines;
    cfg.steal_half = steal_half;
    cfg.data_cache_mb = data_cache_mb;
    cfg.max_task_retries = max_task_retries;
    cfg.retry_backoff_ms = retry_backoff_ms;
    cfg.heartbeat_timeout_ms = heartbeat_timeout_ms;
    cfg.ckpt_interval = ckpt_interval;
    cfg.ckpt_dir = ckpt_dir;
    return cfg;
  }
};

// Recovery accounting for run_program (per-event counters live in
// ServerStats: requeues, task_failures, heartbeat_deaths, checkpoints,
// replay_skips).
struct FtStats {
  int attempts = 1;             // program attempts (1 = no restart needed)
  std::vector<int> dead_ranks;  // ranks that died, across all attempts
  int faults_fired = 0;         // FaultPlan actions that fired, ditto
};

struct RunResult {
  std::vector<std::string> lines;  // every output line, arrival order
  std::vector<double> line_times;  // arrival time of each line (s since start)
  size_t unfired_rules = 0;        // > 0 means the program deadlocked
  // Stuck-future report, merged across engines: each pending rule with
  // the unset datums (and their source names, via the compiler's symbol
  // map) it was waiting on. Populated whenever unfired_rules > 0.
  std::vector<turbine::StuckRule> stuck;
  turbine::EngineStats engine_stats;
  turbine::WorkerStats worker_stats;
  adlb::ServerStats server_stats;
  adlb::DataCacheStats cache_stats;  // summed across all client ranks
  adlb::DataPipelineStats pipeline_stats;  // summed across all client ranks
  // MiniTcl bytecode layer (tcl.compile_* metrics): unit reuses, compiles,
  // and raw-source tail bailouts, summed across all client ranks.
  tcl::Interp::CompileStats tcl_stats;
  uint64_t tcl_units_cached = 0;  // live action-cache entries at teardown
  mpi::TrafficStats traffic;
  FtStats ft;
  double elapsed_seconds = 0;

  // Merged per-rank event trace (src/obs), time-ordered. Empty unless
  // tracing was enabled (ILPS_TRACE=1 or obs::set_trace_enabled). It
  // spans every attempt, so e.g. a killed rank's rank_dead instant
  // survives a restart.
  std::vector<obs::Event> trace;

  // All output joined back together (convenience for tests).
  std::string output() const;
  bool contains(const std::string& needle) const;
};

// What one world runs. Batch and resident runs differ only in these
// fields; run_world builds every rank from them.
struct WorldPlan {
  explicit WorldPlan(const Config& c) : cfg(c) {}

  const Config& cfg;  // rank layout, ADLB settings, interpreter policy, hooks
  const ckpt::Snapshot* restore = nullptr;  // server state to restart from
  std::string_view program;  // loaded as run_program describes; empty = none

  // Output sink for every client rank. Unset, the world splits output
  // into RunResult::lines (and echoes it under cfg.echo_output).
  turbine::OutputFn output;

  // ---- resident hooks (serve::Service) ----
  // The loop of one more client rank, placed after the workers.
  std::function<void(adlb::Client&)> ingress;
  // Where engines report finished requests (ContextConfig::serve_complete).
  std::function<void(turbine::RequestOutcome&&)> complete;
};

// Builds every rank of `world` (cfg.total_ranks() in size, plus one with
// an ingress rank), runs them to termination, and returns their output,
// unfired rules and every layer's counters summed over the ranks. A
// server abort surfaces as RestartError or TaskError.
RunResult run_world(mpi::World& world, const WorldPlan& plan);

// Publishes every layer's counters in `r` into obs::metrics() under
// stable dotted names (no-op while metrics are disabled).
void publish_metrics(const RunResult& r);

// The stuck-future report DeadlockError carries. `subject` names what
// terminated: "program" for a batch run, "request <id>" for a request.
std::string deadlock_message(const std::string& subject, uint64_t unfired_rules,
                             const std::vector<turbine::StuckRule>& stuck);

// Runs a Turbine (MiniTcl) program.
//
// Two program shapes, as in Swift/T:
//  - If the program defines `proc swift:main`, the whole program text is
//    evaluated on EVERY client rank (so procs exist wherever shipped task
//    fragments may run) and then `swift:main` is invoked on engine rank 0.
//    This is what the STC compiler emits.
//  - Otherwise the program runs on engine rank 0 only; task payloads must
//    be self-contained scripts.
//
// Recovery is part of every run: it injects cfg.fault_plan, requeues a
// failed, dead or hung worker's leaf tasks (bounded by max_task_retries),
// and on an unrecoverable failure (engine death, all workers dead)
// restarts the program, from the latest checkpoint in cfg.ckpt_dir if
// there is one, skipping leaf tasks that already completed. Throws
// TaskError when a task exhausts its retries, RestartError when the
// restart budget (max_restarts) runs out, and on script, data or
// configuration errors.
RunResult run_program(const Config& cfg, const std::string& program);

// "engine" / "worker" / "server" per rank, following the role layout
// (labels the utilization table and the Chrome trace's thread names).
std::vector<std::string> role_names(const Config& cfg);

}  // namespace ilps::runtime
