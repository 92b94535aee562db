#include "runtime/runner.h"

#include <cstdio>
#include <optional>
#include <sstream>

#include "adlb/client.h"
#include "ckpt/ckpt.h"
#include "common/error.h"
#include "common/log.h"
#include "common/strings.h"
#include "common/sync.h"
#include "common/timer.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace ilps::runtime {

std::string RunResult::output() const {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

bool RunResult::contains(const std::string& needle) const {
  for (const auto& line : lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

namespace {

// Where a world's ranks meet: each rank adds its output and, as it
// finishes, every layer's counters, one += per struct under one lock.
class WorldTotals {
 public:
  explicit WorldTotals(bool echo) : echo_(echo) {}

  // The default output sink: splits fragments into lines.
  void emit(const std::string& text) {
    ilps::LockGuard lock(mu_);
    if (echo_) std::fwrite(text.data(), 1, text.size(), stdout);
    pending_ += text;
    size_t pos;
    while ((pos = pending_.find('\n')) != std::string::npos) {
      result_.lines.push_back(pending_.substr(0, pos));
      result_.line_times.push_back(timer_.elapsed());
      pending_.erase(0, pos + 1);
    }
  }

  void add(const adlb::ServerStats& s) {
    ilps::LockGuard lock(mu_);
    result_.server_stats += s;
  }

  // A client rank's counters: its context's unless it is the ingress
  // rank, its engine's (and the rules it left unfired) on engine ranks.
  void add(const adlb::Client& client, turbine::Context* ctx = nullptr,
           const turbine::Engine* engine = nullptr, size_t unfired = 0) {
    ilps::LockGuard lock(mu_);
    result_.cache_stats += client.cache_stats();
    result_.pipeline_stats += client.pipeline_stats();
    if (ctx != nullptr) {
      result_.worker_stats += ctx->stats();
      result_.tcl_stats += ctx->interp().compile_stats();
      result_.tcl_units_cached += ctx->units_cached();
    }
    if (engine == nullptr) return;
    result_.engine_stats += engine->stats();
    result_.unfired_rules += unfired;
    if (unfired == 0) return;
    for (turbine::StuckRule& rule : engine->stuck_report()) {
      obs::instant(obs::EventKind::kRuleStuck, rule.id, static_cast<int64_t>(rule.waiting.size()));
      result_.stuck.push_back(std::move(rule));
    }
  }

  // After every rank thread has joined.
  RunResult take(const mpi::World& world) {
    ilps::LockGuard lock(mu_);
    result_.elapsed_seconds = timer_.elapsed();
    result_.traffic = world.stats();
    if (!pending_.empty()) {
      result_.lines.push_back(std::move(pending_));
      result_.line_times.push_back(result_.elapsed_seconds);
      pending_.clear();
    }
    return std::move(result_);
  }

 private:
  ilps::Mutex mu_;  // runtime.world_mu
  RunResult result_ ILPS_GUARDED_BY(mu_);
  std::string pending_ ILPS_GUARDED_BY(mu_);  // output awaiting its newline
  const Timer timer_;
  const bool echo_;
};

}  // namespace

// Set, not add: the registry reflects the most recent run; only
// histograms accumulate.
void publish_metrics(const RunResult& r) {
  if (!obs::metrics_enabled()) return;
  obs::Metrics& m = obs::metrics();
  const auto publish = [&m](const auto& stats) {
    for (const auto& f : stats.kFields) m.counter(f.name).set(stats.*f.field);
  };
  publish(r.server_stats);
  publish(r.cache_stats);
  publish(r.pipeline_stats);
  publish(r.engine_stats);
  publish(r.worker_stats);
  publish(r.tcl_stats);
  m.counter("engine.stuck_rules").set(r.stuck.size());
  m.counter("tcl.units_cached").set(r.tcl_units_cached);
  m.counter("mpi.messages").set(r.traffic.messages);
  m.counter("mpi.bytes").set(r.traffic.bytes);
  m.counter("mpi.wakeups").set(r.traffic.wakeups);
  m.counter("mpi.wakeups_suppressed").set(r.traffic.wakeups_suppressed);
  m.counter("mpi.pool_hits").set(r.traffic.pool_hits);
  m.counter("mpi.pool_misses").set(r.traffic.pool_misses);
  m.counter("mpi.barrier_fastpath").set(r.traffic.barrier_fastpath);
  m.counter("mpi.collective_wakeups").set(r.traffic.collective_wakeups);
  m.counter("run.attempts").set(static_cast<uint64_t>(r.ft.attempts));
  m.counter("run.dead_ranks").set(r.ft.dead_ranks.size());
  m.counter("run.unfired_rules").set(r.unfired_rules);
  m.gauge("run.elapsed_seconds").set(r.elapsed_seconds);
}

namespace {

// End-of-run aggregation: fill the registry and, when ILPS_TRACE asked
// for files, write trace.json / metrics.json into obs::output_dir().
void finish_observability(const Config& cfg, const RunResult& result) {
  publish_metrics(result);
  if (obs::export_requested() && !result.trace.empty()) {
    obs::write_reports(result.trace, role_names(cfg), obs::metrics(), obs::output_dir());
  }
}

// The quiescence check's teeth: a deadlocked program fails with a typed,
// readable report instead of returning a silently useless result.
void throw_if_stuck(const Config& cfg, const RunResult& result) {
  if (cfg.deadlock_error && result.unfired_rules > 0) {
    throw DeadlockError(deadlock_message("program", result.unfired_rules, result.stuck));
  }
}

// Appends the world's merged event trace (empty unless tracing is on).
void append_trace(const mpi::World& world, std::vector<obs::Event>& trace) {
  if (const obs::Session* session = world.obs_session()) {
    std::vector<obs::Event> events = session->merged();
    trace.insert(trace.end(), events.begin(), events.end());
  }
}

}  // namespace

RunResult run_world(mpi::World& world, const WorldPlan& plan) {
  const Config& cfg = plan.cfg;
  if (cfg.engines < 1) throw Error("runtime: at least one engine rank is required");
  if (cfg.workers < 1) throw Error("runtime: at least one worker rank is required");
  if (cfg.servers < 1) throw Error("runtime: at least one server rank is required");
  // The swift:main convention (see run_program): load everywhere, run once.
  const bool has_main = plan.program.find("proc swift:main") != std::string_view::npos;
  const int ingress_rank = plan.ingress ? cfg.engines + cfg.workers : -1;

  const adlb::Config acfg = cfg.adlb();
  WorldTotals totals(cfg.echo_output);
  turbine::ContextConfig ccfg;
  ccfg.policy = cfg.policy;
  ccfg.restricted_os = cfg.restricted_os;
  ccfg.setup_interp = cfg.setup_interp;
  ccfg.setup_bindings = cfg.setup_bindings;
  ccfg.serve_complete = plan.complete;
  if (plan.output) {
    ccfg.output = plan.output;
  } else {
    ccfg.output = [&totals](int64_t, int, const std::string& text) { totals.emit(text); };
  }

  auto body = [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    if (adlb::is_server(rank, comm.size(), acfg)) {
      adlb::Server server(comm, acfg, plan.restore);
      server.serve();
      totals.add(server.stats());
      return;
    }
    adlb::Client client(comm, acfg);
    if (rank == ingress_rank) {
      plan.ingress(client);
      totals.add(client);
      return;
    }
    if (rank >= cfg.engines) {
      turbine::Context ctx(client, nullptr, ccfg);
      if (has_main) ctx.interp().eval(plan.program);
      ctx.run_worker();
      totals.add(client, &ctx);
      return;
    }
    turbine::Engine engine(client);
    turbine::Context ctx(client, &engine, ccfg);
    std::string to_run;
    if (has_main) {
      ctx.interp().eval(plan.program);
      if (rank == 0) to_run = "swift:main";
    } else if (rank == 0) {
      to_run = plan.program;
    }
    const size_t unfired = ctx.run_engine(to_run);
    totals.add(client, &ctx, &engine, unfired);
  };
  try {
    world.run(body);
  } catch (const CommError& e) {
    // Servers signal unrecoverable conditions by aborting the world with
    // a marker; classify the resulting CommError into the typed errors
    // callers (and the recovery driver) key off.
    const std::string msg = e.what();
    if (msg.find("ilps-ft-restart:") != std::string::npos) throw RestartError(msg);
    if (msg.find("ilps-task-failed:") != std::string::npos) throw TaskError(msg);
    throw;
  }
  return totals.take(world);
}

std::string deadlock_message(const std::string& subject, uint64_t unfired_rules,
                             const std::vector<turbine::StuckRule>& stuck) {
  std::ostringstream out;
  out << "deadlock: " << subject << " terminated with " << unfired_rules
      << " rule(s) still waiting on unset futures";
  constexpr size_t kMaxShown = 8;
  size_t shown = 0;
  for (const auto& rule : stuck) {
    if (shown++ == kMaxShown) {
      out << "\n  ... and " << (stuck.size() - kMaxShown) << " more rule(s)";
      break;
    }
    out << "\n  rule <" << rule.id << "> waiting on";
    if (rule.waiting.empty()) out << " unknown inputs";
    for (const auto& input : rule.waiting) {
      out << " ";
      if (!input.name.empty()) {
        out << "\"" << input.name << "\" (line " << input.line << ", datum <" << input.id
            << ">)";
      } else {
        out << "datum <" << input.id << ">";
      }
    }
  }
  out << "\n  hint: `ilps --lint` reports statically provable deadlocks";
  return out.str();
}

std::vector<std::string> role_names(const Config& cfg) {
  std::vector<std::string> roles;
  roles.reserve(static_cast<size_t>(cfg.total_ranks()));
  for (int i = 0; i < cfg.engines; ++i) roles.emplace_back("engine");
  for (int i = 0; i < cfg.workers; ++i) roles.emplace_back("worker");
  for (int i = 0; i < cfg.servers; ++i) roles.emplace_back("server");
  return roles;
}

RunResult run_program(const Config& cfg, const std::string& program) {
  if (cfg.ckpt_interval > 0 && cfg.servers != 1) {
    throw Error("runtime: checkpointing requires exactly one server rank");
  }
  if (cfg.ckpt_interval > 0 && cfg.ckpt_dir.empty()) {
    throw Error("runtime: ckpt_interval is set but ckpt_dir is empty");
  }
  WorldPlan plan(cfg);
  plan.program = program;
  mpi::FaultPlan remaining = cfg.fault_plan;
  std::vector<int> all_dead;
  int fired = 0;
  // Every attempt's events: attempts run sequentially on one wtime()
  // epoch, so appending keeps the merged trace time-ordered.
  std::vector<obs::Event> trace;
  int attempts = 0;
  while (true) {
    ++attempts;
    mpi::World world(cfg.total_ranks());
    world.set_fault_plan(remaining);
    std::optional<ckpt::Snapshot> snap;
    if (!cfg.ckpt_dir.empty()) snap = ckpt::load_latest(cfg.ckpt_dir);
    plan.restore = snap ? &*snap : nullptr;
    try {
      RunResult result = run_world(world, plan);
      for (int r : world.dead_ranks()) all_dead.push_back(r);
      for (bool f : world.fault_fired()) fired += f ? 1 : 0;
      append_trace(world, trace);
      result.ft.attempts = attempts;
      result.ft.dead_ranks = std::move(all_dead);
      result.ft.faults_fired = fired;
      result.trace = std::move(trace);
      finish_observability(cfg, result);
      throw_if_stuck(cfg, result);
      return result;
    } catch (const RestartError& e) {
      for (int r : world.dead_ranks()) all_dead.push_back(r);
      // run_world rethrows after World::run joined every rank thread, so
      // the failed attempt's buffers are safe to harvest.
      append_trace(world, trace);
      if (attempts > cfg.max_restarts) throw;
      // The next attempt re-enters the rank loops, which re-resolve (or
      // cache) the same registered histograms. Reset their samples in
      // place — without this, the aborted attempt's task timings pollute
      // the final attempt's task.seconds / ckpt histograms. Counters are
      // published by set() at end of run, so only histograms accumulate.
      if (obs::metrics_enabled()) obs::metrics().reset_histograms();
      // Consumed fault actions must not re-fire on the next attempt.
      const std::vector<bool> consumed = world.fault_fired();
      mpi::FaultPlan next;
      for (size_t i = 0; i < remaining.actions.size(); ++i) {
        if (i < consumed.size() && consumed[i]) {
          ++fired;
        } else {
          next.actions.push_back(remaining.actions[i]);
        }
      }
      remaining = std::move(next);
      log::info("runtime: restarting after failure (attempt ", attempts + 1, "): ", e.what());
    }
  }
}

}  // namespace ilps::runtime
