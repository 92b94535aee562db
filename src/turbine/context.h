// Per-rank Turbine context: the MiniTcl interpreter with the turbine::*
// command library, the blob registry, the lazily-created embedded Python
// and R interpreters, and (on engine ranks) the rule engine.
//
// The interpreter-state policy (§III.C of the paper): kRetain keeps
// Python/R interpreter state across leaf tasks (fast, but old state is
// visible to later tasks); kReinitialize resets them after every task
// (clean-slate semantics at a cost). Swift/T offers both; so does ILPS.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "adlb/client.h"
#include "blob/blob.h"
#include "common/stats.h"
#include "python/interp.h"
#include "rlang/interp.h"
#include "tcl/interp.h"
#include "turbine/engine.h"

namespace ilps::turbine {

enum class InterpPolicy { kRetain, kReinitialize };

struct WorkerStats {
  uint64_t tasks = 0;
  uint64_t python_evals = 0;
  uint64_t r_evals = 0;
  uint64_t app_execs = 0;
  uint64_t interpreter_resets = 0;

  static constexpr StatField<WorkerStats> kFields[] = {
      {"worker.tasks", &WorkerStats::tasks},
      {"worker.python_evals", &WorkerStats::python_evals},
      {"worker.r_evals", &WorkerStats::r_evals},
      {"worker.app_execs", &WorkerStats::app_execs},
      {"worker.interpreter_resets", &WorkerStats::interpreter_resets},
  };
  WorkerStats& operator+=(const WorkerStats& o) { return add_stats(*this, o); }
};

// Sink for puts/printf/python-print/R-cat output: the request the
// emitting task belongs to (0 = outside any request), the rank, the text.
using OutputFn = std::function<void(int64_t req, int rank, const std::string& text)>;

struct ContextConfig {
  InterpPolicy policy = InterpPolicy::kRetain;
  bool restricted_os = false;
  // Output sink (defaults to stdout).
  OutputFn output;
  // Hook to register user packages / extra commands into the rank's
  // interpreter (static packages, script loaders, ...).
  std::function<void(tcl::Interp&)> setup_interp;
  // Hook that additionally receives the rank's blob registry — required
  // when installing BindGen bindings so native pointer arguments resolve
  // against the same registry blobutils uses.
  std::function<void(tcl::Interp&, blob::Registry&)> setup_bindings;

  // ---- serve runtime hook (src/serve; unset in batch use) ----
  // Setting serve_complete switches the rank loops into resident mode:
  // engines multiplex per-request rule sets and report finished requests
  // through this callback (with namespace-GC counts filled in); workers
  // send done/fail notices instead of throwing, so one request's error
  // never poisons the resident runtime.
  std::function<void(RequestOutcome&&)> serve_complete;
};

class Context {
 public:
  // `engine` may be null (worker ranks).
  Context(adlb::Client& client, Engine* engine, const ContextConfig& cfg);

  tcl::Interp& interp() { return interp_; }
  adlb::Client& client() { return client_; }
  Engine* engine() { return engine_; }
  blob::Registry& blobs() { return blobs_; }
  const WorkerStats& stats() const { return stats_; }

  // The embedded interpreters, created on first use (as Swift/T loads
  // libpython/libR lazily).
  py::Interpreter& python();
  r::Interpreter& rlang();

  // Applies the interpreter policy at a task boundary.
  void end_task();

  // Evaluates an action script through the per-rank compiled-unit cache:
  // content-hashed, LRU-bounded (ILPS_TCL_UNIT_CACHE, default 512), one
  // compile per distinct action text. Observable behavior is identical to
  // interp().eval(script); with ILPS_TCL_COMPILE=0 it IS interp().eval.
  // Only source text ever crosses ranks — units are a rank-local cache.
  std::string exec_action(const std::string& script);

  // Live entries in the action-unit cache (bounded by capacity).
  size_t units_cached() const { return unit_lru_.size(); }

  // ---- rank loops ----

  // Engine rank: optionally evaluates the top-level program, then serves
  // control tasks (rule actions and close notifications) until shutdown.
  // Returns the number of rules left unfired (nonzero = user deadlock).
  size_t run_engine(const std::string& main_script);

  // Worker rank: evaluates work-task payloads until shutdown.
  void run_worker();

  void emit(const std::string& line);

 private:
  // RAII request scope: installs the ambient serve context on the client
  // (so puts/creates are stamped and counted), tags emitted output with
  // the request, and binds the thread's request id (log prefix + trace
  // event attribution). Restores the previous scope on exit.
  class ReqScope {
   public:
    ReqScope(Context& ctx, int64_t req, int owner, int64_t prog);
    ~ReqScope();

   private:
    Context& ctx_;
    adlb::Client::ServeCtx prev_;
    int64_t prev_req_;
    int64_t prev_thread_req_;
  };

  void register_commands();
  // Lazily retrieves and evaluates a request's program text (datum
  // `prog`), once per rank per program. A no-op for prog == 0.
  void load_program(int64_t prog);
  // Serve bookkeeping notice dispatch ("+" spawn, "-" done,
  // "E<kind>:<msg>" fail-and-done).
  void handle_serve_notice(const adlb::WorkUnit& unit);
  // Evaluates a request-tagged script under its ReqScope, capturing any
  // Error as the request's failure instead of letting it poison the
  // resident runtime.
  void eval_for_request(int64_t req, int owner, int64_t prog, const std::string& script);
  // Sends a serve bookkeeping notice to the request's owner engine.
  void send_serve_notice(int64_t req, int owner, std::string payload);
  // Completion sweep: finish requests the engine proved done, GC their
  // namespaces, and hand the outcomes to the serve layer.
  void sweep_completed();

  adlb::Client& client_;
  Engine* engine_;
  ContextConfig cfg_;
  tcl::Interp interp_;
  blob::Registry blobs_;
  std::unique_ptr<py::Interpreter> python_;
  std::unique_ptr<r::Interpreter> rlang_;
  WorkerStats stats_;
  int64_t cur_req_ = 0;  // request being evaluated on this rank right now
  std::unordered_set<int64_t> loaded_progs_;

  // Action-unit cache: FNV-1a content hash -> LRU entry. Entries keep the
  // source text so a hash collision degrades to a recompile, never to
  // executing the wrong unit.
  struct UnitEntry {
    uint64_t hash = 0;
    std::string source;
    std::shared_ptr<const tcl::CompiledUnit> unit;
  };
  std::list<UnitEntry> unit_lru_;
  std::unordered_map<uint64_t, std::list<UnitEntry>::iterator> unit_map_;
  size_t unit_cap_ = 512;
};

}  // namespace ilps::turbine
