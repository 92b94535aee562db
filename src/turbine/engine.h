// The Turbine rule engine, run on engine ranks (Fig. 2 of the paper).
//
// A *rule* is the dataflow primitive: a set of input datum ids plus an
// action (a MiniTcl script). When every input is closed, the action is
// released — submitted to ADLB as a control task (runs on some engine), a
// work task (runs on a worker), or executed locally. Engines learn about
// closure through ADLB subscribe notifications, which arrive as targeted
// control tasks whose payload is the datum id; a datum this engine closed
// itself counts as closed at once. Subscribing is write-behind, so
// registering a rule never blocks the engine on a server reply, and a
// notification from the datum's home shard brings a small value into the
// datum cache for the rule body's retrieve.
//
// Serve multiplexing (src/serve): the engine tracks rules, subscriptions
// and symbol names per request namespace, and keeps a credit-based
// completion count for every request it owns:
//
//   active  = counted units in flight + queued local actions
//             + close notifications the engine has mailed to itself
//   pending = rules still waiting on unset inputs
//
// Every request-tagged unit is counted exactly once before it can leave
// its spawning rank (owner puts count locally; non-owner puts are counted
// by the first server via a spawn notice that, by eager-transport FIFO,
// reaches the owner before the unit's done notice). Consequently
// active == 0 proves nothing of the request is in flight anywhere, and:
//   active == 0 && pending == 0  ->  the request completed, or
//   active == 0 && pending  > 0  ->  the request is deadlocked,
// both detected deterministically with no polling or grace periods.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "adlb/client.h"
#include "common/stats.h"

namespace ilps::turbine {

// Where a released action runs. Values match ADLB work types.
enum class TaskType {
  kWork = adlb::kTypeWork,       // leaf task on a worker
  kControl = adlb::kTypeControl, // dataflow logic on an engine
  kLocal = -1,                   // immediately, on this engine
};

struct EngineStats {
  uint64_t rules_created = 0;
  uint64_t rules_fired = 0;
  uint64_t rules_fired_immediately = 0;  // all inputs already closed
  uint64_t notifications = 0;
  uint64_t subscribes = 0;
  uint64_t sync_data_rpcs = 0;  // the engine rank's blocking data RPCs
                                // (adlb::DataPipelineStats::sync_rpcs)

  static constexpr StatField<EngineStats> kFields[] = {
      {"engine.rules_created", &EngineStats::rules_created},
      {"engine.rules_fired", &EngineStats::rules_fired},
      {"engine.rules_fired_immediately", &EngineStats::rules_fired_immediately},
      {"engine.notifications", &EngineStats::notifications},
      {"engine.subscribes", &EngineStats::subscribes},
      {"engine.sync_data_rpcs", &EngineStats::sync_data_rpcs},
  };
  EngineStats& operator+=(const EngineStats& o) { return add_stats(*this, o); }
};

// One unset datum a stuck rule is waiting on. `name`/`line` come from the
// compiler-emitted symbol map (swift:alloc -> turbine::declare_name) and
// are empty/0 for temporaries the compiler did not register.
struct StuckInput {
  int64_t id = 0;
  std::string name;
  int line = 0;
};

// A rule still pending when termination fired: the deadlock diagnosis.
struct StuckRule {
  int64_t id = 0;
  std::string action;  // the MiniTcl action that never ran
  std::vector<StuckInput> waiting;
};

// A locally released action awaiting evaluation on this engine, tagged
// with the request it belongs to (0 = none).
struct LocalAction {
  int64_t req = 0;
  std::string action;
};

// How a request ended. Error text travels alongside; the kind restores
// the typed exception at the submission side.
enum class RequestErrorKind : uint8_t {
  kNone = 0,
  kDeadlock,  // rules left waiting on unset futures
  kData,      // DataError (double assignment, missing datum, ...)
  kScript,    // ScriptError / TclError
  kTask,      // a leaf task failed on a worker
  kOs,        // OsError (restricted-OS policy violation, ...)
  kGeneric,   // any other ilps::Error
};

// Everything the engine knows about a finished request, handed to the
// serve layer when the accounting proves completion.
struct RequestOutcome {
  int64_t req = 0;
  RequestErrorKind kind = RequestErrorKind::kNone;
  std::string error;
  uint64_t unfired_rules = 0;        // rules never released (deadlock)
  std::vector<StuckRule> stuck;      // their diagnosis, symbol-resolved
  uint64_t leftover_data = 0;        // filled by the serve layer after GC
  uint64_t stuck_datums = 0;
};

class Engine {
 public:
  explicit Engine(adlb::Client& client) : client_(client) {}

  // Registers a rule under the client's ambient request namespace.
  // Subscribes (write-behind) to inputs not known closed; if every input
  // is known closed the action is released at once. A subscribe to a
  // missing datum surfaces as a DataError at the client's next sync
  // point. Local actions released synchronously are queued on
  // local_ready() rather than executed here, so the caller controls
  // reentrancy.
  void add_rule(const std::vector<int64_t>& inputs, std::string action, TaskType type,
                int target = adlb::kAnyRank, int priority = 0);

  // Handles a close notification for `id` (the payload of a notification
  // control task). Fires any rules that became ready.
  void notify_closed(int64_t id);

  // Records that this engine stored or closed `id` itself, so later rules
  // on it fire without a notification round trip.
  void note_closed(int64_t id);

  // Actions of kLocal rules that became ready; the engine loop drains
  // this queue and evaluates each script, then calls local_done().
  std::deque<LocalAction>& local_ready() { return local_ready_; }

  // Rules still waiting on inputs (nonzero at shutdown means the program
  // deadlocked on unset data).
  size_t pending_rules() const { return rules_.size(); }

  // Symbol map: remembers that datum `id` backs source variable `name`
  // declared at `line` (registered by the compiled program's swift:alloc).
  void name_datum(int64_t id, std::string name, int line);

  // "variable \"x\" (line 3)" for a mapped datum, "" otherwise. Feeds the
  // client's DataError symbol hint.
  std::string describe_datum(int64_t id) const;

  // The quiescence diagnosis: every pending rule with the unset datum ids
  // it is waiting on, resolved through the symbol map where possible.
  // Meaningful once the run has terminated with pending_rules() > 0.
  std::vector<StuckRule> stuck_report() const;

  EngineStats stats() const;

  // ---- serve request accounting (this engine = the request's owner) ----

  // Marks the request begun (eligible for completion detection) and
  // records its program datum for released work units. Auto-creates the
  // tracker if counting signals arrived first.
  void begin_request(int64_t req, int64_t prog);

  // +1: a counted unit of `req` exists (local put or a server spawn
  // notice). Also wired as the client's on_spawned hook.
  void on_spawned(int64_t req);

  // -1: a counted unit finished evaluating (engine-local control task, or
  // a worker's done notice).
  void unit_done(int64_t req);

  // A store/close ACK reported `count` close notifications queued back to
  // this rank for datum `id`: they are in flight, so the request cannot
  // complete until notify_closed() consumes them. Wired as the client's
  // on_self_notify hook.
  void note_self_notify(int64_t req, int64_t id, uint32_t count);

  // One queued local action of `req` finished evaluating.
  void local_done(int64_t req);

  // Marks the request failed (first error wins). Outstanding units keep
  // draining; completion fires once active reaches zero.
  void fail_request(int64_t req, RequestErrorKind kind, std::string error);

  // Requests whose accounting has proven completion since the last call.
  // Check once per engine-loop iteration, after draining local actions.
  std::vector<int64_t> take_completed();

  // Builds the outcome and erases every trace of the request from the
  // engine (rules, watchers, closed-set, symbol map, notify credits).
  RequestOutcome finish_request(int64_t req);

  // Program datum recorded by begin_request (0 if unknown/batch).
  int64_t request_prog(int64_t req) const {
    auto it = requests_.find(req);
    return it == requests_.end() ? 0 : it->second.prog;
  }

 private:
  struct Rule {
    int waiting = 0;
    std::string action;
    TaskType type;
    int target;
    int priority;
    int64_t req = 0;
  };

  struct RequestState {
    int64_t active = 0;
    int64_t pending = 0;
    int64_t prog = 0;
    bool begun = false;
    bool failed = false;
    RequestErrorKind kind = RequestErrorKind::kNone;
    std::string error;
  };

  void release(Rule&& rule);
  RequestState& state(int64_t req);
  // Records that `id` was touched under `req` so finish_request() can
  // clean the per-datum maps without a full scan.
  void touch(int64_t req, int64_t id);
  void mark_dirty(int64_t req);

  adlb::Client& client_;
  int64_t next_id_ = 1;
  std::unordered_map<int64_t, Rule> rules_;
  std::unordered_map<int64_t, std::vector<int64_t>> watchers_;  // datum -> rule ids
  std::unordered_set<int64_t> closed_;  // ids known closed (notified, or closed here)
  std::unordered_map<int64_t, StuckInput> names_;  // datum -> source symbol
  std::deque<LocalAction> local_ready_;
  EngineStats stats_;

  // ---- serve state ----
  std::unordered_map<int64_t, RequestState> requests_;
  std::unordered_map<int64_t, int64_t> datum_req_;  // datum -> request that touched it
  std::unordered_map<int64_t, std::vector<int64_t>> req_datums_;  // inverse, for cleanup
  // datum -> (req, in-flight self-notifications) credited by note_self_notify.
  std::unordered_map<int64_t, std::pair<int64_t, uint32_t>> self_notify_;
  std::unordered_set<int64_t> dirty_;  // requests whose counters moved
};

}  // namespace ilps::turbine
