// ilps::obs — per-rank event tracing. The runtime analogue of Turbine's
// MPE-based logging on Blue Gene/Q (the instrumentation behind the
// paper's task-rate and utilization plots): every rank owns a fixed-size
// ring buffer of typed events with monotonic timestamps; at end of run
// the World's buffers are merged and exported as a Chrome trace
// (chrome://tracing / Perfetto), a per-rank utilization table, and
// metrics.json (see export.h).
//
// Cost model: when tracing is off (the default), every instrumentation
// site is one thread_local load and a predictable branch; nothing is
// allocated. When on, an event is a timestamp read plus a 40-byte store
// into a preallocated ring that overwrites its oldest entries (newest
// events always survive). Compile with -DILPS_OBS_OFF to remove even the
// branch.
//
// Gating: ILPS_TRACE=1 enables event collection and end-of-run export;
// ILPS_METRICS=1 enables the metrics registry alone (see metrics.h).
// Tests toggle collection programmatically with set_trace_enabled().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/sync.h"
#include "common/timer.h"

namespace ilps::obs {

// The event taxonomy (docs/observability.md). Span kinds appear as
// Begin/End pairs; the rest are instants. `a` and `b` are per-kind
// payload slots (ids, ranks, byte counts) named in kind_args().
enum class EventKind : uint16_t {
  // task lifecycle
  kTaskDispatch = 1,  // server hands a unit to a client   a=unit id b=client
  kTaskRun,           // span: client evaluates a payload  a=unit id
  kTaskFailed,        // worker reported a failure         a=unit id b=worker
  kRequeue,           // unit re-dispatched after failure  a=unit id b=attempts
  // ADLB traffic
  kAdlbPut,      // Put accepted by a server          a=unit id b=type
  kAdlbGet,      // Get request arrived               a=client  b=type
  kAdlbPark,     // Get parked (no work of type)      a=client  b=type
  kAdlbGetWait,  // span: client blocked in Get       a=type
  kSteal,        // rebalance batch shipped           a=peer    b=units
  kHungry,       // hungry notice broadcast           a=type
  // data store
  kDataSubscribe,  // subscribe registered            a=datum id b=client
  kDataNotify,     // close fanned out                a=datum id b=subscribers
  // checkpoint/restart
  kCkptWrite,    // span: checkpoint file written     a=seq b=payload bytes
  kCkptRestore,  // span: snapshot applied            a=seq b=datums
  // transport
  kMpiSend,  // user-level send posted                a=dest   b=bytes
  kMpiRecv,  // blocking recv completed               a=source b=bytes
  // fault handling / termination
  kRankDead,        // this rank died (fault or doom)    a=rank
  kHeartbeatDeath,  // server declared a client dead     a=client b=silent ms
  kTermToken,       // termination token handled         a=count  b=black/init
  kShutdown,        // server concluded global quiet
  // server loop
  kServerHandle,  // span: one message handled          a=tag b=bytes
  // rule engine
  kRuleCreated,  // a=rule id  b=inputs
  kRuleFired,    // a=task type
  kRuleStuck,    // pending at termination (deadlock)  a=rule id b=waiting inputs
  kDatumStuck,   // unclosed datum with subscribers at shutdown  a=datum id b=subscribers
  // serve request lifecycle (request-scoped tracing; src/serve)
  kReqSubmit,  // request admitted by Service::submit   a=request id
  kReqBegin,   // owner engine began evaluating it      a=request id
  kReqDone,    // completion notice reached the hub     a=request id b=failed
};

enum class Phase : uint8_t { kBegin = 0, kEnd = 1, kInstant = 2 };

struct Event {
  double t = 0;  // seconds on the ilps::wtime() monotonic epoch
  int64_t a = 0;
  int64_t b = 0;
  int64_t req = 0;  // serve request id in scope when emitted (0 = none)
  int32_t rank = -1;
  EventKind kind{};
  Phase ph{};
};

// Display names for exporters (stable, dotted lower-case).
const char* kind_name(EventKind k);
const char* kind_category(EventKind k);
// Span kinds whose duration counts as "busy" in the utilization table.
bool kind_is_busy(EventKind k);

// One rank's ring buffer. Single-writer (the rank's thread); readers wait
// for the thread to join, so no synchronization is needed — which is what
// keeps emit() to a store and an increment.
class Tracer {
 public:
  void init(int rank, size_t capacity);

  // Stamps the calling thread's request id (log::thread_request) into the
  // event and returns a reference to the stored slot so the shared emit
  // path can forward it to the request-capture registry without a second
  // timestamp read.
  const Event& emit(EventKind k, Phase ph, int64_t a, int64_t b) {
    Event& e = buf_[static_cast<size_t>(count_ % cap_)];
    e.t = ilps::wtime();
    e.a = a;
    e.b = b;
    e.req = ilps::log::thread_request();
    e.rank = rank_;
    e.kind = k;
    e.ph = ph;
    ++count_;
    return e;
  }

  int rank() const { return rank_; }
  uint64_t count() const { return count_; }  // all events ever emitted
  uint64_t dropped() const { return count_ > cap_ ? count_ - cap_ : 0; }

  // Surviving events, oldest first.
  std::vector<Event> events() const;

 private:
  std::vector<Event> buf_;
  uint64_t cap_ = 0;
  uint64_t count_ = 0;
  int rank_ = -1;
};

// All ranks' tracers for one World. Created by mpi::World when tracing is
// enabled; merged after the rank threads join.
class Session {
 public:
  Session(int nranks, size_t capacity);

  int nranks() const { return static_cast<int>(tracers_.size()); }
  Tracer& rank(int r) { return tracers_[static_cast<size_t>(r)]; }
  const Tracer& rank(int r) const { return tracers_[static_cast<size_t>(r)]; }

  // Every rank's surviving events, ordered by timestamp.
  std::vector<Event> merged() const;

 private:
  std::vector<Tracer> tracers_;
};

// ---- runtime gates ----

bool trace_enabled();            // collection gate; env ILPS_TRACE, overridable
void set_trace_enabled(bool on); // programmatic override (tests)
bool metrics_enabled();          // env ILPS_METRICS, or tracing on
void set_metrics_enabled(bool on);
bool export_requested();         // env ILPS_TRACE set: runner writes files
size_t default_capacity();       // env ILPS_TRACE_BUF (events/rank), default 65536
std::string output_dir();        // env ILPS_TRACE_DIR, default "."

// ---- request-scoped tracing ----

// Scopes the calling thread to a serve request id: the tracer stamps it
// into every event emitted while the scope is live (and the log prefix
// shows it). Nest-safe — restores the previous id on destruction. Cost is
// two thread_local stores, so scopes are cheap enough for per-unit use in
// the server dispatch path.
class RequestScope {
 public:
  explicit RequestScope(int64_t req) : prev_(ilps::log::thread_request()) {
    ilps::log::set_thread_request(req);
  }
  ~RequestScope() { ilps::log::set_thread_request(prev_); }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  int64_t prev_;
};

// Request-capture registry: while a request id is registered, every traced
// event carrying that id is also copied into a per-request buffer so the
// full cross-rank trace can be stitched at completion (per-request
// timeline in RequestResult, slow-request exemplars, requests.jsonl).
// The gate is a relaxed atomic consulted only for events that are already
// (a) traced and (b) inside a request scope, so untraced runs and
// non-request events never touch it.
namespace detail {
extern ilps::Atomic<bool> g_req_capture;
}  // namespace detail

inline bool req_capture_active() {
  // ordering: relaxed — a pure fast-path gate. Registration happens
  // under g_capture_mu before any event of the new request can exist, so
  // a stale false only skips events that predate the registration.
  return detail::g_req_capture.load(std::memory_order_relaxed);
}

// Registers `req` for capture. Events accumulate until req_capture_take;
// per-request retention is capped (kReqCaptureCap oldest-kept events).
void req_capture_begin(int64_t req);
// Copies `e` into the buffer of e.req if registered (called by emit()).
void req_capture_note(const Event& e);
// Appends an event on behalf of a thread with no attached tracer (e.g.
// Service::submit on a user thread); stamps rank -1 and the current time.
void req_capture_note_off_rank(int64_t req, EventKind k, Phase ph, int64_t a = 0, int64_t b = 0);
// Removes and returns the captured events for `req` (empty if never
// registered). Deactivates the gate when the registry empties.
std::vector<Event> req_capture_take(int64_t req);
// Events retained per request before the oldest are dropped.
constexpr size_t kReqCaptureCap = 4096;

// ---- the per-thread emit path ----

extern thread_local Tracer* tls_tracer;

inline void attach(Tracer* t) { tls_tracer = t; }
inline void detach() { tls_tracer = nullptr; }
inline Tracer* current() { return tls_tracer; }

inline void emit(EventKind k, Phase ph, int64_t a = 0, int64_t b = 0) {
#ifndef ILPS_OBS_OFF
  if (tls_tracer != nullptr) {
    const Event& e = tls_tracer->emit(k, ph, a, b);
    if (e.req != 0 && req_capture_active()) req_capture_note(e);
  }
#else
  (void)k;
  (void)ph;
  (void)a;
  (void)b;
#endif
}

inline void instant(EventKind k, int64_t a = 0, int64_t b = 0) {
  emit(k, Phase::kInstant, a, b);
}

// RAII Begin/End pair; arms only if a tracer is attached at construction.
// Routed through emit() so request capture sees Begin/End pairs too.
class Span {
 public:
  explicit Span(EventKind k, int64_t a = 0, int64_t b = 0) : k_(k) {
#ifndef ILPS_OBS_OFF
    if (tls_tracer != nullptr) {
      armed_ = true;
      emit(k, Phase::kBegin, a, b);
    }
#else
    (void)a;
    (void)b;
#endif
  }
  ~Span() {
    if (armed_ && tls_tracer != nullptr) emit(k_, Phase::kEnd, 0, 0);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  EventKind k_;
  bool armed_ = false;
};

}  // namespace ilps::obs
