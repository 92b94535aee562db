// ilps::serve — a resident service runtime over the ILPS world.
//
// Batch mode (runtime::run_program) builds a world, runs one program, and
// tears everything down: MPI ranks, ADLB servers, Turbine engines, and
// the embedded Python/R interpreters all pay their startup cost per run.
// A service workload — many small independent dataflow programs arriving
// over time — cannot afford that. serve::Service keeps the world resident:
//
//   Service service(cfg);
//   service.enter();                     // start engines/workers/servers
//   auto h = service.submit(source);     // compile-once cached, runs
//   const RequestResult& r = h.wait();   //   concurrently with others
//   service.drain();                     // wait for all in-flight work
//   service.shutdown();                  // quiesce and stop the world
//
// Each submit instantiates a compiled Swift program (parsed and
// swift-verified once, cached by source) with its own datum-id namespace,
// runs it through the dataflow engine concurrently with other in-flight
// requests, and completes a per-request future carrying results or a
// typed error. Admission control bounds the ingress queue with a
// configurable policy (block / reject / shed-oldest); per-request latency
// lands in the serve.request_seconds histogram with serve.* counters.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/runner.h"
#include "turbine/engine.h"

namespace ilps::serve {

// What submit() does when the in-flight request count reaches
// max_inflight.
enum class AdmissionPolicy {
  kBlock,      // wait until a slot frees (lossless backpressure)
  kReject,     // throw ServeError with kind kOverloaded
  kShedOldest, // evict the oldest still-queued request, then admit
};

class ServeError : public Error {
 public:
  enum Kind {
    kOverloaded,  // admission queue full (kReject), or this request was shed
    kShutdown,    // submit after shutdown()
    kBadRequest,  // request could not be built (e.g. empty program)
  };
  ServeError(Kind kind, const std::string& what) : Error(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

struct ServeConfig {
  // Rank layout and interpreter policy; the resident world adds one
  // ingress rank after the workers. Fault-tolerance fields are ignored
  // (the serve runtime does not restart).
  runtime::Config runtime;

  // Admission control: at most this many requests admitted but not yet
  // completed (queued + running).
  size_t max_inflight = 256;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;

  // ---- live telemetry plane ----

  // Streaming export: when enabled (dir set — defaults honor the
  // ILPS_TELEMETRY_DIR / ILPS_TELEMETRY_INTERVAL_MS env vars), enter()
  // starts a background flusher appending metrics snapshots to
  // <dir>/telemetry.jsonl and completed request traces to
  // <dir>/requests.jsonl while the service runs.
  obs::TelemetryFlusher::Config telemetry = obs::TelemetryFlusher::Config::from_env();

  // Slow-request exemplars: a completed request whose latency meets or
  // exceeds this threshold (seconds) keeps its full result — including
  // the stitched trace when captured — in a bounded exemplar ring
  // (slow_exemplars()) and streams to requests.jsonl even when not
  // sampled. 0 disables. ILPS_SLOW_REQUEST_MS overrides when set.
  double slow_request_seconds = 0;

  // Request-trace capture: when tracing is on (ILPS_TRACE /
  // obs::set_trace_enabled), capture the full cross-rank event trace of
  // every Nth admitted request (1 = all, 0 = none). Captured traces land
  // in RequestResult::trace with a critical-path summary. Per-request
  // retention is bounded (obs::kReqCaptureCap events).
  int64_t trace_sample_every = 1;
};

// Critical-path digest of a captured request trace: what the request
// actually did across the world, and where its latency went.
struct RequestTraceSummary {
  uint64_t events = 0;        // captured events (capped at kReqCaptureCap)
  uint64_t tasks = 0;         // completed task.run spans (engine + worker)
  uint64_t rule_fires = 0;    // dataflow rules released
  uint64_t puts = 0;          // work units accepted by servers
  uint64_t mpi_messages = 0;  // request-attributed sends
  uint64_t mpi_bytes = 0;
  double exec_seconds = 0;    // summed task.run durations
  double queue_seconds = 0;   // submit -> the owner engine's req.begin
  double span_seconds = 0;    // first -> last captured event
};

// The completion record a request's future carries.
struct RequestResult {
  int64_t id = 0;
  turbine::RequestErrorKind kind = turbine::RequestErrorKind::kNone;
  std::string error;  // formatted message when kind != kNone
  bool shed = false;  // evicted by AdmissionPolicy::kShedOldest

  std::vector<std::string> lines;  // the request's own output lines
  std::vector<double> line_times;  // arrival times (s since enter())

  // Deadlock diagnosis (kind == kDeadlock): rules never released, with
  // the unset datums they waited on, symbol-resolved.
  uint64_t unfired_rules = 0;
  std::vector<turbine::StuckRule> stuck;

  // Namespace-GC accounting: datums the request left unclosed / with
  // live subscribers when it completed.
  uint64_t leftover_data = 0;
  uint64_t stuck_datums = 0;

  double latency_seconds = 0;  // submit -> completion

  // Request-scoped trace (empty unless tracing was enabled and this
  // request was sampled — ServeConfig::trace_sample_every): the stitched
  // cross-rank event timeline, time-ordered, plus its digest.
  std::vector<obs::Event> trace;
  RequestTraceSummary trace_summary;

  bool ok() const { return kind == turbine::RequestErrorKind::kNone && !shed; }
};

// Throws the typed exception a failed result encodes (DeadlockError,
// DataError, ScriptError, TaskError, OsError, ServeError, Error); returns
// normally for an ok() result.
void throw_request_error(const RequestResult& r);

namespace detail {
struct RequestEntry;
class Hub;
}  // namespace detail

// A per-request future. Copyable; all copies share the same state. Valid
// after the owning Service is destroyed (the state is reference-counted).
class RequestHandle {
 public:
  RequestHandle() = default;

  int64_t id() const;
  bool valid() const { return entry_ != nullptr; }
  bool done() const;

  // Blocks until the request completes; returns a copy of the result so
  // it outlives the handle (including `submit(...).wait()` on a
  // temporary, where the handle may be the result's last owner).
  RequestResult wait() const;

  // wait() + throw_request_error().
  RequestResult get() const;

 private:
  friend class Service;
  RequestHandle(std::shared_ptr<detail::Hub> hub, std::shared_ptr<detail::RequestEntry> entry)
      : hub_(std::move(hub)), entry_(std::move(entry)) {}

  std::shared_ptr<detail::Hub> hub_;
  std::shared_ptr<detail::RequestEntry> entry_;
};

struct ServiceStats {
  uint64_t admitted = 0;
  uint64_t rejected = 0;   // kReject admissions refused
  uint64_t shed = 0;       // requests evicted by kShedOldest
  uint64_t completed = 0;  // futures completed (ok or failed)
  uint64_t failed = 0;     // completed with an error
  uint64_t inflight = 0;   // admitted, not yet completed (snapshot)
  uint64_t programs_compiled = 0;
  uint64_t program_cache_hits = 0;
  uint64_t slow_requests = 0;    // latency >= ServeConfig::slow_request_seconds
  uint64_t traced_requests = 0;  // completed with a captured trace
  // MiniTcl bytecode layer, summed over the client ranks in the totals
  // the resident world leaves at teardown (zeros while it is still up).
  uint64_t tcl_compile_hits = 0;
  uint64_t tcl_compile_misses = 0;
  uint64_t tcl_compile_bailouts = 0;
  uint64_t tcl_units_cached = 0;  // live action-cache entries (LRU-bounded)
};

class Service {
 public:
  explicit Service(ServeConfig cfg);
  ~Service();  // shuts the world down if still running

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Starts the resident world (idempotent). Requests submitted before
  // enter() stay queued and run once the world is up.
  void enter();

  // Compiles (or cache-hits) the Swift source and admits it as a new
  // request. Throws SwiftError on compile/verify errors and ServeError
  // under the kReject policy when the service is overloaded.
  RequestHandle submit(const std::string& swift_source);

  // Blocks until every admitted request has completed.
  void drain();

  // drain() + quiesce and stop the world (idempotent). After shutdown,
  // submit() throws ServeError(kShutdown).
  void shutdown();

  // Live datums across all store shards (includes cached program texts).
  // Requires the world to be running.
  uint64_t datum_count();

  ServiceStats stats() const;

  // Live introspection as one JSON object: uptime, inflight, admission
  // counters, rolling-window latency percentiles (p50/p90/p99/p999 for
  // serve.request_seconds), and per-rank busy-seconds gauges. Cheap and
  // callable from any thread at any time; this is also what the telemetry
  // flusher embeds in each snapshot line and what `ilps --serve-status`
  // renders.
  std::string status_json() const;

  // The most recent slow-request exemplars (bounded ring, oldest first).
  std::vector<RequestResult> slow_exemplars() const;

  bool entered() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ilps::serve
