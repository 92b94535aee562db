#include "serve/serve.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "adlb/client.h"
#include "common/sync.h"
#include "common/timer.h"
#include "mpi/comm.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "swift/compiler.h"

namespace ilps::serve {

namespace detail {

// A Swift source compiled once: namespaced MiniTcl proc definitions plus
// the entry script. `datum` is the resident store copy (created by the
// ingress rank under request 0, so the namespace GC never sweeps it);
// only the ingress thread reads or writes it.
struct CompiledProgram {
  std::string tcl;
  std::string entry;
  int64_t datum = 0;
};

// Compile-once cache keyed by source text. Each program gets a distinct
// proc namespace ("p<n>:") so its generated procs coexist with every
// other cached program inside the resident interpreters.
class ProgramCache {
 public:
  std::shared_ptr<CompiledProgram> get(const std::string& source) {
    uint64_t ns_id = 0;
    {
      ilps::LockGuard lock(mu_);
      auto it = by_source_.find(source);
      if (it != by_source_.end()) {
        ++hits_;
        return it->second;
      }
      ns_id = next_ns_++;
    }
    // Compile outside mu_: swift::compile is arbitrarily slow, and holding
    // the cache lock across it serialized concurrent submitters of
    // *distinct* programs behind one compile. The namespace id is reserved
    // above so racing first-compiles of different sources never collide.
    const std::string ns = "p" + std::to_string(ns_id) + ":";
    auto prog = std::make_shared<CompiledProgram>();
    prog->tcl = swift::compile(source, ns);  // parse + verify + codegen
    prog->entry = ns + "swift:main";
    ilps::LockGuard lock(mu_);
    auto [it, inserted] = by_source_.emplace(source, prog);
    if (!inserted) {
      // Lost a duplicate-compile race for the same source: adopt the
      // winner so every caller shares one CompiledProgram (and one
      // resident store copy), and count this call as the hit it is.
      ++hits_;
      return it->second;
    }
    ++compiled_;
    return prog;
  }

  uint64_t compiled() const {
    ilps::LockGuard lock(mu_);
    return compiled_;
  }
  uint64_t hits() const {
    ilps::LockGuard lock(mu_);
    return hits_;
  }

 private:
  mutable ilps::Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<CompiledProgram>> by_source_
      ILPS_GUARDED_BY(mu_);
  uint64_t next_ns_ ILPS_GUARDED_BY(mu_) = 0;  // namespace ids, incl. failed compiles
  uint64_t compiled_ ILPS_GUARDED_BY(mu_) = 0;
  uint64_t hits_ ILPS_GUARDED_BY(mu_) = 0;
};

// Every field except the construction-time id/prog/submitted/traced is
// guarded by the owning Hub's mu (a cross-object contract clang's
// analysis cannot express on a free struct; ilps-lint's scope rules and
// the Hub's annotations cover the accesses).
struct RequestEntry {
  int64_t id = 0;
  std::shared_ptr<CompiledProgram> prog;
  double submitted = 0;  // hub-clock time of admission
  bool traced = false;   // trace capture registered for this request
  std::string partial;   // output fragment awaiting its newline
  bool done = false;
  RequestResult result;
};

// A command for the ingress rank, queued by submit()/datum_count()/
// shutdown() and drained inside the world.
struct Command {
  enum Kind { kSubmit, kCount, kStop };
  Kind kind = kSubmit;
  std::shared_ptr<RequestEntry> entry;                   // kSubmit
  std::shared_ptr<std::promise<uint64_t>> count;        // kCount
};

// Digests a stitched (time-ordered) request trace into the critical-path
// summary RequestResult carries: where the latency went and what the
// request actually did across the world.
RequestTraceSummary summarize_trace(const std::vector<obs::Event>& events) {
  RequestTraceSummary s;
  s.events = events.size();
  if (events.empty()) return s;
  double submit_t = 0;
  double begin_t = 0;
  // task.run spans nest per rank (engine locals run inside worker-style
  // loops on the same thread), so match Begin/End with a per-rank stack.
  std::unordered_map<int32_t, std::vector<double>> open_runs;
  for (const obs::Event& e : events) {
    switch (e.kind) {
      case obs::EventKind::kReqSubmit:
        if (submit_t == 0) submit_t = e.t;
        break;
      case obs::EventKind::kReqBegin:
        if (begin_t == 0) begin_t = e.t;
        break;
      case obs::EventKind::kRuleFired:
        ++s.rule_fires;
        break;
      case obs::EventKind::kAdlbPut:
        ++s.puts;
        break;
      case obs::EventKind::kMpiSend:
        ++s.mpi_messages;
        s.mpi_bytes += static_cast<uint64_t>(e.b > 0 ? e.b : 0);
        break;
      case obs::EventKind::kTaskRun: {
        auto& stack = open_runs[e.rank];
        if (e.ph == obs::Phase::kBegin) {
          stack.push_back(e.t);
        } else if (e.ph == obs::Phase::kEnd && !stack.empty()) {
          ++s.tasks;
          s.exec_seconds += e.t - stack.back();
          stack.pop_back();
        }
        break;
      }
      default:
        break;
    }
  }
  if (submit_t > 0 && begin_t > submit_t) s.queue_seconds = begin_t - submit_t;
  s.span_seconds = events.back().t - events.front().t;
  return s;
}

// Shared rendezvous between the submission side (user threads) and the
// world's rank threads. Owns admission state, per-request entries, the
// ingress command queue, and the serve.* metrics. Reference-counted so
// RequestHandles stay valid after the Service is gone.
class Hub {
 public:
  // How many slow-request exemplars the ring retains.
  static constexpr size_t kMaxExemplars = 16;

  Hub(bool echo, double slow_threshold, int64_t sample_every)
      : slow_threshold_(slow_threshold), sample_every_(sample_every), echo_(echo) {
    if (obs::metrics_enabled()) {
      obs::Metrics& m = obs::metrics();
      m_admitted_ = &m.counter("serve.admitted");
      m_rejected_ = &m.counter("serve.rejected");
      m_shed_ = &m.counter("serve.shed");
      m_completed_ = &m.counter("serve.completed");
      m_failed_ = &m.counter("serve.failed");
      m_slow_ = &m.counter("serve.slow_requests");
      m_inflight_ = &m.gauge("serve.inflight");
      m_latency_ = &m.histogram("serve.request_seconds");
      // The rolling-window twin: live p50/p99/p999 over the last minute,
      // memory-bounded no matter how long the service stays up.
      m_latency_window_ = &m.window_histogram("serve.request_seconds");
    }
  }

  ilps::Mutex mu;
  ilps::CondVar cv_done;  // completion: wakes wait()/drain()/kBlock
  ilps::CondVar cv_cmd;   // new command: wakes the ingress rank

  std::deque<Command> commands ILPS_GUARDED_BY(mu);
  std::unordered_map<int64_t, std::shared_ptr<RequestEntry>> inflight ILPS_GUARDED_BY(mu);
  int64_t next_id ILPS_GUARDED_BY(mu) = 1;
  bool stopping ILPS_GUARDED_BY(mu) = false;  // shutdown() called; no further admissions

  uint64_t admitted ILPS_GUARDED_BY(mu) = 0;
  uint64_t rejected ILPS_GUARDED_BY(mu) = 0;
  uint64_t shed ILPS_GUARDED_BY(mu) = 0;
  uint64_t completed ILPS_GUARDED_BY(mu) = 0;
  uint64_t failed ILPS_GUARDED_BY(mu) = 0;
  uint64_t slow ILPS_GUARDED_BY(mu) = 0;    // latency >= slow_threshold_
  uint64_t traced ILPS_GUARDED_BY(mu) = 0;  // completed with a captured trace

  // Every layer's counters, left by the resident world at teardown
  // (zeros while it is up).
  runtime::RunResult totals ILPS_GUARDED_BY(mu);

  // Slow-request exemplar ring, oldest first (full results incl. trace).
  std::deque<RequestResult> exemplars ILPS_GUARDED_BY(mu);

  // Streaming export (set by Service::enter when telemetry is enabled;
  // shared so the hub can outlive the Service).
  std::shared_ptr<obs::TelemetryFlusher> flusher ILPS_GUARDED_BY(mu);

  // Service epoch: line_times and latencies count from here. Immutable
  // after construction (elapsed() only reads the start point).
  Timer clock;

  double slow_threshold() const { return slow_threshold_; }

  // Whether this admission should register trace capture.
  bool should_trace(int64_t id) const {
    return sample_every_ > 0 && obs::trace_enabled() && id % sample_every_ == 0;
  }

  // Per-request output sink for every client rank (the world plan's
  // output). Splits fragments into lines on the request's own entry;
  // output outside any request goes to stdout only under echo.
  void emit(int64_t req, int rank, const std::string& text) {
    (void)rank;
    ilps::LockGuard lock(mu);
    if (echo_) std::fwrite(text.data(), 1, text.size(), stdout);
    if (req == 0) return;
    auto it = inflight.find(req);
    if (it == inflight.end()) return;
    RequestEntry& e = *it->second;
    e.partial += text;
    size_t pos;
    while ((pos = e.partial.find('\n')) != std::string::npos) {
      e.result.lines.push_back(e.partial.substr(0, pos));
      e.result.line_times.push_back(clock.elapsed());
      e.partial.erase(0, pos + 1);
    }
  }

  // Completion callback from an owner engine (ContextConfig::serve_complete):
  // the accounting proved the request finished and its namespace is GC'd.
  void complete(turbine::RequestOutcome&& out) {
    ilps::LockGuard lock(mu);
    auto it = inflight.find(out.req);
    if (it == inflight.end()) return;  // shed before it ran
    std::shared_ptr<RequestEntry> e = std::move(it->second);
    inflight.erase(it);
    e->result.kind = out.kind;
    if (out.kind == turbine::RequestErrorKind::kDeadlock) {
      out.error = runtime::deadlock_message("request <" + std::to_string(out.req) + ">",
                                            out.unfired_rules, out.stuck);
    }
    e->result.error = std::move(out.error);
    e->result.unfired_rules = out.unfired_rules;
    e->result.stuck = std::move(out.stuck);
    e->result.leftover_data = out.leftover_data;
    e->result.stuck_datums = out.stuck_datums;
    finish_locked(*e, /*was_failure=*/out.kind != turbine::RequestErrorKind::kNone);
  }

  // Marks every live request failed (the world died under them); called
  // with the world's terminal error so waiters see a cause, not a hang.
  void fail_all(const std::string& why) {
    ilps::LockGuard lock(mu);
    for (auto& [id, e] : inflight) {
      e->result.kind = turbine::RequestErrorKind::kGeneric;
      e->result.error = why;
      finish_locked(*e, /*was_failure=*/true);
    }
    inflight.clear();
    commands.clear();
  }

  // Caller holds mu. Seals the entry's result and publishes metrics.
  void finish_locked(RequestEntry& e, bool was_failure) ILPS_REQUIRES(mu) {
    if (!e.partial.empty()) {
      e.result.lines.push_back(std::move(e.partial));
      e.result.line_times.push_back(clock.elapsed());
      e.partial.clear();
    }
    e.result.latency_seconds = clock.elapsed() - e.submitted;
    e.done = true;
    ++completed;
    if (was_failure) ++failed;
    if (m_completed_ != nullptr) m_completed_->add();
    if (was_failure && m_failed_ != nullptr) m_failed_->add();
    if (m_inflight_ != nullptr) m_inflight_->set(static_cast<double>(inflight.size()));
    if (m_latency_ != nullptr) m_latency_->record(e.result.latency_seconds);
    if (m_latency_window_ != nullptr) m_latency_window_->record(e.result.latency_seconds);
    if (e.traced) {
      // Seal the capture: write the completion mark into the capture
      // buffer first, then deregister and stitch. The rank-local ring gets
      // its own req.done afterwards (post-deregistration, so exactly one
      // copy lands in the capture).
      obs::req_capture_note_off_rank(e.id, obs::EventKind::kReqDone, obs::Phase::kInstant, e.id,
                                     was_failure ? 1 : 0);
      e.result.trace = obs::req_capture_take(e.id);
      e.result.trace_summary = detail::summarize_trace(e.result.trace);
      ++traced;
    }
    {
      obs::RequestScope rscope(e.id);
      obs::instant(obs::EventKind::kReqDone, e.id, was_failure ? 1 : 0);
    }
    const bool is_slow =
        slow_threshold_ > 0 && e.result.latency_seconds >= slow_threshold_;
    if (is_slow) {
      ++slow;
      if (m_slow_ != nullptr) m_slow_->add();
      exemplars.push_back(e.result);
      if (exemplars.size() > kMaxExemplars) exemplars.pop_front();
    }
    if (flusher && (e.traced || is_slow)) {
      obs::TelemetryFlusher::RequestRecord rec;
      rec.id = e.id;
      rec.failed = was_failure;
      rec.slow = is_slow;
      rec.latency_seconds = e.result.latency_seconds;
      rec.events = e.result.trace;
      flusher->enqueue_request(std::move(rec));
    }
    cv_done.notify_all();
  }

  // Metric handles (null when metrics are disabled); resolved once in the
  // constructor and immutable afterwards, so reads need no lock. The
  // pointees are internally synchronized (obs::Counter/Gauge/Histogram).
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Counter* m_slow_ = nullptr;
  obs::Gauge* m_inflight_ = nullptr;
  obs::Histogram* m_latency_ = nullptr;
  obs::WindowHistogram* m_latency_window_ = nullptr;

 private:
  // Immutable after construction: no lock needed.
  double slow_threshold_ = 0;
  int64_t sample_every_ = 1;
  bool echo_ = false;
};

}  // namespace detail

using detail::Command;
using detail::CompiledProgram;
using detail::Hub;
using detail::RequestEntry;

// ---- RequestHandle ----

int64_t RequestHandle::id() const { return entry_ ? entry_->id : 0; }

bool RequestHandle::done() const {
  if (!entry_) return false;
  ilps::LockGuard lock(hub_->mu);
  return entry_->done;
}

RequestResult RequestHandle::wait() const {
  if (!entry_) throw Error("serve: wait on an empty RequestHandle");
  ilps::UniqueLock lock(hub_->mu);
  while (!entry_->done) hub_->cv_done.wait(lock);
  return entry_->result;
}

RequestResult RequestHandle::get() const {
  RequestResult r = wait();
  throw_request_error(r);
  return r;
}

void throw_request_error(const RequestResult& r) {
  if (r.shed) throw ServeError(ServeError::kOverloaded, r.error);
  switch (r.kind) {
    case turbine::RequestErrorKind::kNone:
      return;
    case turbine::RequestErrorKind::kDeadlock:
      throw DeadlockError(r.error);
    case turbine::RequestErrorKind::kData:
      throw DataError(r.error);
    case turbine::RequestErrorKind::kScript:
      throw ScriptError(r.error);
    case turbine::RequestErrorKind::kTask:
      throw TaskError(r.error);
    case turbine::RequestErrorKind::kOs:
      throw OsError(r.error);
    case turbine::RequestErrorKind::kGeneric:
      break;
  }
  throw Error(r.error);
}

// ---- Service ----

struct Service::Impl {
  ServeConfig cfg;
  std::shared_ptr<Hub> hub;
  detail::ProgramCache cache;

  ilps::Mutex lifecycle_mu;  // serializes enter()/shutdown()
  std::thread world_thread ILPS_GUARDED_BY(lifecycle_mu);
  ilps::Atomic<bool> entered{false};
  bool joined ILPS_GUARDED_BY(lifecycle_mu) = false;
  // Terminal failure of the world itself: written only by the world
  // thread, read only after world_thread.join() — synchronized by the
  // join, not by a lock.
  std::exception_ptr world_error;

  void run_world();
  void ingress_loop(adlb::Client& client);
};

// The ingress rank: the one client that is *not* parked in Get while the
// service is up, which is exactly what keeps the quiescence detector from
// shutting the resident world down. It drains the hub's command queue,
// materializes each program's resident copy, and seeds requests onto
// their owner engines.
void Service::Impl::ingress_loop(adlb::Client& client) {
  const int engines = cfg.runtime.engines;
  for (;;) {
    Command cmd;
    {
      ilps::UniqueLock lock(hub->mu);
      while (hub->commands.empty()) hub->cv_cmd.wait(lock);
      cmd = std::move(hub->commands.front());
      hub->commands.pop_front();
    }
    if (cmd.kind == Command::kStop) break;
    if (cmd.kind == Command::kCount) {
      cmd.count->set_value(client.datum_count());
      continue;
    }
    CompiledProgram& prog = *cmd.entry->prog;
    if (prog.datum == 0) {
      // First run of this program: store its compiled text once, under
      // request 0 so the namespace GC never reclaims it. Ranks retrieve
      // and evaluate it lazily (Context::load_program).
      const int64_t id = client.unique();
      client.create(id, adlb::DataType::kString);
      client.store(id, prog.tcl);
      prog.datum = id;
    }
    // The request seed: the owner engine begins the request's accounting
    // and evaluates the entry proc. Targeted, so it ships synchronously;
    // the first server to see it emits the "+1" spawn notice ahead of it.
    adlb::WorkUnit seed;
    seed.type = adlb::kTypeControl;
    seed.target = static_cast<int>((cmd.entry->id - 1) % engines);
    seed.payload = prog.entry;
    seed.req = cmd.entry->id;
    seed.owner = seed.target;
    seed.prog = prog.datum;
    seed.flags = adlb::kUnitReqBegin;
    client.put(seed);
  }
  // Shutdown: park in Get like every other client. Once the in-flight
  // requests drain, all clients are parked with empty queues and the
  // legacy termination detection stops the world.
  while (client.get(adlb::kTypeControl)) {
  }
}

void Service::Impl::run_world() {
  const runtime::Config& rc = cfg.runtime;
  std::shared_ptr<Hub> h = hub;
  runtime::WorldPlan plan(rc);
  plan.output = [h](int64_t req, int rank, const std::string& text) { h->emit(req, rank, text); };
  plan.ingress = [this](adlb::Client& client) { ingress_loop(client); };
  plan.complete = [h](turbine::RequestOutcome&& out) { h->complete(std::move(out)); };
  mpi::World world(rc.total_ranks() + 1);
  runtime::RunResult totals = runtime::run_world(world, plan);
  runtime::publish_metrics(totals);
  ilps::LockGuard lock(h->mu);
  h->totals = std::move(totals);
}

Service::Service(ServeConfig cfg) : impl_(std::make_unique<Impl>()) {
  impl_->cfg = std::move(cfg);
  double slow_s = impl_->cfg.slow_request_seconds;
  if (const char* env = std::getenv("ILPS_SLOW_REQUEST_MS")) {
    const double ms = std::atof(env);
    if (ms > 0) slow_s = ms / 1000.0;
  }
  impl_->hub = std::make_shared<Hub>(impl_->cfg.runtime.echo_output, slow_s,
                                     impl_->cfg.trace_sample_every);
}

Service::~Service() {
  try {
    shutdown();
  } catch (...) {
    // Destructors don't throw; shutdown() reports the same error when
    // called explicitly.
  }
}

bool Service::entered() const { return impl_->entered.load(); }

void Service::enter() {
  ilps::LockGuard lock(impl_->lifecycle_mu);
  if (impl_->entered.load()) return;
  const runtime::Config& rc = impl_->cfg.runtime;
  if (rc.engines < 1) throw Error("serve: at least one engine rank is required");
  if (rc.workers < 1) throw Error("serve: at least one worker rank is required");
  if (rc.servers < 1) throw Error("serve: at least one server rank is required");
  if (impl_->cfg.max_inflight < 1) throw Error("serve: max_inflight must be at least 1");
  if (impl_->cfg.telemetry.enabled()) {
    auto flusher = std::make_shared<obs::TelemetryFlusher>(impl_->cfg.telemetry);
    flusher->set_status_provider([this] { return status_json(); });
    flusher->start();
    ilps::LockGuard hub_lock(impl_->hub->mu);
    impl_->hub->flusher = std::move(flusher);
  }
  Impl* impl = impl_.get();
  impl_->world_thread = std::thread([impl] {
    try {
      impl->run_world();
    } catch (...) {
      impl->world_error = std::current_exception();
      std::string why = "serve: resident world failed";
      try {
        std::rethrow_exception(impl->world_error);
      } catch (const std::exception& e) {
        why = std::string("serve: resident world failed: ") + e.what();
      } catch (...) {
      }
      impl->hub->fail_all(why);
    }
  });
  impl_->entered.store(true);
}

RequestHandle Service::submit(const std::string& swift_source) {
  if (swift_source.empty()) {
    throw ServeError(ServeError::kBadRequest, "serve: submit of an empty program");
  }
  // Compile (or cache-hit) outside the hub lock; SwiftErrors propagate
  // before anything is admitted.
  std::shared_ptr<CompiledProgram> prog = impl_->cache.get(swift_source);

  std::shared_ptr<Hub> hub = impl_->hub;
  ilps::UniqueLock lock(hub->mu);
  if (hub->stopping) throw ServeError(ServeError::kShutdown, "serve: submit after shutdown");
  if (hub->inflight.size() >= impl_->cfg.max_inflight) {
    switch (impl_->cfg.admission) {
      case AdmissionPolicy::kReject: {
        ++hub->rejected;
        if (hub->m_rejected_ != nullptr) hub->m_rejected_->add();
        throw ServeError(ServeError::kOverloaded,
                         "serve: overloaded: " + std::to_string(hub->inflight.size()) +
                             " request(s) in flight (max " +
                             std::to_string(impl_->cfg.max_inflight) + ")");
      }
      case AdmissionPolicy::kBlock: {
        while (!hub->stopping && hub->inflight.size() >= impl_->cfg.max_inflight) {
          hub->cv_done.wait(lock);
        }
        if (hub->stopping) {
          throw ServeError(ServeError::kShutdown, "serve: submit after shutdown");
        }
        break;
      }
      case AdmissionPolicy::kShedOldest: {
        // Evict the oldest request that has not reached the ingress rank
        // yet. Running requests cannot be shed (their work is already in
        // the world), so a fully-running window degrades to kReject.
        auto it = std::find_if(hub->commands.begin(), hub->commands.end(),
                               [](const Command& c) { return c.kind == Command::kSubmit; });
        if (it == hub->commands.end()) {
          ++hub->rejected;
          if (hub->m_rejected_ != nullptr) hub->m_rejected_->add();
          throw ServeError(ServeError::kOverloaded,
                           "serve: overloaded: every in-flight request is already running "
                           "(nothing queued to shed)");
        }
        std::shared_ptr<RequestEntry> victim = it->entry;
        hub->commands.erase(it);
        hub->inflight.erase(victim->id);
        victim->result.shed = true;
        victim->result.error =
            "serve: request <" + std::to_string(victim->id) + "> shed under overload";
        ++hub->shed;
        if (hub->m_shed_ != nullptr) hub->m_shed_->add();
        hub->finish_locked(*victim, /*was_failure=*/true);
        break;
      }
    }
  }
  auto entry = std::make_shared<RequestEntry>();
  entry->id = hub->next_id++;
  entry->prog = std::move(prog);
  entry->submitted = hub->clock.elapsed();
  entry->result.id = entry->id;
  if (hub->should_trace(entry->id)) {
    // Register the request for cross-rank capture before any rank can
    // emit on its behalf, and mark the submit itself (user thread, no
    // attached tracer, hence off-rank).
    entry->traced = true;
    obs::req_capture_begin(entry->id);
    obs::req_capture_note_off_rank(entry->id, obs::EventKind::kReqSubmit, obs::Phase::kInstant,
                                   entry->id);
  }
  hub->inflight.emplace(entry->id, entry);
  ++hub->admitted;
  if (hub->m_admitted_ != nullptr) hub->m_admitted_->add();
  if (hub->m_inflight_ != nullptr) {
    hub->m_inflight_->set(static_cast<double>(hub->inflight.size()));
  }
  Command cmd;
  cmd.kind = Command::kSubmit;
  cmd.entry = entry;
  hub->commands.push_back(std::move(cmd));
  hub->cv_cmd.notify_one();
  return RequestHandle(hub, std::move(entry));
}

void Service::drain() {
  if (!impl_->entered.load()) throw Error("serve: drain called before enter");
  std::shared_ptr<Hub> hub = impl_->hub;
  ilps::UniqueLock lock(hub->mu);
  while (!hub->inflight.empty()) hub->cv_done.wait(lock);
}

void Service::shutdown() {
  ilps::LockGuard lifecycle(impl_->lifecycle_mu);
  std::shared_ptr<Hub> hub = impl_->hub;
  {
    ilps::LockGuard lock(hub->mu);
    if (!hub->stopping) {
      hub->stopping = true;
      // The stop sentinel queues *behind* every admitted request, so the
      // ingress seeds them all before parking; the world then terminates
      // only after they drain (shutdown implies drain).
      Command cmd;
      cmd.kind = Command::kStop;
      hub->commands.push_back(std::move(cmd));
      hub->cv_cmd.notify_one();
      hub->cv_done.notify_all();  // wake kBlock waiters into kShutdown
    }
  }
  if (impl_->entered.load() && !impl_->joined) {
    // Joining under lifecycle_mu is safe: the world thread never takes
    // lifecycle_mu (it only touches hub->mu, which is not held here), and
    // holding it is what makes concurrent shutdown() calls idempotent.
    impl_->world_thread.join();  // ilps-lint: allow(no-blocking-under-lock) -- see above
    impl_->joined = true;
    // Stop the flusher after the world joins so its final snapshot and
    // request drain see the service's terminal state.
    std::shared_ptr<obs::TelemetryFlusher> flusher;
    {
      ilps::LockGuard lock(hub->mu);
      flusher = std::move(hub->flusher);
      hub->flusher.reset();
    }
    if (flusher) flusher->stop();
    if (impl_->world_error) std::rethrow_exception(impl_->world_error);
  }
}

uint64_t Service::datum_count() {
  if (!impl_->entered.load()) throw Error("serve: datum_count called before enter");
  auto promise = std::make_shared<std::promise<uint64_t>>();
  std::future<uint64_t> value = promise->get_future();
  std::shared_ptr<Hub> hub = impl_->hub;
  {
    ilps::LockGuard lock(hub->mu);
    if (hub->stopping) {
      throw ServeError(ServeError::kShutdown, "serve: datum_count after shutdown");
    }
    Command cmd;
    cmd.kind = Command::kCount;
    cmd.count = promise;
    hub->commands.push_back(std::move(cmd));
    hub->cv_cmd.notify_one();
  }
  return value.get();
}

ServiceStats Service::stats() const {
  std::shared_ptr<Hub> hub = impl_->hub;
  ServiceStats s;
  {
    ilps::LockGuard lock(hub->mu);
    s.admitted = hub->admitted;
    s.rejected = hub->rejected;
    s.shed = hub->shed;
    s.completed = hub->completed;
    s.failed = hub->failed;
    s.inflight = hub->inflight.size();
    s.slow_requests = hub->slow;
    s.traced_requests = hub->traced;
    s.tcl_compile_hits = hub->totals.tcl_stats.hits;
    s.tcl_compile_misses = hub->totals.tcl_stats.misses;
    s.tcl_compile_bailouts = hub->totals.tcl_stats.bailouts;
    s.tcl_units_cached = hub->totals.tcl_units_cached;
  }
  s.programs_compiled = impl_->cache.compiled();
  s.program_cache_hits = impl_->cache.hits();
  return s;
}

std::vector<RequestResult> Service::slow_exemplars() const {
  std::shared_ptr<Hub> hub = impl_->hub;
  ilps::LockGuard lock(hub->mu);
  return {hub->exemplars.begin(), hub->exemplars.end()};
}

std::string Service::status_json() const {
  std::shared_ptr<Hub> hub = impl_->hub;
  // Snapshot the hub under its lock, then format and query the metrics
  // registry with the lock released (the telemetry flusher calls this
  // from its own thread; keep the lock scopes disjoint).
  const ServiceStats st = stats();
  double uptime;
  std::shared_ptr<obs::TelemetryFlusher> flusher;
  {
    ilps::LockGuard lock(hub->mu);
    uptime = hub->clock.elapsed();
    flusher = hub->flusher;
  }
  std::ostringstream s;
  s << "{\"uptime_s\":" << obs::json_num(uptime);
  s << ",\"inflight\":" << st.inflight;
  s << ",\"admitted\":" << st.admitted << ",\"rejected\":" << st.rejected
    << ",\"shed\":" << st.shed;
  s << ",\"completed\":" << st.completed << ",\"failed\":" << st.failed;
  s << ",\"slow_requests\":" << st.slow_requests
    << ",\"traced_requests\":" << st.traced_requests;
  s << ",\"programs_compiled\":" << st.programs_compiled;
  s << ",\"program_cache_hits\":" << st.program_cache_hits;
  s << ",\"tcl\":{\"compile_hits\":" << st.tcl_compile_hits
    << ",\"compile_misses\":" << st.tcl_compile_misses
    << ",\"compile_bailouts\":" << st.tcl_compile_bailouts
    << ",\"units_cached\":" << st.tcl_units_cached << "}";
  if (obs::metrics_enabled()) {
    // Rolling-window latency percentiles: what the service is doing *now*,
    // not since boot.
    obs::WindowHistogram& w = obs::metrics().window_histogram("serve.request_seconds");
    const obs::WindowHistogram::Snapshot snap = w.snapshot();
    s << ",\"window\":{\"window_s\":" << obs::json_num(w.window_seconds());
    s << ",\"count\":" << snap.count << ",\"sum\":" << obs::json_num(snap.sum);
    s << ",\"p50\":" << obs::json_num(snap.p50) << ",\"p90\":" << obs::json_num(snap.p90);
    s << ",\"p99\":" << obs::json_num(snap.p99) << ",\"p999\":" << obs::json_num(snap.p999);
    s << "}";
    // Per-rank utilization: cumulative busy-seconds gauges set by the
    // engine, worker, and server loops; consumers diff successive
    // snapshots against uptime for live utilization.
    const int engines = impl_->cfg.runtime.engines;
    const int workers = impl_->cfg.runtime.workers;
    const int ingress = engines + workers;
    s << ",\"ranks\":[";
    bool first = true;
    for (const auto& [name, value] : obs::metrics().gauges()) {
      constexpr const char* kPrefix = "rank.busy_seconds.r";
      if (name.rfind(kPrefix, 0) != 0) continue;
      const int rank = std::atoi(name.c_str() + std::char_traits<char>::length(kPrefix));
      const char* role = rank < engines  ? "engine"
                         : rank < ingress ? "worker"
                         : rank == ingress ? "ingress"
                                           : "server";
      if (!first) s << ",";
      first = false;
      s << "{\"rank\":" << rank << ",\"role\":\"" << role
        << "\",\"busy_s\":" << obs::json_num(value) << "}";
    }
    s << "]";
  }
  if (flusher) {
    s << ",\"telemetry\":{\"snapshots\":" << flusher->snapshots_written()
      << ",\"requests\":" << flusher->requests_written()
      << ",\"dropped\":" << flusher->requests_dropped() << "}";
  }
  s << "}";
  return s.str();
}

}  // namespace ilps::serve
