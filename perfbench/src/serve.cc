// The serve workload: a resident serve::Service (1 engine, 1 worker,
// 1 ingress and 1 server) fed by one submitting thread in a closed loop
// with a fixed in-flight window. Requests are drawn by seed from a fixed
// set of distinct small Swift programs that fits the program cache; every
// result must be ok() and carry the program's expected line.
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serve.h"

namespace perfbench {
namespace {

constexpr size_t kWindow = 64;
constexpr int kPrograms = 16;

struct Request {
  std::string source;
  std::string expected;  // the one line the request prints
};

// Three shapes: engine-only arithmetic, a branch on a future, and a leaf
// call that runs on the worker.
std::vector<Request> request_set() {
  std::vector<Request> set;
  for (int j = 0; j < kPrograms; ++j) {
    const int64_t k = 10 + 7 * j;
    const int64_t m = 3 + j;
    const std::string js = std::to_string(j), ks = std::to_string(k), ms = std::to_string(m);
    Request r;
    switch (j % 3) {
      case 0:
        r.source = "int x = " + ks + ";\nprintf(\"a" + js + "=%d\", x * " + ms + ");\n";
        r.expected = "a" + js + "=" + std::to_string(k * m);
        break;
      case 1:
        r.source = "int x = " + ks + ";\nint y = x + " + ms +
                   ";\nif (y % 2 == 0) { printf(\"b" + js +
                   " even %d\", y); } else { printf(\"b" + js + " odd %d\", y); }\n";
        r.expected = "b" + js + ((k + m) % 2 == 0 ? " even " : " odd ") + std::to_string(k + m);
        break;
      default:
        r.source = "(int o) f (int i) [ \"set <<o>> [ expr <<i>> * " + ms +
                   " ]\" ];\nint y = f(" + ks + ");\nprintf(\"c" + js + "=%d\", y);\n";
        r.expected = "c" + js + "=" + std::to_string(k * m);
        break;
    }
    set.push_back(std::move(r));
  }
  return set;
}

ilps::serve::ServeConfig service_config() {
  ilps::serve::ServeConfig cfg;
  cfg.runtime.engines = 1;
  cfg.runtime.workers = 1;
  cfg.runtime.servers = 1;
  cfg.max_inflight = kWindow;
  cfg.admission = ilps::serve::AdmissionPolicy::kBlock;
  cfg.telemetry = {};  // no streaming export from the benchmark
  cfg.slow_request_seconds = 0;
  cfg.trace_sample_every = 1;
  return cfg;
}

bool check(const ilps::serve::RequestResult& r, const Request& req) {
  return r.ok() && r.lines.size() == 1 && r.lines[0] == req.expected;
}

// One closed-loop phase against a running service.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> done_at;  // completion times, seconds into the phase
  std::vector<double> submit_us;
  std::vector<ilps::serve::RequestTraceSummary> summaries;
  uint64_t rules_created = 0;  // kRuleCreated events across captured traces
  uint64_t capped = 0;         // captures that reached kReqCaptureCap
  uint64_t completed = 0;
  double budget = 0;
  double elapsed = 0;
  double cpu = 0;

  // Per slice: requests completed over the slice's length (the last slice
  // runs on through the final drain).
  double rate() const {
    const std::vector<std::vector<size_t>> slices = slices_of(done_at, budget);
    const double len = budget / static_cast<double>(slices.size());
    std::vector<double> rates;
    for (size_t k = 0; k < slices.size(); ++k) {
      const double span = k + 1 == slices.size() ? elapsed - len * static_cast<double>(k) : len;
      rates.push_back(static_cast<double>(slices[k].size()) / span);
    }
    return median(rates);
  }
  // Per slice: the p-th percentile of request latency, in ms.
  double latency(double p) const {
    return median_over_slices(slices_of(done_at, budget), [&](const std::vector<size_t>& s) {
      std::vector<double> ms;
      for (size_t i : s) ms.push_back(latency_ms[i]);
      return percentile(ms, p);
    });
  }
};

Phase closed_loop(ilps::serve::Service& svc, const std::vector<Request>& set, Rng& rng,
                  double budget, Outcome& out) {
  struct Pending {
    ilps::serve::RequestHandle handle;
    int program;
  };
  Phase p;
  p.budget = budget;
  std::deque<Pending> window;
  ilps::Timer timer;
  auto finish = [&](const Pending& pending) {
    const ilps::serve::RequestResult r = pending.handle.wait();
    ++p.completed;
    if (!check(r, set[static_cast<size_t>(pending.program)])) out.fail(1);
    p.latency_ms.push_back(r.latency_seconds * 1e3);
    p.done_at.push_back(timer.elapsed());
    if (!r.trace.empty()) {
      p.summaries.push_back(r.trace_summary);
      for (const ilps::obs::Event& e : r.trace) {
        if (e.kind == ilps::obs::EventKind::kRuleCreated) ++p.rules_created;
      }
      if (r.trace_summary.events >= ilps::obs::kReqCaptureCap) ++p.capped;
    }
  };
  const double cpu0 = cpu_seconds();
  timer.reset();
  while (timer.elapsed() < budget) {
    if (window.size() == kWindow) {
      finish(window.front());
      window.pop_front();
    }
    const int program = static_cast<int>(rng.range(0, kPrograms - 1));
    ilps::Timer t_submit;
    ilps::serve::RequestHandle h = svc.submit(set[static_cast<size_t>(program)].source);
    p.submit_us.push_back(t_submit.elapsed() * 1e6);
    ++out.attempted;
    window.push_back({std::move(h), program});
  }
  while (!window.empty()) {
    finish(window.front());
    window.pop_front();
  }
  p.elapsed = timer.elapsed();
  p.cpu = cpu_seconds() - cpu0;
  return p;
}

// Submits every distinct program once (fills the program cache) plus a
// few hundred more, untimed.
void warm_up(ilps::serve::Service& svc, const std::vector<Request>& set, Outcome& out) {
  std::vector<ilps::serve::RequestHandle> handles;
  std::vector<int> programs;
  for (int i = 0; i < 4 * static_cast<int>(kWindow); ++i) {
    programs.push_back(i % kPrograms);
    handles.push_back(svc.submit(set[static_cast<size_t>(i % kPrograms)].source));
    ++out.attempted;
    if (handles.size() == kWindow) {
      for (size_t k = 0; k < handles.size(); ++k) {
        if (!check(handles[k].wait(), set[static_cast<size_t>(programs[k])])) out.fail(1);
      }
      handles.clear();
      programs.clear();
    }
  }
}

// Rank-busy seconds from the rank.busy_seconds.r<N> gauges (metrics on).
double busy_seconds(int rank) {
  return ilps::obs::metrics().gauge("rank.busy_seconds.r" + std::to_string(rank)).value();
}

struct Setup {
  double total_s = 0;
  double enter_ms = 0;
};

// Set-up: Service construction + enter() + the first request (which
// compiles its program), repeated on fresh services; medians reported.
Setup measure_setup(const std::vector<Request>& set, Outcome& out) {
  constexpr int kReps = 51;
  std::vector<double> total, enter;
  for (int rep = 0; rep < kReps; ++rep) {
    ilps::Timer t_total;
    ilps::serve::Service svc(service_config());
    ilps::Timer t_enter;
    svc.enter();
    enter.push_back(t_enter.elapsed() * 1e3);
    const ilps::serve::RequestResult r = svc.submit(set[0].source).wait();
    total.push_back(t_total.elapsed());
    ++out.attempted;
    if (!check(r, set[0])) out.fail(1);
    svc.shutdown();
  }
  return {median(total), median(enter)};
}

}  // namespace

Outcome run_serve_workload(const Options& opt) {
  const std::vector<Request> set = request_set();
  Rng rng(opt.seed);
  Outcome out;
  const Setup setup = measure_setup(set, out);

  if (!opt.trace) {
    ilps::serve::Service svc(service_config());
    svc.enter();
    warm_up(svc, set, out);
    const Phase p = closed_loop(svc, set, rng, opt.seconds, out);
    svc.shutdown();
    std::printf("serve: %llu requests in %.2f s, window %zu\n",
                static_cast<unsigned long long>(p.completed), p.elapsed, kWindow);
    out.add("units_per_s", p.rate(), "1/s");
    out.add("latency_p50_ms", p.latency(50), "ms");
    out.add("latency_p99_ms", p.latency(99), "ms");
    out.add("setup_s", setup.total_s, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Untraced phase: rate, submit cost, program cache and Tcl counters.
  ilps::serve::Service plain_svc(service_config());
  plain_svc.enter();
  warm_up(plain_svc, set, out);
  const Phase plain = closed_loop(plain_svc, set, rng, opt.seconds / 2, out);
  const uint64_t cache_hits = plain_svc.stats().program_cache_hits;
  plain_svc.shutdown();
  const ilps::serve::ServiceStats tcl = plain_svc.stats();

  // Traced phase: every request's cross-rank trace is captured; role busy
  // shares come from the per-rank busy gauges over the phase.
  ilps::obs::set_trace_enabled(true);
  ilps::serve::Service svc(service_config());
  svc.enter();
  warm_up(svc, set, out);
  const int engine = 0, worker = 1, server = 3;  // rank 2 is the ingress rank
  const double e0 = busy_seconds(engine), w0 = busy_seconds(worker), s0 = busy_seconds(server);
  const Phase traced = closed_loop(svc, set, rng, opt.seconds / 2, out);
  const double engine_busy = ratio(busy_seconds(engine) - e0, traced.elapsed);
  const double worker_busy = ratio(busy_seconds(worker) - w0, traced.elapsed);
  const double server_busy = ratio(busy_seconds(server) - s0, traced.elapsed);
  svc.shutdown();
  ilps::obs::set_trace_enabled(false);

  std::vector<double> queue_ms, exec_ms;
  double tasks = 0, exec_s = 0, puts = 0, messages = 0, bytes = 0;
  for (const ilps::serve::RequestTraceSummary& s : traced.summaries) {
    queue_ms.push_back(s.queue_seconds * 1e3);
    exec_ms.push_back(s.exec_seconds * 1e3);
    tasks += static_cast<double>(s.tasks);
    exec_s += s.exec_seconds;
    puts += static_cast<double>(s.puts);
    messages += static_cast<double>(s.mpi_messages);
    bytes += static_cast<double>(s.mpi_bytes);
  }
  const double n = static_cast<double>(traced.summaries.size());
  const std::vector<RoleShare> roles = {
      {"engine", 1, engine_busy}, {"worker", 1, worker_busy}, {"server", 1, server_busy}};
  const std::vector<EventCheck> checks = {
      {"req.captured", traced.summaries.size(), traced.completed},
      {"req.below_cap", traced.summaries.size() - traced.capped, traced.summaries.size()}};
  print_layer_table(roles, checks, plain.rate(), traced.rate());

  out.add("swift.compile_ms", 0, "ms");
  out.add("runtime.world_ms", 0, "ms");
  out.add("serve.enter_ms", setup.enter_ms, "ms");
  out.add("serve.submit_us", median(plain.submit_us), "us");
  out.add("serve.queue_ms", median(queue_ms), "ms");
  out.add("serve.exec_ms", median(exec_ms), "ms");
  out.add("serve.program_cache_hits", static_cast<double>(cache_hits), "count");
  out.add("turbine.rules_per_unit", ratio(static_cast<double>(traced.rules_created), n), "count");
  out.add("turbine.fired_immediately_frac", 0, "fraction");
  out.add("engine.busy_frac", engine_busy, "fraction");
  out.add("engine.blocked_frac", 1 - engine_busy, "fraction");
  out.add("tcl.compile_hit_frac",
          ratio(static_cast<double>(tcl.tcl_compile_hits),
                static_cast<double>(tcl.tcl_compile_hits + tcl.tcl_compile_misses)),
          "fraction");
  out.add("tcl.bailouts", static_cast<double>(tcl.tcl_compile_bailouts), "count");
  out.add("tcl.units_cached", static_cast<double>(tcl.tcl_units_cached), "count");
  out.add("adlb.data_ops_per_unit", 0, "count");
  out.add("adlb.cache_hit_frac", 0, "fraction");
  out.add("adlb.pipeline_ops_per_flush", 0, "count");
  out.add("adlb.pipeline_stalls", 0, "count");
  out.add("server.busy_frac", server_busy, "fraction");
  out.add("adlb.matches_per_unit", ratio(puts, n), "count");
  out.add("adlb.get_wait_ms", 0, "ms");
  out.add("mpi.messages_per_unit", ratio(messages, n), "count");
  out.add("mpi.bytes_per_unit", ratio(bytes, n), "B");
  out.add("mpi.wakeup_frac", 0, "fraction");
  out.add("mpi.pool_miss_frac", 0, "fraction");
  out.add("python.eval_ms", 0, "ms");
  out.add("r.eval_ms", 0, "ms");
  out.add("worker.busy_frac", worker_busy, "fraction");
  out.add("leaf.task_ms", 1e3 * ratio(exec_s, tasks), "ms");
  out.add("process.cpu_s_per_unit", ratio(plain.cpu, static_cast<double>(plain.completed)), "s");
  out.add("obs.trace_overhead_frac", 1 - ratio(traced.rate(), plain.rate()), "fraction");
  return out;
}

}  // namespace perfbench
