// The batch workloads: fig1, dispatch and interlang. Each runs rounds of
// runtime::run_program on 1 engine, 2 workers and 1 server; a round is one
// program run (a fresh world), its outputs are checked unit by unit, and
// the per-round wall times give the rate and latency figures.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/error.h"
#include "common/sync.h"
#include "common/timer.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "python/interp.h"
#include "rlang/interp.h"
#include "runtime/runner.h"
#include "swift/compiler.h"

namespace perfbench {
namespace {

using ilps::runtime::RunResult;

// What one batch workload runs, and how it checks a round's outputs.
struct BatchWorkload {
  std::string swift_source;  // compiled during set-up; empty for Turbine code
  std::string program;       // the Turbine program every round runs
  ilps::runtime::Config cfg;
  uint64_t units = 0;  // units per round
  // Number of the round's units whose output is missing or wrong.
  std::function<uint64_t(const RunResult&)> check;
  // The leaf code the workers run in the embedded interpreters (interlang),
  // replayed on the bench thread for python.eval_ms / r.eval_ms.
  std::vector<std::string> py_code;
  std::vector<std::string> r_code;
};

ilps::runtime::Config world_config() {
  ilps::runtime::Config cfg;
  cfg.engines = 1;
  cfg.workers = 2;
  cfg.servers = 1;
  return cfg;
}

// Units whose expected line is absent from `lines` (each expected line
// matches one actual line), plus actual lines nobody expected.
uint64_t line_mismatches(std::vector<std::string> expected, std::vector<std::string> lines) {
  std::sort(expected.begin(), expected.end());
  std::sort(lines.begin(), lines.end());
  std::vector<std::string> missing, extra;
  std::set_difference(expected.begin(), expected.end(), lines.begin(), lines.end(),
                      std::back_inserter(missing));
  std::set_difference(lines.begin(), lines.end(), expected.begin(), expected.end(),
                      std::back_inserter(extra));
  return std::max(missing.size(), extra.size());
}

// Replaces every `key` in `text` with `value`.
void substitute(std::string& text, const std::string& key, int64_t value) {
  for (size_t at; (at = text.find(key)) != std::string::npos;) {
    text.replace(at, key.size(), std::to_string(value));
  }
}

// fig1: the paper's Fig. 1 loop, `t = f(i); if (g(t) == 0) printf`, over
// a seed-chosen index range. Every iteration is one pipeline; the check is
// the exact set of g(t) == 0 lines.
BatchWorkload make_fig1(uint64_t seed) {
  constexpr int64_t kIterations = 128;
  Rng rng(seed);
  const int64_t base = rng.range(0, 1000000);
  BatchWorkload w;
  w.swift_source = R"SWIFT(
    (int o) f (int i) [ "set <<o>> [ expr <<i>> * <<i>> ]" ];
    (int o) g (int t) [ "set <<o>> [ expr <<t>> % 3 ]" ];
    foreach i in [FIRST:LAST] {
      int t = f(i);
      int gt = g(t);
      if (gt == 0) { printf("g(%d) == 0", t); }
    }
  )SWIFT";
  substitute(w.swift_source, "FIRST", base);
  substitute(w.swift_source, "LAST", base + kIterations - 1);
  w.cfg = world_config();
  w.units = kIterations;
  std::vector<std::string> expected;
  for (int64_t i = base; i < base + kIterations; ++i) {
    if ((i * i) % 3 == 0) expected.push_back("g(" + std::to_string(i * i) + ") == 0");
  }
  w.check = [expected](const RunResult& r) { return line_mismatches(expected, r.lines); };
  return w;
}

// Leaf tally for dispatch: the bench-registered bench::leaf command adds
// its argument on whichever worker runs it. Read after the world joins.
struct LeafTally {
  ilps::RelaxedCounter count;
  ilps::RelaxedCounter sum;
};

// dispatch: no-op leaf tasks put straight from Turbine code. Each leaf
// carries a seed-derived argument; the check is the exact leaf count and
// argument sum.
BatchWorkload make_dispatch(uint64_t seed) {
  constexpr uint64_t kTasks = 16384;
  Rng rng(seed);
  const uint64_t mul = static_cast<uint64_t>(rng.range(3, 1000)) * 2 + 1;
  const uint64_t add = static_cast<uint64_t>(rng.range(0, 255));
  BatchWorkload w;
  w.program = "for {set i 0} {$i < " + std::to_string(kTasks) + "} {incr i} {\n" +
              "  turbine::put_work \"bench::leaf [expr {($i * " + std::to_string(mul) + " + " +
              std::to_string(add) + ") % 256}]\"\n}\n";
  w.cfg = world_config();
  w.units = kTasks;
  auto tally = std::make_shared<LeafTally>();
  w.cfg.setup_interp = [tally](ilps::tcl::Interp& in) {
    in.register_command("bench::leaf", [tally](ilps::tcl::Interp&, std::vector<std::string>& a) {
      tally->count.add();
      tally->sum.add(std::stoull(a.at(1)));
      return std::string();
    });
  };
  uint64_t expected_sum = 0;
  for (uint64_t i = 0; i < kTasks; ++i) expected_sum += (i * mul + add) % 256;
  w.check = [tally, expected_sum](const RunResult&) {
    // The world has joined, so every leaf's add is visible here.
    const uint64_t count = tally->count.load();
    const uint64_t sum = tally->sum.load();
    tally->count.store(0);
    tally->sum.store(0);
    uint64_t failed = count > kTasks ? count - kTasks : kTasks - count;
    if (failed == 0 && sum != expected_sum) failed = 1;
    return failed;
  };
  return w;
}

// interlang: per iteration one python() leaf and one r() leaf, the R code
// built from the Python result through a future. The leaves are loops
// sized so the workers, not the engine, bound the rate. The seed permutes
// which iteration gets which loop length, so every seed does the same
// total leaf work. The check compares both results with values computed
// here.
BatchWorkload make_interlang(uint64_t seed) {
  constexpr int64_t kIterations = 64;              // a power of two: see below
  constexpr int64_t kPyBase = 3000, kPyStep = 50;  // python loop length
  constexpr int64_t kRBase = 750, kRStep = 12;     // R loop length
  Rng rng(seed);
  const int64_t py_mul = rng.range(0, 63) * 2 + 1, py_add = rng.range(0, kIterations - 1);
  const int64_t r_mul = rng.range(0, 63) * 2 + 1, r_add = rng.range(0, kIterations - 1);
  BatchWorkload w;
  w.swift_source = R"SWIFT(
    foreach i in [0:LAST] {
      string NL = "\n";
      int n = (i * PYMUL + PYADD) % ITERS * PYSTEP + PYBASE;
      int m = (i * RMUL + RADD) % ITERS * RSTEP + RBASE;
      string code = strcat("s = 0", NL, "k = 0", NL, "while k < ", tostring(n), ":", NL,
                           "    s += k * k % 1000", NL, "    k += 1");
      string py = python(code, "s");
      string rcode = strcat("s <- 0", NL, "for (k in 1:", tostring(m), ") s <- s + k %% 7", NL,
                            "x <- s + (", py, " %% 1000) * 2 + ", tostring(i));
      string res = r(rcode, "x");
      printf("%d %s %s", i, py, res);
    }
  )SWIFT";
  substitute(w.swift_source, "LAST", kIterations - 1);
  substitute(w.swift_source, "ITERS", kIterations);
  substitute(w.swift_source, "PYMUL", py_mul);
  substitute(w.swift_source, "PYADD", py_add);
  substitute(w.swift_source, "PYSTEP", kPyStep);
  substitute(w.swift_source, "PYBASE", kPyBase);
  substitute(w.swift_source, "RMUL", r_mul);
  substitute(w.swift_source, "RADD", r_add);
  substitute(w.swift_source, "RSTEP", kRStep);
  substitute(w.swift_source, "RBASE", kRBase);
  w.cfg = world_config();
  w.units = kIterations;
  std::vector<std::string> expected;
  for (int64_t i = 0; i < kIterations; ++i) {
    // An odd multiplier permutes the slots 0 .. kIterations-1.
    const int64_t n = (i * py_mul + py_add) % kIterations * kPyStep + kPyBase;
    const int64_t m = (i * r_mul + r_add) % kIterations * kRStep + kRBase;
    int64_t py = 0, s = 0;
    for (int64_t k = 0; k < n; ++k) py += k * k % 1000;
    for (int64_t k = 1; k <= m; ++k) s += k % 7;
    const int64_t r = s + (py % 1000) * 2 + i;
    expected.push_back(std::to_string(i) + " " + std::to_string(py) + " " + std::to_string(r));
    w.py_code.push_back("s = 0\nk = 0\nwhile k < " + std::to_string(n) +
                        ":\n    s += k * k % 1000\n    k += 1");
    w.r_code.push_back("s <- 0\nfor (k in 1:" + std::to_string(m) + ") s <- s + k %% 7\n" +
                       "x <- s + (" + std::to_string(py) + " %% 1000) * 2 + " + std::to_string(i));
  }
  w.check = [expected](const RunResult& r) { return line_mismatches(expected, r.lines); };
  return w;
}

BatchWorkload make_workload(const Options& opt) {
  if (opt.workload == "fig1") return make_fig1(opt.seed);
  if (opt.workload == "dispatch") return make_dispatch(opt.seed);
  return make_interlang(opt.seed);
}

// Layer counters summed over a phase's rounds.
struct Counters {
  double rounds = 0;
  double units = 0;
  double rules_created = 0, rules_fired = 0, fired_immediately = 0;
  double data_ops = 0, matches = 0;
  double cache_hits = 0, cache_misses = 0;
  double pipeline_ops = 0, pipeline_flushes = 0, pipeline_stalls = 0;
  double messages = 0, bytes = 0, wakeups = 0, wakeups_suppressed = 0;
  double pool_hits = 0, pool_misses = 0;
  double tcl_hits = 0, tcl_misses = 0, tcl_bailouts = 0, tcl_units_cached = 0;

  void add(const RunResult& r, uint64_t round_units) {
    rounds += 1;
    units += static_cast<double>(round_units);
    rules_created += static_cast<double>(r.engine_stats.rules_created);
    rules_fired += static_cast<double>(r.engine_stats.rules_fired);
    fired_immediately += static_cast<double>(r.engine_stats.rules_fired_immediately);
    data_ops += static_cast<double>(r.server_stats.data_ops);
    matches += static_cast<double>(r.server_stats.matches);
    cache_hits += static_cast<double>(r.cache_stats.hits);
    cache_misses += static_cast<double>(r.cache_stats.misses);
    pipeline_ops += static_cast<double>(r.pipeline_stats.ops);
    pipeline_flushes += static_cast<double>(r.pipeline_stats.flushes);
    pipeline_stalls += static_cast<double>(r.pipeline_stats.stalls);
    messages += static_cast<double>(r.traffic.messages);
    bytes += static_cast<double>(r.traffic.bytes);
    wakeups += static_cast<double>(r.traffic.wakeups);
    wakeups_suppressed += static_cast<double>(r.traffic.wakeups_suppressed);
    pool_hits += static_cast<double>(r.traffic.pool_hits);
    pool_misses += static_cast<double>(r.traffic.pool_misses);
    tcl_hits += static_cast<double>(r.tcl_stats.hits);
    tcl_misses += static_cast<double>(r.tcl_stats.misses);
    tcl_bailouts += static_cast<double>(r.tcl_stats.bailouts);
    tcl_units_cached += static_cast<double>(r.tcl_units_cached);
  }
};

// Rounds of one phase: wall time and end time of each round, plus the
// layer counters.
struct Phase {
  std::vector<double> round_seconds;
  std::vector<double> round_end;  // seconds into the phase
  Counters counters;
  double budget = 0;
  double elapsed = 0;
  double cpu = 0;

  void add(double seconds, double end, const RunResult& r, uint64_t units) {
    round_seconds.push_back(seconds);
    round_end.push_back(end);
    counters.add(r, units);
  }
  // Per slice: units over the summed wall time of the slice's rounds.
  double units_per_s(uint64_t units) const {
    return median_over_slices(slices_of(round_end, budget), [&](const std::vector<size_t>& s) {
      double busy = 0;
      for (size_t i : s) busy += round_seconds[i];
      return static_cast<double>(units * s.size()) / busy;
    });
  }
  // Per slice: the p-th percentile of the round times, in ms.
  double round_ms(double p) const {
    return median_over_slices(slices_of(round_end, budget), [&](const std::vector<size_t>& s) {
      std::vector<double> ms;
      for (size_t i : s) ms.push_back(round_seconds[i] * 1e3);
      return percentile(ms, p);
    });
  }
};

// Runs one round and checks it; a round that throws fails all its units.
// Returns the round's result (empty on failure) through `out`.
bool run_round(const BatchWorkload& w, Outcome& outcome, double* seconds, RunResult* out) {
  outcome.attempted += w.units;
  ilps::Timer timer;
  try {
    *out = ilps::runtime::run_program(w.cfg, w.program);
  } catch (const ilps::Error& e) {
    *seconds = timer.elapsed();
    std::fprintf(stderr, "perfbench: round failed: %s\n", e.what());
    outcome.fail(w.units);
    return false;
  }
  *seconds = timer.elapsed();
  outcome.fail(std::min(w.check(*out), w.units));
  return true;
}

// Untraced rounds for `budget` seconds.
Phase run_phase(const BatchWorkload& w, double budget, Outcome& outcome) {
  Phase p;
  p.budget = budget;
  const double cpu0 = cpu_seconds();
  ilps::Timer timer;
  while (timer.elapsed() < budget) {
    double seconds = 0;
    RunResult r;
    if (run_round(w, outcome, &seconds, &r)) p.add(seconds, timer.elapsed(), r, w.units);
  }
  p.elapsed = timer.elapsed();
  p.cpu = cpu_seconds() - cpu0;
  return p;
}

// Set-up: swift::compile of the workload plus a cold world start and
// teardown (an empty program), repeated; medians are reported.
struct Setup {
  double total_s = 0;
  double compile_ms = 0;
  double world_ms = 0;
};

Setup measure_setup(BatchWorkload& w) {
  constexpr int kReps = 101;
  std::vector<double> total, compile, world;
  for (int rep = 0; rep < kReps; ++rep) {
    ilps::Timer t_compile;
    if (!w.swift_source.empty()) w.program = ilps::swift::compile(w.swift_source);
    const double c = t_compile.elapsed();
    ilps::Timer t_world;
    ilps::runtime::run_program(w.cfg, "");
    const double s = t_world.elapsed();
    total.push_back(c + s);
    compile.push_back(c * 1e3);
    world.push_back(s * 1e3);
  }
  return {median(total), median(compile), median(world)};
}

// ---- traced phase ----

struct TraceTotals {
  std::map<std::string, double> role_busy;  // busy fractions summed over ranks and rounds
  double traced_rounds = 0;
  double worker_task_s = 0, worker_tasks = 0;
  double get_wait_s = 0, get_waits = 0;
  std::vector<EventCheck> checks;  // summed over rounds
};

// Sums of durations of `kind` spans on ranks whose role is `role`.
void span_durations(const std::vector<ilps::obs::Event>& events,
                    const std::vector<std::string>& roles, ilps::obs::EventKind kind,
                    const std::string& role, double* total, double* count) {
  std::vector<double> open(roles.size(), -1);
  for (const ilps::obs::Event& e : events) {
    if (e.kind != kind || e.rank < 0 || static_cast<size_t>(e.rank) >= roles.size()) continue;
    const auto r = static_cast<size_t>(e.rank);
    if (roles[r] != role) continue;
    if (e.ph == ilps::obs::Phase::kBegin) {
      open[r] = e.t;
    } else if (e.ph == ilps::obs::Phase::kEnd && open[r] >= 0) {
      *total += e.t - open[r];
      *count += 1;
      open[r] = -1;
    }
  }
}

std::vector<EventCheck> event_checks(const RunResult& r) {
  uint64_t rules = 0, tasks = 0, sends = 0;
  for (const ilps::obs::Event& e : r.trace) {
    if (e.kind == ilps::obs::EventKind::kRuleCreated) ++rules;
    if (e.kind == ilps::obs::EventKind::kTaskRun && e.ph == ilps::obs::Phase::kBegin) ++tasks;
    if (e.kind == ilps::obs::EventKind::kMpiSend) ++sends;
  }
  return {{"rule.created", rules, r.engine_stats.rules_created},
          {"task.run", tasks, r.worker_stats.tasks},
          {"mpi.send", sends, r.traffic.messages}};
}

// Traced rounds for `budget` seconds. A round whose trace lost events
// (counts below the untraced counters) is rerun with a ring four times
// larger (ILPS_TRACE_BUF) and not counted.
Phase run_traced_phase(const BatchWorkload& w, double budget, Outcome& outcome,
                       TraceTotals& totals) {
  constexpr size_t kMaxBuffer = size_t{1} << 22;
  size_t buffer = ilps::obs::default_capacity();
  const std::vector<std::string> roles = ilps::runtime::role_names(w.cfg);
  ilps::obs::set_trace_enabled(true);
  Phase p;
  p.budget = budget;
  ilps::Timer timer;
  while (timer.elapsed() < budget) {
    setenv("ILPS_TRACE_BUF", std::to_string(buffer).c_str(), 1);
    double seconds = 0;
    RunResult r;
    if (!run_round(w, outcome, &seconds, &r)) continue;
    std::vector<EventCheck> checks = event_checks(r);
    const bool lost = std::any_of(checks.begin(), checks.end(),
                                  [](const EventCheck& c) { return !c.ok(); });
    if (lost && buffer < kMaxBuffer) {
      buffer *= 4;
      std::printf("trace lost events; rerunning the round with ILPS_TRACE_BUF=%zu\n", buffer);
      continue;
    }
    p.add(seconds, timer.elapsed(), r, w.units);
    totals.traced_rounds += 1;
    if (totals.checks.empty()) {
      totals.checks = checks;
    } else {
      for (size_t i = 0; i < checks.size(); ++i) {
        totals.checks[i].traced += checks[i].traced;
        totals.checks[i].counter += checks[i].counter;
      }
    }
    for (const ilps::obs::RankUsage& u : ilps::obs::utilization(r.trace, roles)) {
      totals.role_busy[u.role] += u.busy_fraction;
    }
    span_durations(r.trace, roles, ilps::obs::EventKind::kTaskRun, "worker", &totals.worker_task_s,
                   &totals.worker_tasks);
    span_durations(r.trace, roles, ilps::obs::EventKind::kAdlbGetWait, "worker",
                   &totals.get_wait_s, &totals.get_waits);
  }
  p.elapsed = timer.elapsed();
  ilps::obs::set_trace_enabled(false);
  unsetenv("ILPS_TRACE_BUF");
  return p;
}

// Median single-thread eval time of each leaf snippet, in ms.
template <typename Eval>
double leaf_eval_ms(const std::vector<std::string>& snippets, Eval eval) {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    for (const std::string& code : snippets) {
      ilps::Timer t;
      eval(code);
      ms.push_back(t.elapsed() * 1e3);
    }
  }
  return median(ms);
}

}  // namespace

Outcome run_batch_workload(const Options& opt) {
  BatchWorkload w = make_workload(opt);
  Outcome out;
  const Setup setup = measure_setup(w);
  {
    // Warm-up round: page in code and let the allocator settle. Checked,
    // but not timed.
    double seconds = 0;
    RunResult r;
    run_round(w, out, &seconds, &r);
  }

  if (!opt.trace) {
    const Phase p = run_phase(w, opt.seconds, out);
    std::printf("%s: %zu rounds of %llu units in %.2f s\n", opt.workload.c_str(),
                p.round_seconds.size(), static_cast<unsigned long long>(w.units), p.elapsed);
    out.add("units_per_s", p.units_per_s(w.units), "1/s");
    out.add("latency_p50_ms", p.round_ms(50), "ms");
    out.add("latency_p99_ms", p.round_ms(99), "ms");
    out.add("setup_s", setup.total_s, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  const Phase plain = run_phase(w, opt.seconds / 2, out);
  TraceTotals tt;
  const Phase traced = run_traced_phase(w, opt.seconds / 2, out, tt);
  const double untraced_rate = plain.units_per_s(w.units);
  const double traced_rate = traced.units_per_s(w.units);

  const std::vector<std::string> rank_roles = ilps::runtime::role_names(w.cfg);
  std::vector<RoleShare> roles;
  for (const char* role : {"engine", "worker", "server"}) {
    const int ranks = static_cast<int>(std::count(rank_roles.begin(), rank_roles.end(), role));
    roles.push_back({role, ranks, ratio(tt.role_busy[role], ranks * tt.traced_rounds)});
  }
  const double engine_busy = roles[0].busy;
  const double worker_busy = roles[1].busy;
  const double server_busy = roles[2].busy;
  print_layer_table(roles, tt.checks, untraced_rate, traced_rate);

  const Counters& c = plain.counters;
  const double units = c.units;
  double py_ms = 0, r_ms = 0;
  if (!w.py_code.empty()) {
    ilps::py::Interpreter py;
    py_ms = leaf_eval_ms(w.py_code, [&](const std::string& code) { py.eval(code, "s"); });
    ilps::r::Interpreter rl;
    r_ms = leaf_eval_ms(w.r_code, [&](const std::string& code) { rl.eval(code, "x"); });
  }
  out.add("swift.compile_ms", setup.compile_ms, "ms");
  out.add("runtime.world_ms", setup.world_ms, "ms");
  out.add("serve.enter_ms", 0, "ms");
  out.add("serve.submit_us", 0, "us");
  out.add("serve.queue_ms", 0, "ms");
  out.add("serve.exec_ms", 0, "ms");
  out.add("serve.program_cache_hits", 0, "count");
  out.add("turbine.rules_per_unit", ratio(c.rules_created, units), "count");
  out.add("turbine.fired_immediately_frac", ratio(c.fired_immediately, c.rules_fired), "fraction");
  out.add("engine.busy_frac", engine_busy, "fraction");
  out.add("engine.blocked_frac", 1 - engine_busy, "fraction");
  out.add("tcl.compile_hit_frac", ratio(c.tcl_hits, c.tcl_hits + c.tcl_misses), "fraction");
  out.add("tcl.bailouts", ratio(c.tcl_bailouts, c.rounds), "count");
  out.add("tcl.units_cached", ratio(c.tcl_units_cached, c.rounds), "count");
  out.add("adlb.data_ops_per_unit", ratio(c.data_ops, units), "count");
  out.add("adlb.cache_hit_frac", ratio(c.cache_hits, c.cache_hits + c.cache_misses), "fraction");
  out.add("adlb.pipeline_ops_per_flush", ratio(c.pipeline_ops, c.pipeline_flushes), "count");
  out.add("adlb.pipeline_stalls", ratio(c.pipeline_stalls, c.rounds), "count");
  out.add("server.busy_frac", server_busy, "fraction");
  out.add("adlb.matches_per_unit", ratio(c.matches, units), "count");
  out.add("adlb.get_wait_ms", 1e3 * ratio(tt.get_wait_s, tt.get_waits), "ms");
  out.add("mpi.messages_per_unit", ratio(c.messages, units), "count");
  out.add("mpi.bytes_per_unit", ratio(c.bytes, units), "B");
  out.add("mpi.wakeup_frac", ratio(c.wakeups, c.wakeups + c.wakeups_suppressed), "fraction");
  out.add("mpi.pool_miss_frac", ratio(c.pool_misses, c.pool_hits + c.pool_misses), "fraction");
  out.add("python.eval_ms", py_ms, "ms");
  out.add("r.eval_ms", r_ms, "ms");
  out.add("worker.busy_frac", worker_busy, "fraction");
  out.add("leaf.task_ms", 1e3 * ratio(tt.worker_task_s, tt.worker_tasks), "ms");
  out.add("process.cpu_s_per_unit", ratio(plain.cpu, units), "s");
  out.add("obs.trace_overhead_frac", 1 - ratio(traced_rate, untraced_rate), "fraction");
  return out;
}

}  // namespace perfbench
