// src/serve: the resident service runtime. Covers the enter/submit/
// drain/shutdown lifecycle, concurrent request isolation, admission
// control (reject and shed-oldest), typed per-request failures that must
// not poison the resident world, and the memory bound across many
// sequential requests (namespace GC returns the store to baseline).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serve.h"
#include "swift/compiler.h"
#include "tcl/interp.h"

namespace ilps::serve {
namespace {

ServeConfig small_config(int engines = 1, int workers = 2, int servers = 1) {
  ServeConfig cfg;
  cfg.runtime.engines = engines;
  cfg.runtime.workers = workers;
  cfg.runtime.servers = servers;
  return cfg;
}

// Enables tracing + metrics for one test body and restores the
// env-derived defaults, so test order never leaks state. Must be alive
// before the Service is constructed (the hub resolves its metric handles
// in its constructor).
struct ObsOn {
  bool prev_trace = obs::trace_enabled();
  bool prev_metrics = obs::metrics_enabled();
  ObsOn() {
    obs::set_trace_enabled(true);
    obs::set_metrics_enabled(true);
  }
  ~ObsOn() {
    obs::set_trace_enabled(prev_trace);
    obs::set_metrics_enabled(prev_metrics);
  }
};

size_t count_kind(const std::vector<obs::Event>& trace, obs::EventKind k) {
  return static_cast<size_t>(std::count_if(
      trace.begin(), trace.end(), [&](const obs::Event& e) { return e.kind == k; }));
}

TEST(Serve, SingleRequestLifecycle) {
  Service service(small_config());
  service.enter();
  RequestHandle h = service.submit(R"(printf("v=%d", 41 + 1);)");
  const RequestResult& r = h.get();
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.lines.size(), 1u);
  EXPECT_EQ(r.lines[0], "v=42");
  EXPECT_GE(r.latency_seconds, 0.0);
  service.drain();
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.inflight, 0u);
}

TEST(Serve, SubmitBeforeEnterRunsAfter) {
  Service service(small_config());
  RequestHandle h = service.submit(R"(printf("early=%d", 7);)");
  EXPECT_FALSE(h.done());
  service.enter();
  EXPECT_EQ(h.get().lines.at(0), "early=7");
  service.shutdown();
}

TEST(Serve, ConcurrentSubmitsCompleteIndependently) {
  Service service(small_config(/*engines=*/2, /*workers=*/3));
  service.enter();
  constexpr int kRequests = 24;
  std::vector<RequestHandle> handles;
  handles.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    handles.push_back(
        service.submit("printf(\"v=%d\", " + std::to_string(i) + " + 100);"));
  }
  for (int i = 0; i < kRequests; ++i) {
    const RequestResult& r = handles[i].get();
    // Each request sees exactly its own output: per-request lines never
    // interleave even though the requests ran concurrently on two
    // engines.
    ASSERT_EQ(r.lines.size(), 1u) << "request " << i;
    EXPECT_EQ(r.lines[0], "v=" + std::to_string(i + 100));
  }
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.admitted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(s.completed, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(s.failed, 0u);
}

TEST(Serve, DrainWaitsForAllInflight) {
  Service service(small_config(/*engines=*/2, /*workers=*/2));
  service.enter();
  std::vector<RequestHandle> handles;
  for (int i = 0; i < 12; ++i) {
    handles.push_back(service.submit(R"(
      foreach i in [0:4] {
        trace(i);
      }
    )"));
  }
  service.drain();
  // drain() returning means every admitted request has completed.
  for (const RequestHandle& h : handles) EXPECT_TRUE(h.done());
  EXPECT_EQ(service.stats().inflight, 0u);
  service.shutdown();
}

TEST(Serve, RejectPolicyReturnsOverloadedDeterministically) {
  ServeConfig cfg = small_config();
  cfg.max_inflight = 2;
  cfg.admission = AdmissionPolicy::kReject;
  Service service(cfg);
  // Submitted before enter(), both requests stay queued: the overload
  // state is exact, not timing-dependent.
  RequestHandle a = service.submit(R"(printf("a=%d", 1);)");
  RequestHandle b = service.submit(R"(printf("b=%d", 2);)");
  try {
    service.submit(R"(printf("c=%d", 3);)");
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.kind(), ServeError::kOverloaded);
  }
  EXPECT_EQ(service.stats().rejected, 1u);
  service.enter();
  EXPECT_EQ(a.get().lines.at(0), "a=1");
  EXPECT_EQ(b.get().lines.at(0), "b=2");
  service.shutdown();
}

TEST(Serve, ShedOldestEvictsQueuedRequest) {
  ServeConfig cfg = small_config();
  cfg.max_inflight = 2;
  cfg.admission = AdmissionPolicy::kShedOldest;
  Service service(cfg);
  RequestHandle a = service.submit(R"(printf("a=%d", 1);)");
  RequestHandle b = service.submit(R"(printf("b=%d", 2);)");
  RequestHandle c = service.submit(R"(printf("c=%d", 3);)");  // sheds a
  const RequestResult& ra = a.wait();
  EXPECT_TRUE(ra.shed);
  EXPECT_FALSE(ra.ok());
  EXPECT_THROW(a.get(), ServeError);
  service.enter();
  EXPECT_EQ(b.get().lines.at(0), "b=2");
  EXPECT_EQ(c.get().lines.at(0), "c=3");
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.admitted, 3u);
}

TEST(Serve, SubmitAfterShutdownThrows) {
  Service service(small_config());
  service.enter();
  service.shutdown();
  try {
    service.submit(R"(printf("x=%d", 1);)");
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.kind(), ServeError::kShutdown);
  }
}

TEST(Serve, CompileErrorThrowsBeforeAdmission) {
  Service service(small_config());
  EXPECT_THROW(service.submit("int x"), Error);  // missing semicolon
  EXPECT_EQ(service.stats().admitted, 0u);
}

TEST(Serve, DeadlockFailsRequestNotRuntime) {
  Service service(small_config());
  service.enter();
  // x is assigned only on a branch the runtime never takes (statically
  // fine, dynamically stuck): the request must fail with a deadlock
  // report while the resident world keeps serving.
  RequestHandle bad = service.submit(R"(
    int c = toint("0");
    int x;
    if (c == 1) {
      x = 1;
    }
    int y = x + 1;
    printf("y=%d", y);
  )");
  const RequestResult& rb = bad.wait();
  EXPECT_FALSE(rb.ok());
  EXPECT_EQ(rb.kind, turbine::RequestErrorKind::kDeadlock);
  EXPECT_GE(rb.unfired_rules, 1u);
  EXPECT_NE(rb.error.find("\"x\""), std::string::npos) << rb.error;
  try {
    bad.get();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
  // The runtime is not poisoned: later requests run to completion.
  for (int i = 0; i < 4; ++i) {
    RequestHandle ok = service.submit("printf(\"ok=%d\", " + std::to_string(i) + ");");
    EXPECT_EQ(ok.get().lines.at(0), "ok=" + std::to_string(i));
  }
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 5u);
}

// Every request datum op is write-behind. An engine rule that stores a
// future another rule on the same engine waits on mails a close
// notification to its own rank; the kAckBatch reports it, and the owner
// must count it as outstanding until it arrives, or the request looks
// finished (here: deadlocked) while the notification is still queued.
// Each request is a leaf output followed by a chain of operator
// statements: every link is a LOCAL rule closing the next link's input.
TEST(Serve, SelfNotificationsAcrossManyConcurrentRequests) {
  ServeConfig cfg = small_config(/*engines=*/2, /*workers=*/2);
  constexpr int kRequests = 1000;
  cfg.max_inflight = kRequests;
  Service service(cfg);
  service.enter();
  const auto program = [](int n) {
    return "(int o) lid (int i) [ \"set <<o>> <<i>>\" ];\n"
           "int a = lid(" + std::to_string(n) + ");\n"
           "int b = a + 1;\n"
           "int c = b * 2;\n"
           "int d = c - 3;\n"
           "printf(\"r=%d\", d);\n";
  };
  std::vector<RequestHandle> handles;
  handles.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) handles.push_back(service.submit(program(i % 8)));
  for (int i = 0; i < kRequests; ++i) {
    const RequestResult& r = handles[i].wait();
    ASSERT_NE(r.kind, turbine::RequestErrorKind::kDeadlock) << "request " << i << ": " << r.error;
    ASSERT_TRUE(r.ok()) << "request " << i << ": " << r.error;
    ASSERT_EQ(r.lines.size(), 1u) << "request " << i;
    EXPECT_EQ(r.lines[0], "r=" + std::to_string(2 * (i % 8) - 1)) << "request " << i;
  }
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.completed, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(s.failed, 0u);
}

// A write-behind store that fails at run time (x is assigned on a branch
// that does run) fails its own request as a DataError, whether the store
// ran in an engine rule body (x = 2) or in a worker leaf (x = lid(2)); the
// requests submitted beside them succeed, and the resident world keeps
// serving.
TEST(Serve, RuntimeDataErrorFailsOnlyItsRequest) {
  Service service(small_config(/*engines=*/2, /*workers=*/2));
  service.enter();
  const auto bad_source = [](const std::string& rhs) {
    return R"(
    (int o) lid (int i) [ "set <<o>> <<i>>" ];
    int c = lid(1);
    int x = 1;
    if (c == 1) {
      x = )" + rhs + R"(;
    }
    printf("x=%d", x);
  )";
  };
  std::vector<RequestHandle> good;
  for (int i = 0; i < 4; ++i) {
    good.push_back(service.submit("printf(\"g=%d\", " + std::to_string(i) + ");"));
  }
  std::vector<RequestHandle> bad;
  bad.push_back(service.submit(bad_source("2")));
  bad.push_back(service.submit(bad_source("lid(2)")));
  for (int i = 4; i < 8; ++i) {
    good.push_back(service.submit("printf(\"g=%d\", " + std::to_string(i) + ");"));
  }
  for (RequestHandle& h : bad) {
    const RequestResult& rb = h.wait();
    EXPECT_FALSE(rb.ok());
    EXPECT_EQ(rb.kind, turbine::RequestErrorKind::kData) << rb.error;
    EXPECT_NE(rb.error.find("double assignment"), std::string::npos) << rb.error;
    EXPECT_THROW(h.get(), DataError);
  }
  // The second store ran on a worker, inside its leaf task.
  EXPECT_NE(bad[1].wait().error.find("failed on rank"), std::string::npos) << bad[1].wait().error;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(good[i].get().lines.at(0), "g=" + std::to_string(i));
  }
  // The world is still up: a request submitted after the failures runs.
  EXPECT_EQ(service.submit(R"(printf("after=%d", 1);)").get().lines.at(0), "after=1");
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.completed, 11u);
}

// Subscribing is write-behind, so a rule on a datum nobody created fails
// at the request's sync point, not inside turbine::rule: only that request
// fails, as a DataError, and the requests beside it and after it run. The
// faulty rule comes from an extension command (a stand-in for a lowering
// bug) that takes over `trace` on every rank.
TEST(Serve, RuleOnMissingDatumFailsOnlyItsRequest) {
  ServeConfig cfg = small_config();
  cfg.runtime.setup_interp = [](tcl::Interp& in) {
    in.register_command("trace", [](tcl::Interp& interp, std::vector<std::string>&) {
      interp.eval("turbine::rule [list 987654321] {puts never} type LOCAL");
      return std::string();
    });
  };
  Service service(cfg);
  service.enter();
  std::vector<RequestHandle> good;
  for (int i = 0; i < 3; ++i) {
    good.push_back(service.submit("printf(\"g=%d\", " + std::to_string(i) + ");"));
  }
  RequestHandle bad = service.submit(R"(trace("ghost");)");
  for (int i = 3; i < 6; ++i) {
    good.push_back(service.submit("printf(\"g=%d\", " + std::to_string(i) + ");"));
  }
  const RequestResult& rb = bad.wait();
  EXPECT_FALSE(rb.ok());
  EXPECT_EQ(rb.kind, turbine::RequestErrorKind::kData) << rb.error;
  EXPECT_NE(rb.error.find("subscribe: datum <987654321> does not exist"), std::string::npos)
      << rb.error;
  EXPECT_THROW(bad.get(), DataError);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(good[i].get().lines.at(0), "g=" + std::to_string(i));
  }
  EXPECT_EQ(service.submit(R"(printf("after=%d", 1);)").get().lines.at(0), "after=1");
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 8u);
}

TEST(Serve, ProgramCacheCompilesOnce) {
  Service service(small_config());
  service.enter();
  const std::string source = R"(printf("same=%d", 5);)";
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(service.submit(source).get().lines.at(0), "same=5");
  }
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.programs_compiled, 1u);
  EXPECT_EQ(s.program_cache_hits, 7u);
}

TEST(Serve, MemoryBoundedAcrossManySequentialRequests) {
  Service service(small_config());
  service.enter();
  const std::string source = R"(printf("m=%d", 1 + 2);)";
  // Warm up: compile the program and store its resident copy, then take
  // the datum-count baseline the namespace GC must return the store to.
  EXPECT_EQ(service.submit(source).get().lines.at(0), "m=3");
  service.drain();
  const uint64_t baseline = service.datum_count();
  constexpr int kRequests = 10000;
  for (int i = 0; i < kRequests; ++i) {
    const RequestResult& r = service.submit(source).wait();
    ASSERT_TRUE(r.ok()) << "request " << i << ": " << r.error;
    ASSERT_EQ(r.leftover_data, 0u) << "request " << i;
  }
  service.drain();
  // Every per-request datum was swept: resident memory is bounded by the
  // program cache, not by request count.
  EXPECT_EQ(service.datum_count(), baseline);
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.completed, static_cast<uint64_t>(kRequests) + 1);
  EXPECT_EQ(s.failed, 0u);
}

TEST(Serve, UnitCacheBoundedAcrossDistinctPrograms) {
  // 10k requests, every one a distinct program (so every action text is
  // new to the per-rank compiled-unit cache). The cache must stay within
  // its LRU capacity on every rank, keep serving hits for the texts that
  // do repeat (proc bodies, the repeated warm-up program), and namespace
  // teardown must not strand units or datums.
  if (!tcl::Interp().compile_enabled()) GTEST_SKIP() << "ILPS_TCL_COMPILE=0";
  ::setenv("ILPS_TCL_UNIT_CACHE", "64", 1);
  struct RestoreEnv {
    ~RestoreEnv() { ::unsetenv("ILPS_TCL_UNIT_CACHE"); }
  } restore;
  ServeConfig cfg = small_config();
  Service service(cfg);
  service.enter();
  // Repeats first: identical action texts re-fire on the same rank, so
  // the unit cache must serve hits.
  const std::string repeated = R"(printf("r=%d", 2 + 2);)";
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(service.submit(repeated).get().lines.at(0), "r=4");
  }
  service.drain();
  const uint64_t baseline = service.datum_count();
  constexpr int kRequests = 10000;
  for (int i = 0; i < kRequests; ++i) {
    std::string source = "printf(\"d=%d\", " + std::to_string(i) + " + 1);";
    const RequestResult& r = service.submit(source).wait();
    ASSERT_TRUE(r.ok()) << "request " << i << ": " << r.error;
    ASSERT_EQ(r.leftover_data, 0u) << "request " << i;
  }
  service.drain();
  // Namespaces swept: exactly the one resident program-cache copy per
  // distinct source remains — no per-request datum survives.
  EXPECT_EQ(service.datum_count(), baseline + kRequests);
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.failed, 0u);
  // Bounded: live units never exceed capacity on any rank (engine +
  // workers can each hold a cache).
  const uint64_t ranks = static_cast<uint64_t>(cfg.runtime.engines + cfg.runtime.workers);
  EXPECT_LE(s.tcl_units_cached, ranks * 64u);
  EXPECT_GT(s.tcl_units_cached, 0u);
  EXPECT_GT(s.tcl_compile_misses, static_cast<uint64_t>(kRequests));  // distinct programs compiled
  EXPECT_GT(s.tcl_compile_hits, 0u);  // repeated texts served from cache
}

// Regression for the ProgramCache compile-under-lock fix: racing submits
// of the same source must compile it exactly once (losers adopt the
// winner and count as hits), and distinct sources must never share a
// namespace. Compiling outside the cache lock is what lets the distinct
// submits proceed concurrently at all; the counts below are deterministic
// whichever thread wins each race.
TEST(Serve, ConcurrentSubmitsCompileEachProgramOnce) {
  ServeConfig cfg = small_config(/*engines=*/2, /*workers=*/2);
  cfg.max_inflight = 64;
  Service service(cfg);
  service.enter();
  constexpr int kThreads = 8;
  const std::string shared = R"(printf("same=%d", 7);)";
  std::vector<RequestHandle> handles(kThreads * 2);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        handles[static_cast<size_t>(t) * 2] = service.submit(shared);
        handles[static_cast<size_t>(t) * 2 + 1] =
            service.submit("printf(\"d=%d\", " + std::to_string(t) + ");");
      });
    }
    for (auto& th : threads) th.join();
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    const RequestResult r = handles[i].wait();
    EXPECT_TRUE(r.ok()) << "request " << i << ": " << r.error;
    ASSERT_EQ(r.lines.size(), 1u);
  }
  service.shutdown();
  const ServiceStats s = service.stats();
  // One compile for the shared source + one per distinct source; every
  // repeat submit of the shared source counts as a hit, including any
  // duplicate-compile race losers.
  EXPECT_EQ(s.programs_compiled, 1u + kThreads);
  EXPECT_EQ(s.program_cache_hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(Serve, ManyConcurrentMixedPrograms) {
  ServeConfig cfg = small_config(/*engines=*/2, /*workers=*/2);
  cfg.max_inflight = 64;
  Service service(cfg);
  service.enter();
  std::vector<RequestHandle> handles;
  for (int i = 0; i < 48; ++i) {
    switch (i % 3) {
      case 0:
        handles.push_back(
            service.submit("printf(\"p=%d\", " + std::to_string(i) + ");"));
        break;
      case 1:
        handles.push_back(service.submit(R"(
          foreach i in [0:3] {
            trace(i);
          }
        )"));
        break;
      default:
        handles.push_back(service.submit(R"(printf("s=%s", "hi");)"));
        break;
    }
  }
  int failures = 0;
  for (RequestHandle& h : handles) {
    if (!h.wait().ok()) ++failures;
  }
  EXPECT_EQ(failures, 0);
  service.shutdown();
}

// ---- live telemetry plane ----

TEST(ServeTelemetry, TracedRequestCarriesStitchedCrossRankTrace) {
  ObsOn on;
  ServeConfig cfg = small_config();
  cfg.trace_sample_every = 1;  // capture every request
  Service service(cfg);
  service.enter();
  // A Tcl leaf whose output future feeds printf: one worker task, then
  // one rule fire on the owner engine.
  const RequestResult r = service
                              .submit(R"((int o) lid (int i) [ "set <<o>> <<i>>" ];
printf("t=%d", lid(6 * 7));)")
                              .get();
  service.shutdown();
  ASSERT_EQ(r.lines.at(0), "t=42");

  // The stitched cross-rank timeline: submit (user thread, rank -1) ->
  // owner engine begins -> rule fires / puts -> task runs -> completion.
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(count_kind(r.trace, obs::EventKind::kReqSubmit), 1u);
  EXPECT_EQ(count_kind(r.trace, obs::EventKind::kReqBegin), 1u);
  EXPECT_EQ(count_kind(r.trace, obs::EventKind::kReqDone), 1u);
  EXPECT_EQ(r.trace.front().kind, obs::EventKind::kReqSubmit);
  EXPECT_EQ(r.trace.front().rank, -1);
  EXPECT_EQ(r.trace.back().kind, obs::EventKind::kReqDone);
  for (const obs::Event& e : r.trace) EXPECT_EQ(e.req, r.id);
  for (size_t i = 1; i < r.trace.size(); ++i) EXPECT_GE(r.trace[i].t, r.trace[i - 1].t);
  // Events from more than one rank: the engine's req.begin plus wherever
  // the work ran, stitched with the off-rank submit.
  std::vector<int32_t> ranks;
  for (const obs::Event& e : r.trace) ranks.push_back(e.rank);
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  EXPECT_GE(ranks.size(), 2u);

  // The critical-path digest agrees with the timeline.
  EXPECT_EQ(r.trace_summary.events, r.trace.size());
  EXPECT_GE(r.trace_summary.rule_fires, 1u);
  EXPECT_GE(r.trace_summary.tasks, 1u);
  EXPECT_GT(r.trace_summary.exec_seconds, 0.0);
  EXPECT_GE(r.trace_summary.queue_seconds, 0.0);
  EXPECT_GT(r.trace_summary.span_seconds, 0.0);
  EXPECT_LE(r.trace_summary.queue_seconds, r.trace_summary.span_seconds);
  EXPECT_EQ(service.stats().traced_requests, 1u);
}

TEST(ServeTelemetry, AllLiteralRequestFiresNoRule) {
  // The value pass compiles an all-literal program to no rule at all, and
  // the request's entry runs as itself, with no wrapper rule around it.
  ObsOn on;
  ServeConfig cfg = small_config();
  cfg.trace_sample_every = 1;
  Service service(cfg);
  service.enter();
  const RequestResult r = service.submit(R"(printf("t=%d", 6 * 7);)").get();
  service.shutdown();
  ASSERT_EQ(r.lines.at(0), "t=42");
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace_summary.rule_fires, 0u);
  EXPECT_EQ(obs::metrics().counter("engine.rules_fired").value(), 0u);
}

TEST(ServeTelemetry, TraceSamplingCapturesEveryNth) {
  ObsOn on;
  ServeConfig cfg = small_config();
  cfg.trace_sample_every = 2;  // even request ids only
  Service service(cfg);
  service.enter();
  size_t traced = 0;
  for (int i = 0; i < 4; ++i) {
    const RequestResult r = service.submit(R"(printf("n=%d", 1);)").get();
    if (!r.trace.empty()) ++traced;
    EXPECT_EQ(r.trace.empty(), r.id % 2 != 0) << "request " << r.id;
  }
  service.shutdown();
  EXPECT_EQ(traced, 2u);
  EXPECT_EQ(service.stats().traced_requests, 2u);
}

TEST(ServeTelemetry, UntracedRunsCarryNoTrace) {
  // Tracing off (the default): no capture registration, empty traces, and
  // the per-request cost is the untouched fast path.
  ServeConfig cfg = small_config();
  cfg.trace_sample_every = 1;
  Service service(cfg);
  service.enter();
  const RequestResult r = service.submit(R"(printf("q=%d", 2);)").get();
  service.shutdown();
  EXPECT_TRUE(r.trace.empty());
  EXPECT_EQ(r.trace_summary.events, 0u);
  EXPECT_EQ(service.stats().traced_requests, 0u);
}

TEST(ServeTelemetry, SlowRequestExemplarsAreKept) {
  ObsOn on;
  ServeConfig cfg = small_config();
  cfg.slow_request_seconds = 1e-9;  // everything is "slow"
  cfg.trace_sample_every = 1;
  Service service(cfg);
  service.enter();
  for (int i = 0; i < 3; ++i) service.submit(R"(printf("s=%d", 1);)").get();
  service.shutdown();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.slow_requests, 3u);
  std::vector<RequestResult> ex = service.slow_exemplars();
  ASSERT_EQ(ex.size(), 3u);
  // Oldest-first, full results including the captured trace.
  EXPECT_LT(ex.front().id, ex.back().id);
  for (const RequestResult& r : ex) {
    EXPECT_GE(r.latency_seconds, 1e-9);
    EXPECT_FALSE(r.trace.empty());
  }
}

TEST(ServeTelemetry, StatusJsonReportsLiveWindowAndRanks) {
  ObsOn on;
  obs::metrics().clear();  // a clean registry isolates this test's gauges
  Service service(small_config());
  service.enter();
  for (int i = 0; i < 4; ++i) service.submit(R"(printf("w=%d", 1);)").get();
  const std::string json = service.status_json();
  service.shutdown();
  // Shape: admission counters, the rolling-window percentiles for
  // serve.request_seconds, and per-rank busy-seconds with roles.
  EXPECT_NE(json.find("\"uptime_s\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"admitted\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"inflight\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"window\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ranks\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"role\":\"engine\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"role\":\"worker\""), std::string::npos) << json;
  // The window saw the 4 completions.
  const size_t wpos = json.find("\"window\":{");
  ASSERT_NE(wpos, std::string::npos);
  EXPECT_NE(json.find("\"count\":4", wpos), std::string::npos) << json;
}

TEST(ServeTelemetry, FlusherStreamsSnapshotsAndRequestTraces) {
  ObsOn on;
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ilps_serve_telemetry_test";
  fs::remove_all(dir);
  ServeConfig cfg = small_config();
  cfg.telemetry.dir = dir.string();
  cfg.telemetry.interval_ms = 10;
  cfg.trace_sample_every = 1;
  Service service(cfg);
  service.enter();
  for (int i = 0; i < 6; ++i) service.submit(R"(printf("f=%d", 1);)").get();
  // Give the background flusher at least one interval while live.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  service.shutdown();  // final flush drains everything queued

  auto read_lines = [](const fs::path& p) {
    std::ifstream in(p);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    return lines;
  };
  std::vector<std::string> snaps = read_lines(dir / "telemetry.jsonl");
  ASSERT_FALSE(snaps.empty());
  for (const std::string& line : snaps) {
    EXPECT_NE(line.find("\"type\":\"metrics\""), std::string::npos);
  }
  // The final snapshot embeds the service status with the rolling window.
  EXPECT_NE(snaps.back().find("\"serve.request_seconds\""), std::string::npos);
  EXPECT_NE(snaps.back().find("\"service\":{"), std::string::npos);
  EXPECT_NE(snaps.back().find("\"completed\":6"), std::string::npos) << snaps.back();

  std::vector<std::string> reqs = read_lines(dir / "requests.jsonl");
  ASSERT_EQ(reqs.size(), 6u);  // every request sampled and streamed
  for (const std::string& line : reqs) {
    EXPECT_NE(line.find("\"type\":\"request\""), std::string::npos);
    EXPECT_NE(line.find("\"events\":["), std::string::npos);
    EXPECT_NE(line.find("\"name\":\"req.submit\""), std::string::npos);
    EXPECT_NE(line.find("\"name\":\"req.done\""), std::string::npos);
  }
  fs::remove_all(dir);
}

// Batch mode through the shared world body: runtime::run_program keeps the
// legacy semantics (the full existing suite exercises that path — this is
// a direct smoke of the entry point).
TEST(Serve, RunBatchMatchesLegacySemantics) {
  runtime::Config cfg;
  cfg.engines = 1;
  cfg.workers = 2;
  cfg.servers = 1;
  runtime::RunResult r =
      runtime::run_program(cfg, "proc swift:main {} { puts \"batch ok\" }\n");
  EXPECT_TRUE(r.contains("batch ok"));
  EXPECT_EQ(r.unfired_rules, 0u);
}

// Batch and resident runs share one world body, so one program prints the
// same lines and publishes the same counters in both; recovery is part of
// every batch run, so two batch runs take the same client data path.
TEST(WorldParity, BatchFaultTolerantAndResidentRunsAgree) {
  ObsOn on;
  const std::string source = R"((int o) lid (int i) [ "set <<o>> <<i>>" ];
int n = lid(3);
foreach i in [0:n] {
  printf("i=%d sq=%d", i, lid(i * i));
})";
  const std::vector<std::string> expected = {"i=0 sq=0", "i=1 sq=1", "i=2 sq=4", "i=3 sq=9"};
  struct Counters {
    uint64_t rules_created, rules_fired, tasks;
    bool operator==(const Counters&) const = default;
  };
  const auto published = [] {
    obs::Metrics& m = obs::metrics();
    return Counters{m.counter("engine.rules_created").value(),
                    m.counter("engine.rules_fired").value(), m.counter("worker.tasks").value()};
  };
  const auto sorted = [](std::vector<std::string> lines) {
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  const ServeConfig cfg = small_config();

  const runtime::RunResult batch = runtime::run_program(cfg.runtime, swift::compile(source));
  const Counters batch_counters = published();
  EXPECT_EQ(sorted(batch.lines), expected);
  EXPECT_GT(batch_counters.rules_created, 0u);
  EXPECT_GT(batch_counters.tasks, 0u);

  const runtime::RunResult ft = runtime::run_program(cfg.runtime, swift::compile(source));
  EXPECT_EQ(ft.ft.attempts, 1);
  EXPECT_EQ(sorted(ft.lines), expected);
  EXPECT_EQ(published(), batch_counters);
  // A second run takes the first one's client data path: the same ops go
  // through the write-behind pipeline, and reads go through the cache.
  EXPECT_GT(batch.pipeline_stats.ops, 0u);
  EXPECT_EQ(ft.pipeline_stats.ops, batch.pipeline_stats.ops);
  EXPECT_GT(ft.cache_stats.hits + ft.cache_stats.misses, 0u);

  Service service(cfg);
  service.enter();
  const RequestResult r = service.submit(source).get();
  service.shutdown();
  EXPECT_EQ(sorted(r.lines), expected);
  EXPECT_EQ(published(), batch_counters);
  // ... and so does the resident run: request datum ops are write-behind
  // too, so it buffers at least every op the batch run buffers (plus the
  // service's own program-text datum).
  const uint64_t resident_pipeline_ops = obs::metrics().counter("adlb.pipeline_ops").value();
  std::printf("[ parity   ] adlb.pipeline_ops: batch %llu, resident %llu\n",
              static_cast<unsigned long long>(batch.pipeline_stats.ops),
              static_cast<unsigned long long>(resident_pipeline_ops));
  EXPECT_GT(resident_pipeline_ops, 0u);
  EXPECT_GE(resident_pipeline_ops, batch.pipeline_stats.ops);
}

// Recovery does not change what a program means: assigning x the value
// it already holds is a double assignment with or without a fault plan,
// from an engine rule body (x = 7) and from a worker leaf (x = lid(7)).
// The plan kills the only worker as it takes its first unit, after the
// engine's own write of x, so the run restarts and must fail again.
TEST(WorldParity, DoubleAssignmentFailsWithAndWithoutAFaultPlan) {
  const std::string head = R"((int o) lid (int i) [ "set <<o>> <<i>>" ];
int c = lid(1);
int x = 7;
)";
  for (const char* second : {"if (c == 1) { x = 7; }", "if (c == 1) { x = lid(7); }"}) {
    const std::string program = swift::compile(head + second + "\nprintf(\"x=%d\", x);\n");
    for (const bool planned : {false, true}) {
      runtime::Config cfg;
      cfg.engines = 1;
      cfg.workers = 1;
      cfg.servers = 1;
      if (planned) cfg.fault_plan.kill_rank(/*rank=*/1, /*at_unit=*/1);
      try {
        runtime::run_program(cfg, program);
        ADD_FAILURE() << "expected DataError for `" << second << "`, plan " << planned;
      } catch (const DataError& e) {
        EXPECT_NE(std::string(e.what()).find("double assignment"), std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace ilps::serve
