// Turbine: rules, the data API, interlanguage leaf functions, and the
// engine/worker loops, end to end through the runtime.
#include <gtest/gtest.h>

#include "runtime/runner.h"
#include "turbine/app.h"

namespace ilps::turbine {
namespace {

runtime::Config small() {
  runtime::Config cfg;
  cfg.engines = 1;
  cfg.workers = 2;
  cfg.servers = 1;
  return cfg;
}

TEST(Runtime, EmptyProgramTerminates) {
  auto result = runtime::run_program(small(), "");
  EXPECT_TRUE(result.lines.empty());
  EXPECT_EQ(result.unfired_rules, 0u);
}

TEST(Runtime, ConfigValidation) {
  runtime::Config bad = small();
  bad.workers = 0;
  EXPECT_THROW(runtime::run_program(bad, ""), Error);
  bad = small();
  bad.engines = 0;
  EXPECT_THROW(runtime::run_program(bad, ""), Error);
}

TEST(Runtime, PutsIsCollected) {
  auto result = runtime::run_program(small(), "puts hello; puts world");
  ASSERT_EQ(result.lines.size(), 2u);
  EXPECT_EQ(result.lines[0], "hello");
  EXPECT_EQ(result.lines[1], "world");
}

TEST(Runtime, PrintfBuiltin) {
  auto result = runtime::run_program(small(), "printf {x=%d y=%s} 42 ok");
  ASSERT_EQ(result.lines.size(), 1u);
  EXPECT_EQ(result.lines[0], "x=42 y=ok");
}

TEST(TurbineData, StoreRetrieveOnEngine) {
  auto result = runtime::run_program(small(), R"(
    set x [turbine::allocate integer]
    turbine::store_integer $x 42
    puts "value: [turbine::retrieve_integer $x]"
    puts "type: [turbine::typeof $x]"
    puts "exists: [turbine::exists $x]"
  )");
  EXPECT_TRUE(result.contains("value: 42"));
  EXPECT_TRUE(result.contains("type: integer"));
  EXPECT_TRUE(result.contains("exists: 1"));
}

TEST(TurbineData, TypedStores) {
  auto result = runtime::run_program(small(), R"(
    set f [turbine::allocate float]
    turbine::store_float $f 2.5
    set s [turbine::allocate string]
    turbine::store_string $s {hello world}
    puts "[turbine::retrieve_float $f]|[turbine::retrieve_string $s]"
  )");
  EXPECT_TRUE(result.contains("2.5|hello world"));
}

TEST(TurbineData, BlobRoundTrip) {
  auto result = runtime::run_program(small(), R"(
    set b [turbine::allocate blob]
    set h [blobutils::from_floats {1.5 2.5}]
    turbine::store_blob $b $h
    set h2 [turbine::retrieve_blob $b]
    puts "floats: [blobutils::to_floats $h2]"
  )");
  EXPECT_TRUE(result.contains("floats: 1.5 2.5"));
}

TEST(TurbineData, Containers) {
  auto result = runtime::run_program(small(), R"(
    set c [turbine::allocate container]
    turbine::container_insert $c k1 v1
    turbine::container_insert $c k2 v2
    puts "size: [turbine::container_size $c]"
    puts "k2: [turbine::container_lookup $c k2]"
    puts "all: [turbine::enumerate $c]"
    turbine::write_incr $c -1
  )");
  EXPECT_TRUE(result.contains("size: 2"));
  EXPECT_TRUE(result.contains("k2: v2"));
  EXPECT_TRUE(result.contains("all: k1 v1 k2 v2"));
}

TEST(TurbineData, StoreErrors) {
  EXPECT_THROW(runtime::run_program(small(), R"(
    set x [turbine::allocate integer]
    turbine::store_integer $x 1
    turbine::store_integer $x 2
  )"),
               Error);
  EXPECT_THROW(runtime::run_program(small(), R"(
    set x [turbine::allocate integer]
    turbine::store_integer $x notanumber
  )"),
               Error);
}

// ---- rules ----

TEST(Rules, FireWhenInputsClose) {
  auto result = runtime::run_program(small(), R"(
    proc add_leaf {x y} {
      set vx [turbine::retrieve_integer $x]
      set vy [turbine::retrieve_integer $y]
      puts "sum: [expr $vx + $vy]"
    }
    proc swift:main {} {
      set x [turbine::allocate integer]
      set y [turbine::allocate integer]
      turbine::rule [list $x $y] "add_leaf $x $y" type WORK
      turbine::store_integer $x 20
      turbine::store_integer $y 22
    }
  )");
  EXPECT_TRUE(result.contains("sum: 42"));
  EXPECT_EQ(result.unfired_rules, 0u);
  EXPECT_EQ(result.engine_stats.rules_fired, 1u);
}

TEST(Rules, AlreadyClosedFiresImmediately) {
  auto result = runtime::run_program(small(), R"(
    proc show {x} { puts "got [turbine::retrieve_integer $x]" }
    proc swift:main {} {
      set x [turbine::allocate integer]
      turbine::store_integer $x 7
      turbine::rule [list $x] "show $x" type WORK
    }
  )");
  EXPECT_TRUE(result.contains("got 7"));
  EXPECT_EQ(result.engine_stats.rules_fired_immediately, 1u);
}

TEST(Rules, DataflowChain) {
  // f stores, g consumes f's output: a two-stage pipeline through workers.
  auto result = runtime::run_program(small(), R"(
    proc f_leaf {out in} {
      turbine::store_integer $out [expr [turbine::retrieve_integer $in] * 2]
    }
    proc g_leaf {out in} {
      turbine::store_integer $out [expr [turbine::retrieve_integer $in] + 1]
    }
    proc done_leaf {in} { puts "result: [turbine::retrieve_integer $in]" }
    proc swift:main {} {
      set a [turbine::allocate integer]
      set b [turbine::allocate integer]
      set c [turbine::allocate integer]
      turbine::rule [list $a] "f_leaf $b $a" type WORK
      turbine::rule [list $b] "g_leaf $c $b" type WORK
      turbine::rule [list $c] "done_leaf $c" type WORK
      turbine::store_integer $a 10
    }
  )");
  EXPECT_TRUE(result.contains("result: 21"));
  EXPECT_EQ(result.unfired_rules, 0u);
}

TEST(Rules, LocalRulesRunOnEngine) {
  auto result = runtime::run_program(small(), R"(
    set v [turbine::allocate void]
    turbine::rule [list $v] {puts "local fired on rank [turbine::rank]"} type LOCAL
    turbine::store_void $v
  )");
  EXPECT_TRUE(result.contains("local fired on rank 0"));
}

TEST(Rules, UnfiredRulesReported) {
  runtime::Config cfg = small();
  cfg.deadlock_error = false;  // this test inspects the counters directly
  auto result = runtime::run_program(cfg, R"(
    set never [turbine::allocate integer]
    turbine::rule [list $never] {puts should_not_run} type WORK
  )");
  EXPECT_EQ(result.unfired_rules, 1u);
  EXPECT_FALSE(result.contains("should_not_run"));
  ASSERT_EQ(result.stuck.size(), 1u);
  ASSERT_EQ(result.stuck[0].waiting.size(), 1u);
  EXPECT_TRUE(result.stuck[0].waiting[0].name.empty());  // no symbol registered
  EXPECT_GE(result.server_stats.stuck_datums, 1u);
}

TEST(Rules, UnfiredRulesThrowDeadlockError) {
  EXPECT_THROW(runtime::run_program(small(), R"(
    set never [turbine::allocate integer]
    turbine::declare_name $never never 7
    turbine::rule [list $never] {puts should_not_run} type WORK
  )"),
               DeadlockError);
}

// Subscribing is write-behind: a rule on a datum nobody created does not
// fail inside turbine::rule but at the engine's next sync point, here the
// retrieve's round trip, and the DataError fails the batch run.
TEST(Rules, RuleOnMissingDatumFailsAtNextSyncPoint) {
  runtime::Config cfg = small();
  std::vector<std::string> marks;  // appended by the engine thread only
  cfg.setup_interp = [&marks](tcl::Interp& in) {
    in.register_command("mark", [&marks](tcl::Interp&, std::vector<std::string>& a) {
      marks.push_back(a.at(1));
      return std::string();
    });
  };
  try {
    runtime::run_program(cfg, R"(
      turbine::rule [list 987654321] {puts never} type WORK
      mark registered
      set x [turbine::allocate integer]
      turbine::store_integer $x 1
      mark "read [turbine::retrieve_integer $x]"
    )");
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("subscribe: datum <987654321> does not exist"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(marks, std::vector<std::string>{"registered"});
}

// A rule on a created datum that is never stored is still the stuck-
// future deadlock, reported with the variable's name and line.
TEST(Rules, StuckFutureDeadlockNamesTheVariable) {
  try {
    runtime::run_program(small(), R"(
      set never [turbine::allocate integer]
      turbine::declare_name $never never 7
      turbine::rule [list $never] {puts should_not_run} type WORK
    )");
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("\"never\" (line 7"), std::string::npos)
        << e.what();
  }
}

TEST(Rules, RejectedOnWorkers) {
  EXPECT_THROW(runtime::run_program(small(), R"(
    turbine::put_work {turbine::rule [list 1] {puts x} type WORK}
  )"),
               Error);
}

TEST(Rules, FanOutManyTasks) {
  runtime::Config cfg = small();
  cfg.workers = 4;
  auto result = runtime::run_program(cfg, R"(
    proc work_leaf {i out} {
      turbine::store_integer $out [expr $i * $i]
    }
    proc report {out i} {
      puts "sq($i)=[turbine::retrieve_integer $out]"
    }
    proc swift:main {} {
      for {set i 0} {$i < 10} {incr i} {
        set out [turbine::allocate integer]
        turbine::put_work "work_leaf $i $out"
        turbine::rule [list $out] "report $out $i" type CONTROL
      }
    }
  )");
  EXPECT_EQ(result.lines.size(), 10u);
  EXPECT_TRUE(result.contains("sq(7)=49"));
  EXPECT_GE(result.worker_stats.tasks, 10u);
}

// ---- interlanguage leaf functions ----

TEST(Interlanguage, PythonLeaf) {
  auto result = runtime::run_program(small(), R"(
    puts "py: [python {x = 6 * 7} {x}]"
  )");
  EXPECT_TRUE(result.contains("py: 42"));
}

TEST(Interlanguage, PythonOnWorker) {
  auto result = runtime::run_program(small(), R"(
    turbine::put_work {puts "worker py: [python {import math} {math.floor(math.pi)}]"}
  )");
  EXPECT_TRUE(result.contains("worker py: 3"));
  EXPECT_EQ(result.worker_stats.python_evals, 1u);
}

TEST(Interlanguage, RLeaf) {
  auto result = runtime::run_program(small(), R"(
    puts "r: [R {v <- c(1, 2, 3, 4)} {mean(v)}]"
  )");
  EXPECT_TRUE(result.contains("r: 2.5"));
}

TEST(Interlanguage, LowercaseRAlias) {
  auto result = runtime::run_program(small(), R"(
    puts "r: [r {x <- 5} {x * 3}]"
  )");
  EXPECT_TRUE(result.contains("r: 15"));
}

TEST(Interlanguage, PythonErrorsSurface) {
  EXPECT_THROW(runtime::run_program(small(), "python {1/0}"), Error);
  EXPECT_THROW(runtime::run_program(small(), "R {stop(\"r failed\")}"), Error);
}

TEST(Interlanguage, PythonStatePersistsWithRetain) {
  auto result = runtime::run_program(small(), R"(
    turbine::put_work {
      python {counter = 10}
      puts "first: [python {counter += 1} {counter}]"
      puts "second: [python {counter += 1} {counter}]"
    }
  )");
  EXPECT_TRUE(result.contains("first: 11"));
  EXPECT_TRUE(result.contains("second: 12"));
}

TEST(Interlanguage, ReinitializePolicyClearsBetweenTasks) {
  runtime::Config cfg = small();
  cfg.workers = 1;  // both tasks land on the same worker
  cfg.policy = InterpPolicy::kReinitialize;
  // With reinitialize, the second task must not see `state`; probe by
  // catching the NameError through Tcl.
  auto result2 = runtime::run_program(cfg, R"(
    turbine::put_work {python {state = 1}}
    turbine::put_work {
      if {[catch {python {} {state}} msg]} {
        puts "clean slate"
      } else {
        puts "leaked: $msg"
      }
    }
  )");
  EXPECT_GE(result2.worker_stats.interpreter_resets, 1u);
  // Both orders of task delivery leave the interpreter reset before the
  // probe task runs (1 worker, FIFO among equal priorities).
  EXPECT_TRUE(result2.contains("clean slate"));
}

TEST(Interlanguage, RetainPolicyKeepsState) {
  runtime::Config cfg = small();
  cfg.workers = 1;
  cfg.policy = InterpPolicy::kRetain;
  auto result = runtime::run_program(cfg, R"(
    turbine::put_work {python {state = 41}}
    turbine::put_work {puts "kept: [python {state += 1} {state}]"}
  )");
  EXPECT_TRUE(result.contains("kept: 42"));
  EXPECT_EQ(result.worker_stats.interpreter_resets, 0u);
}

// ---- app execution ----

TEST(App, RunRealCommand) {
  AppResult r = run_app({"/bin/echo", "hello", "app"}, /*restricted_os=*/false);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "hello app\n");
}

TEST(App, NonzeroExit) {
  AppResult r = run_app({"/bin/sh", "-c", "exit 3"}, false);
  EXPECT_EQ(r.exit_code, 3);
}

TEST(App, MissingProgram) {
  AppResult r = run_app({"/no/such/program"}, false);
  EXPECT_EQ(r.exit_code, 127);
}

TEST(App, RestrictedOsRefuses) {
  EXPECT_THROW(run_app({"/bin/echo", "x"}, /*restricted_os=*/true), OsError);
}

TEST(App, ThroughTcl) {
  auto result = runtime::run_program(small(), R"(
    puts "app says: [turbine::exec_app /bin/echo shell_result]"
  )");
  EXPECT_TRUE(result.contains("app says: shell_result"));
  EXPECT_EQ(result.worker_stats.app_execs, 1u);
}

TEST(App, RestrictedOsModeThroughRuntime) {
  runtime::Config cfg = small();
  cfg.restricted_os = true;
  // On a BG/Q-like system the app route fails...
  EXPECT_THROW(runtime::run_program(cfg, "turbine::exec_app /bin/echo x"), Error);
  // ...but the embedded interpreter route still works (the paper's point).
  auto result = runtime::run_program(cfg, R"(puts "py: [python {} {1 + 1}]")");
  EXPECT_TRUE(result.contains("py: 2"));
}

// ---- multiple engines ----

TEST(MultiEngine, ControlTasksDistribute) {
  runtime::Config cfg;
  cfg.engines = 2;
  cfg.workers = 3;
  cfg.servers = 2;
  auto result = runtime::run_program(cfg, R"(
    for {set i 0} {$i < 8} {incr i} {
      turbine::put_control "puts \"ctl $i on engine \[turbine::rank\]\""
    }
  )");
  EXPECT_EQ(result.lines.size(), 8u);
  EXPECT_EQ(result.unfired_rules, 0u);
}

TEST(MultiEngine, RulesOnShippedFragments) {
  runtime::Config cfg;
  cfg.engines = 2;
  cfg.workers = 2;
  cfg.servers = 1;
  // A shipped control fragment creates rules on whichever engine runs it.
  auto result = runtime::run_program(cfg, R"(
    proc stage {i} {
      set x [turbine::allocate integer]
      turbine::rule [list $x] "puts \"fired $i\"" type LOCAL
      turbine::store_integer $x $i
    }
    proc swift:main {} {
      for {set i 0} {$i < 6} {incr i} {
        turbine::put_control "stage $i"
      }
    }
  )");
  EXPECT_EQ(result.lines.size(), 6u);
  EXPECT_TRUE(result.contains("fired 3"));
  EXPECT_EQ(result.unfired_rules, 0u);
}

TEST(TurbineData, TargetedWorkToSpecificWorker) {
  runtime::Config cfg = small();
  cfg.workers = 3;
  auto result = runtime::run_program(cfg, R"(
    turbine::put_work_to 1 {puts "ran on [turbine::rank]"}
    turbine::put_work_to 3 {puts "ran on [turbine::rank]"}
  )");
  ASSERT_EQ(result.lines.size(), 2u);
  EXPECT_TRUE(result.contains("ran on 1"));
  EXPECT_TRUE(result.contains("ran on 3"));
}

TEST(TurbineData, ReadRefcountGarbageCollects) {
  auto result = runtime::run_program(small(), R"(
    set x [turbine::allocate integer]
    turbine::store_integer $x 5
    puts "exists before: [turbine::exists $x]"
    turbine::read_incr $x -1
    puts "exists after: [turbine::exists $x]"
  )");
  EXPECT_TRUE(result.contains("exists before: 1"));
  EXPECT_TRUE(result.contains("exists after: 0"));
}

TEST(Stats, TrafficAndCounters) {
  auto result = runtime::run_program(small(), R"(
    set x [turbine::allocate integer]
    turbine::store_integer $x 1
    puts [turbine::retrieve_integer $x]
  )");
  EXPECT_GT(result.traffic.messages, 0u);
  EXPECT_GT(result.server_stats.data_ops, 0u);
  EXPECT_GT(result.elapsed_seconds, 0.0);
}

}  // namespace
}  // namespace ilps::turbine
