// Fault-injection and recovery tests: scripted rank kills, hangs, and
// dropped or delayed messages (mpi::FaultPlan) against the ADLB
// retry/heartbeat machinery and checkpoint/restart (src/ckpt). Plans
// name a point by the units of work the victim has taken, so a fault
// lands at the same place in the program in every run.
#include <filesystem>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runner.h"

namespace fs = std::filesystem;
using namespace ilps;

namespace {

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ilps-fault-test-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

// Monte Carlo pi with deterministic per-task pseudo-random points: 200
// leaf tasks each store a hit/miss bit; one engine-local rule prints the
// estimate once every future is closed. All printing happens on the
// engine, so retried leaf tasks cannot duplicate output. The first 10
// tasks per worker are targeted at it round-robin (worker ranks are
// 1..workers), so every worker takes at least 10 units and a fault
// planned for a worker's unit <= 10 always fires; the rest are
// load-balanced.
std::string pi_program(int workers) {
  std::string p = R"(
proc pi_hit {i} {
  set a [expr {($i * 1103515245 + 12345) % 2048}]
  set b [expr {($a * 1103515245 + 12345) % 2048}]
  set x [expr {$a / 2048.0}]
  set y [expr {$b / 2048.0}]
  if {$x * $x + $y * $y <= 1.0} { return 1 }
  return 0
}
proc pi_report {ids n} {
  set hits 0
  foreach x $ids {
    set hits [expr {$hits + [turbine::retrieve_integer $x]}]
  }
  puts "pi-hits $hits of $n"
}
proc swift:main {} {
  set workers WORKERS
  set n 200
  set ids [list]
  for {set i 0} {$i < $n} {incr i} {
    set x [turbine::allocate integer]
    lappend ids $x
    set task "turbine::store_integer $x \[pi_hit $i\]"
    if {$i < 10 * $workers} {
      turbine::put_work_to [expr {1 + $i % $workers}] $task
    } else {
      turbine::put_work $task
    }
  }
  turbine::rule $ids "pi_report [list $ids] $n" type LOCAL
}
)";
  p.replace(p.find("WORKERS"), 7, std::to_string(workers));
  return p;
}

// Two phases of 20 leaf tasks; phase 2 is released only after every
// phase-1 future closed. Each phase declares its rule before putting its
// tasks, so the engine subscribes to every future while it is still open
// and takes exactly 40 close notifications: its unit N is the same
// logical point in every run. An engine killed as it takes its last
// phase-1 notification (unit 20) dies before phase 2 exists, with every
// phase-1 task finished: checkpoints (interval 5) hold most of phase 1 and
// none of phase 2, whatever the timing.
const char* kTwoPhaseProgram = R"(
proc task_val {i} { expr {($i * 37 + 11) % 100} }
proc report {ids} {
  set sum 0
  foreach x $ids {
    set sum [expr {$sum + [turbine::retrieve_integer $x]}]
  }
  puts "sum $sum of [llength $ids]"
}
proc phase2 {ids1} {
  set ids2 [list]
  for {set i 20} {$i < 40} {incr i} {
    lappend ids2 [turbine::allocate integer]
  }
  set all [concat $ids1 $ids2]
  turbine::rule $all "report [list $all]" type LOCAL
  for {set i 20} {$i < 40} {incr i} {
    set x [lindex $ids2 [expr {$i - 20}]]
    turbine::put_work "turbine::store_integer $x \[task_val $i\]"
  }
}
proc swift:main {} {
  set ids1 [list]
  for {set i 0} {$i < 20} {incr i} {
    lappend ids1 [turbine::allocate integer]
  }
  turbine::rule $ids1 "phase2 [list $ids1]" type LOCAL
  for {set i 0} {$i < 20} {incr i} {
    set x [lindex $ids1 $i]
    turbine::put_work "turbine::store_integer $x \[task_val $i\]"
  }
}
)";

// The engine's last phase-1 notification (see kTwoPhaseProgram).
constexpr uint64_t kEngineEndOfPhase1 = 20;

runtime::Config base_config() {
  runtime::Config cfg;
  cfg.engines = 1;
  cfg.workers = 3;
  cfg.servers = 1;
  return cfg;
}

}  // namespace

// ---- baseline: recovery without faults changes nothing ----

TEST(Faults, NoFaultPlanMatchesPlainRun) {
  runtime::Config cfg = base_config();
  const std::string program = pi_program(cfg.workers);
  auto plain = runtime::run_program(cfg, program);
  auto ft = runtime::run_program(cfg, program);
  EXPECT_EQ(ft.output(), plain.output());
  EXPECT_EQ(ft.ft.attempts, 1);
  EXPECT_TRUE(ft.ft.dead_ranks.empty());
  EXPECT_EQ(ft.server_stats.requeues, 0u);
}

// ---- kill one worker mid-run: retry makes the output identical ----

TEST(Faults, KillOneWorkerMidRunCompletesIdentically) {
  runtime::Config cfg = base_config();
  const std::string program = pi_program(cfg.workers);
  auto baseline = runtime::run_program(cfg, program);
  ASSERT_EQ(baseline.lines.size(), 1u);

  // Worker ranks are 1..3. Rank 2 dies holding its 10th unit — mid-run
  // of its ~67-task share, and always reached (pi_program).
  cfg.fault_plan.kill_rank(/*rank=*/2, /*at_unit=*/10);
  cfg.max_task_retries = 2;
  auto result = runtime::run_program(cfg, program);

  EXPECT_EQ(result.output(), baseline.output());
  EXPECT_EQ(result.ft.attempts, 1);  // recovered in place, no restart
  ASSERT_EQ(result.ft.dead_ranks.size(), 1u);
  EXPECT_EQ(result.ft.dead_ranks[0], 2);
  EXPECT_GE(result.server_stats.requeues, 1u);
}

// ---- engine death: restart from checkpoint replays only unfinished ----

TEST(Faults, EngineRestartFromCheckpointSkipsFinishedTasks) {
  TempDir dir("engine-restart");
  runtime::Config cfg = base_config();
  auto baseline = runtime::run_program(cfg, kTwoPhaseProgram);
  ASSERT_EQ(baseline.lines.size(), 1u);

  // The engine dies before releasing phase 2, once every phase-1 task
  // has finished, so checkpoints at interval 5 hold most of phase 1.
  cfg.fault_plan.kill_rank(/*rank=*/0, kEngineEndOfPhase1);
  cfg.ckpt_interval = 5;
  cfg.ckpt_dir = dir.str();
  auto result = runtime::run_program(cfg, kTwoPhaseProgram);

  EXPECT_EQ(result.output(), baseline.output());
  EXPECT_EQ(result.ft.attempts, 2);  // one restart
  ASSERT_EQ(result.ft.dead_ranks.size(), 1u);
  EXPECT_EQ(result.ft.dead_ranks[0], 0);
  // Only unfinished tasks were replayed: the skips and the attempt-2
  // worker tasks partition the 40 leaf tasks exactly.
  EXPECT_GE(result.server_stats.replay_skips, 5u);
  EXPECT_LT(result.server_stats.replay_skips, 40u);
  EXPECT_EQ(result.worker_stats.tasks, 40u - result.server_stats.replay_skips);
}

// ---- restart attempts must not pollute the metrics registry ----

TEST(Faults, RestartDoesNotAccumulateMetricHistograms) {
  TempDir dir("restart-metrics");
  runtime::Config cfg = base_config();
  cfg.fault_plan.kill_rank(/*rank=*/0, kEngineEndOfPhase1);
  cfg.ckpt_interval = 5;
  cfg.ckpt_dir = dir.str();
  obs::metrics().clear();
  obs::set_metrics_enabled(true);
  auto result = runtime::run_program(cfg, kTwoPhaseProgram);
  obs::set_metrics_enabled(false);
  ASSERT_EQ(result.ft.attempts, 2);
  // The aborted attempt's samples were reset between attempts: the
  // task.seconds histogram holds exactly the final attempt's worker-task
  // timings (one sample per completed leaf task), not the union of both
  // attempts. Counters are published with set() and reflect the final
  // attempt already; only histograms could accumulate.
  const obs::Histogram& h = obs::metrics().histogram("task.seconds");
  EXPECT_EQ(h.count(), result.worker_stats.tasks);
  EXPECT_EQ(obs::metrics().counter("run.attempts").value(), 2u);
}

// ---- retry exhaustion surfaces a clean, attributed error ----

TEST(Faults, RetryExhaustionThrowsTaskError) {
  runtime::Config cfg = base_config();
  cfg.max_task_retries = 1;
  try {
    runtime::run_program(cfg, "turbine::put_work {no_such_command_xyz}");
    FAIL() << "expected TaskError";
  } catch (const TaskError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retries exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("task <"), std::string::npos) << what;
    EXPECT_NE(what.find("rank"), std::string::npos) << what;
  }
}

// In plain (non-fault-tolerant) runs a leaf failure is still typed and
// names the rank and task instead of a bare interpreter string.
TEST(Faults, PlainRunWorkerErrorIsAttributed) {
  runtime::Config cfg = base_config();
  try {
    runtime::run_program(cfg, "turbine::put_work {no_such_command_xyz}");
    FAIL() << "expected TaskError";
  } catch (const TaskError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("failed on rank"), std::string::npos) << what;
    EXPECT_NE(what.find("task <"), std::string::npos) << what;
  }
}

// ---- hung worker: heartbeat timeout, requeue, identical output ----

TEST(Faults, HungWorkerIsDetectedByHeartbeat) {
  runtime::Config cfg = base_config();
  const std::string program = pi_program(cfg.workers);
  auto baseline = runtime::run_program(cfg, program);

  cfg.fault_plan.hang_rank(/*rank=*/3, /*at_unit=*/10);
  cfg.heartbeat_timeout_ms = 150;
  cfg.max_task_retries = 2;
  auto result = runtime::run_program(cfg, program);

  EXPECT_EQ(result.output(), baseline.output());
  EXPECT_EQ(result.ft.attempts, 1);
  EXPECT_GE(result.server_stats.heartbeat_deaths, 1u);
  ASSERT_EQ(result.ft.dead_ranks.size(), 1u);
  EXPECT_EQ(result.ft.dead_ranks[0], 3);
}

// ---- a live worker fenced by the heartbeat does not hang the run ----

// One leaf task busy-waits 400 ms, well past the 150 ms heartbeat, but
// only on rank 1: the server declares that live worker dead and requeues
// its task, which finishes quickly elsewhere. The run then ends while
// rank 1 is still computing; its next request is never answered. The
// fence dooms it, so it dies at drain instead of blocking World::run's
// join. No FaultPlan is involved. The run is bounded here, so a hang
// fails this test instead of timing out the suite.
const char* kSlowOnRankOneProgram = R"(
proc slow_on_rank {rank ms value} {
  if {[turbine::rank] == $rank} {
    set end [expr {[clock milliseconds] + $ms}]
    while {[clock milliseconds] < $end} {}
  }
  return $value
}
proc report {ids} {
  set sum 0
  foreach x $ids {
    set sum [expr {$sum + [turbine::retrieve_integer $x]}]
  }
  puts "sum $sum of [llength $ids]"
}
proc swift:main {} {
  set ids [list]
  for {set i 0} {$i < 12} {incr i} {
    lappend ids [turbine::allocate integer]
  }
  turbine::rule $ids "report [list $ids]" type LOCAL
  turbine::put_work_to 1 "turbine::store_integer [lindex $ids 0] \[slow_on_rank 1 400 7\]"
  for {set i 1} {$i < 12} {incr i} {
    turbine::put_work "turbine::store_integer [lindex $ids $i] $i"
  }
}
)";

TEST(Faults, HeartbeatFencedLiveWorkerDoesNotHangTheRun) {
  runtime::Config cfg = base_config();
  const std::string expected = runtime::run_program(cfg, kSlowOnRankOneProgram).output();
  ASSERT_EQ(expected, "sum 73 of 12\n");

  cfg.heartbeat_timeout_ms = 150;
  std::promise<runtime::RunResult> done;
  std::future<runtime::RunResult> result = done.get_future();
  std::thread runner([&cfg, &done] {
    try {
      done.set_value(runtime::run_program(cfg, kSlowOnRankOneProgram));
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  if (result.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    // The hung world still references this frame: leave the process
    // without unwinding it.
    ADD_FAILURE() << "run_program did not return within 60 s: the fenced worker hangs the join";
    std::fflush(nullptr);
    std::_Exit(1);
  }
  runner.join();
  const runtime::RunResult r = result.get();
  EXPECT_EQ(r.output(), expected);
  EXPECT_EQ(r.ft.attempts, 1);
  EXPECT_GE(r.server_stats.heartbeat_deaths, 1u);
}

// ---- dropped request: the sender is doomed, detected by heartbeat ----

TEST(Faults, DroppedMessageSenderIsRecovered) {
  runtime::Config cfg = base_config();
  const std::string program = pi_program(cfg.workers);
  auto baseline = runtime::run_program(cfg, program);

  // Rank 1's first send after taking its 10th unit ships that task's
  // store; losing it cuts the rank off until the heartbeat requeues the
  // task.
  cfg.fault_plan.drop_message(/*rank=*/1, /*at_unit=*/10);
  cfg.heartbeat_timeout_ms = 150;
  cfg.max_task_retries = 2;
  auto result = runtime::run_program(cfg, program);

  EXPECT_EQ(result.output(), baseline.output());
  EXPECT_GE(result.server_stats.heartbeat_deaths, 1u);
}

// A dropped send need not be a request the sender then waits on: here it
// is a write-behind batch shipped mid-task (the 16th create fills it),
// and the task's next call is a container lookup on the same server. The
// link is cut at the drop, so the sender can never take that lookup's
// reply for the lost batch's ack; it parks, and the heartbeat requeues
// its task.
TEST(Faults, DroppedMidTaskBatchSenderIsRecovered) {
  runtime::Config cfg = base_config();
  const std::string program = R"(
proc task {in out} {
  for {set k 0} {$k < 16} {incr k} { turbine::allocate integer }
  turbine::store_integer $out [expr {[turbine::container_lookup $in k] + 1}]
}
proc report {outs} {
  set sum 0
  foreach x $outs { set sum [expr {$sum + [turbine::retrieve_integer $x]}] }
  puts "sum $sum"
}
proc swift:main {} {
  set in [turbine::allocate container]
  turbine::container_insert $in k 41
  turbine::close $in
  set outs [list]
  for {set i 0} {$i < 30} {incr i} { lappend outs [turbine::allocate integer] }
  turbine::rule $outs "report [list $outs]" type LOCAL
  for {set i 0} {$i < 30} {incr i} {
    set task "task $in [lindex $outs $i]"
    if {$i < 3} { turbine::put_work_to [expr {1 + $i}] $task } else { turbine::put_work $task }
  }
}
)";
  cfg.fault_plan.drop_message(/*rank=*/1, /*at_unit=*/1);
  cfg.heartbeat_timeout_ms = 150;
  auto result = runtime::run_program(cfg, program);

  EXPECT_EQ(result.output(), "sum 1260\n");
  EXPECT_EQ(result.ft.faults_fired, 1);
  EXPECT_GE(result.server_stats.heartbeat_deaths, 1u);
}

// ---- termination token ring still converges with a dead rank ----

TEST(Faults, TokenRingTerminatesWithDeadRank) {
  runtime::Config cfg = base_config();
  cfg.workers = 4;
  cfg.servers = 2;
  const std::string program = pi_program(cfg.workers);
  auto baseline = runtime::run_program(cfg, program);

  // Ranks: engine 0, workers 1..4, servers 5..6. Kill a worker early so
  // the Safra ring must conclude with a permanently silent client.
  cfg.fault_plan.kill_rank(/*rank=*/4, /*at_unit=*/5);
  cfg.max_task_retries = 2;
  auto result = runtime::run_program(cfg, program);

  EXPECT_EQ(result.output(), baseline.output());
  ASSERT_EQ(result.ft.dead_ranks.size(), 1u);
  EXPECT_EQ(result.ft.dead_ranks[0], 4);
}

// ---- fault decisions are visible in the trace ----

namespace {

// Enables tracing for one test body; restores the env default after.
struct TraceOn {
  bool prev = obs::trace_enabled();
  TraceOn() { obs::set_trace_enabled(true); }
  ~TraceOn() { obs::set_trace_enabled(prev); }
};

int64_t count_events(const std::vector<obs::Event>& trace, obs::EventKind k) {
  return std::count_if(trace.begin(), trace.end(),
                       [&](const obs::Event& e) { return e.kind == k; });
}

}  // namespace

TEST(Faults, KilledRankEmitsRankDeadExactlyOnce) {
  TraceOn on;
  runtime::Config cfg = base_config();
  cfg.fault_plan.kill_rank(/*rank=*/2, /*at_unit=*/10);
  cfg.max_task_retries = 2;
  auto result = runtime::run_program(cfg, pi_program(cfg.workers));

  ASSERT_FALSE(result.trace.empty());
  // The dying rank emits rank_dead from its own thread at the moment the
  // injected fault fires — once, no matter how recovery proceeds.
  std::vector<obs::Event> dead;
  for (const auto& e : result.trace) {
    if (e.kind == obs::EventKind::kRankDead) dead.push_back(e);
  }
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].rank, 2);
  EXPECT_EQ(dead[0].a, 2);
  EXPECT_EQ(dead[0].ph, obs::Phase::kInstant);
  // Termination still ran its token ring to a shutdown decision.
  EXPECT_GT(count_events(result.trace, obs::EventKind::kTermToken), 0);
  EXPECT_GE(count_events(result.trace, obs::EventKind::kShutdown), 1);
}

// A hung (not killed) worker is declared dead by the server's heartbeat
// scan, and that decision is an instant naming the silent client.
TEST(Faults, HeartbeatDeathIsTracedForHungWorker) {
  TraceOn on;
  runtime::Config cfg = base_config();
  cfg.fault_plan.hang_rank(/*rank=*/3, /*at_unit=*/10);
  cfg.heartbeat_timeout_ms = 150;
  cfg.max_task_retries = 2;
  auto result = runtime::run_program(cfg, pi_program(cfg.workers));

  ASSERT_GE(result.server_stats.heartbeat_deaths, 1u);
  auto heartbeat = std::find_if(result.trace.begin(), result.trace.end(), [](const obs::Event& e) {
    return e.kind == obs::EventKind::kHeartbeatDeath && e.a == 3;
  });
  ASSERT_NE(heartbeat, result.trace.end());
  // The parked rank is released (and dies) only at drain, so its single
  // rank_dead instant comes after the server's heartbeat declaration.
  auto dead = std::find_if(result.trace.begin(), result.trace.end(), [](const obs::Event& e) {
    return e.kind == obs::EventKind::kRankDead;
  });
  ASSERT_NE(dead, result.trace.end());
  EXPECT_EQ(count_events(result.trace, obs::EventKind::kRankDead), 1);
  EXPECT_EQ(dead->a, 3);
  EXPECT_GE(dead->t, heartbeat->t);
}

TEST(Faults, TraceSurvivesCheckpointRestart) {
  TraceOn on;
  TempDir dir("trace-restart");
  runtime::Config cfg = base_config();
  cfg.fault_plan.kill_rank(/*rank=*/0, kEngineEndOfPhase1);
  cfg.ckpt_interval = 5;
  cfg.ckpt_dir = dir.str();
  auto result = runtime::run_program(cfg, kTwoPhaseProgram);

  EXPECT_EQ(result.ft.attempts, 2);
  // Events from the failed attempt (the engine's death) and the restart
  // (the snapshot being applied) live in one merged, time-ordered trace.
  EXPECT_EQ(count_events(result.trace, obs::EventKind::kRankDead), 1);
  EXPECT_GE(count_events(result.trace, obs::EventKind::kCkptWrite), 1);
  EXPECT_GE(count_events(result.trace, obs::EventKind::kCkptRestore), 1);
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_LE(result.trace[i - 1].t, result.trace[i].t);
  }
}

// ---- deterministic scripted random faults ----

TEST(Faults, RandomKillIsDeterministic) {
  auto a = mpi::FaultPlan::random_kill(1234, 1, 3, 10, 200);
  auto b = mpi::FaultPlan::random_kill(1234, 1, 3, 10, 200);
  ASSERT_EQ(a.actions.size(), 1u);
  EXPECT_EQ(a.actions[0].rank, b.actions[0].rank);
  EXPECT_EQ(a.actions[0].at_unit, b.actions[0].at_unit);
  EXPECT_GE(a.actions[0].rank, 1);
  EXPECT_LE(a.actions[0].rank, 3);
  EXPECT_GE(a.actions[0].at_unit, 10u);
  EXPECT_LE(a.actions[0].at_unit, 200u);
}

// ---- deferred write-behind errors stay attributed to their task ----

// The worker's store is write-behind, so the double assignment is only
// reported when its batch is acked. The worker syncs inside the task, so
// the failure is the task's: retried, then a TaskError naming the task —
// not a bare DataError from the worker's next Get.
TEST(Faults, DeferredStoreErrorFailsItsTask) {
  runtime::Config cfg = base_config();
  const std::string program = R"(
set x [turbine::allocate integer]
turbine::store_integer $x 1
turbine::put_work "turbine::store_integer $x 2"
)";
  try {
    runtime::run_program(cfg, program);
    FAIL() << "expected TaskError";
  } catch (const TaskError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retries exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("task <"), std::string::npos) << what;
    EXPECT_NE(what.find("already closed (double assignment)"), std::string::npos) << what;
  }
}

// ---- refcounts under replay ----

// 48 leaf tasks share four integer datums and one container. Each task
// reads its shared datum, inserts into the container, then gives up its
// read claim (read_incr -1) and its write claim (write_incr -1). The
// engine holds one extra read claim per shared datum, and the report
// rule runs when the container closes, so it is the later reader: it
// finds every shared datum only if no decrement landed twice, and it
// sees all 48 entries only if the container closed once, after the last
// insert. Task 7 fails once after its read_incr (its first attempt
// records that it ran in the `flag` datum): a failed attempt's held
// delta must be dropped, not applied. The first 24 tasks are targeted at
// the three workers round-robin, so each takes at least 8 units in
// batches, and worker rank 2 always dies as it takes its sixth unit,
// partway through a batch.
const char* kSharedRefcountProgram = R"(
proc work {i shared box flag} {
  set v [turbine::retrieve_integer $shared]
  turbine::read_incr $shared -1
  if {$i == 7 && ![turbine::exists $flag]} {
    turbine::create_integer $flag
    turbine::store_integer $flag 1
    turbine::exists $flag
    error "transient failure"
  }
  turbine::container_insert $box $i [expr {$v * $i}]
  turbine::write_incr $box -1
}
proc report {box shared} {
  set sum 0
  foreach {k v} [turbine::enumerate $box] { set sum [expr {$sum + $v}] }
  set vals [list]
  foreach s $shared { lappend vals [turbine::retrieve_integer $s] }
  puts "box [turbine::container_size $box] sum $sum shared $vals"
}
proc swift:main {} {
  set n 48
  set shared [list]
  for {set k 0} {$k < 4} {incr k} {
    set s [turbine::allocate integer]
    turbine::store_integer $s [expr {$k + 1}]
    turbine::read_incr $s [expr {$n / 4}]
    lappend shared $s
  }
  set box [turbine::allocate container]
  turbine::write_incr $box [expr {$n - 1}]
  set flag [turbine::unique]
  turbine::rule [list $box] "report $box [list $shared]" type LOCAL
  for {set i 0} {$i < $n} {incr i} {
    set task "work $i [lindex $shared [expr {$i % 4}]] $box $flag"
    if {$i < 24} { turbine::put_work_to [expr {1 + $i % 3}] $task } else { turbine::put_work $task }
  }
}
)";

TEST(Faults, RefcountsSurviveReplayedUnits) {
  runtime::Config cfg = base_config();
  const runtime::RunResult baseline = runtime::run_program(cfg, kSharedRefcountProgram);
  ASSERT_EQ(baseline.lines.size(), 1u);
  EXPECT_EQ(baseline.lines[0].rfind("box 48 sum ", 0), 0u) << baseline.lines[0];
  EXPECT_NE(baseline.lines[0].find(" shared 1 2 3 4"), std::string::npos) << baseline.lines[0];

  cfg.fault_plan.kill_rank(/*rank=*/2, /*at_unit=*/6);
  const runtime::RunResult result = runtime::run_program(cfg, kSharedRefcountProgram);
  EXPECT_EQ(result.output(), baseline.output());
  EXPECT_EQ(result.ft.attempts, 1);
  EXPECT_EQ(result.ft.faults_fired, 1);
  EXPECT_GE(result.server_stats.requeues, 2u);  // the dead rank's units and task 7
  EXPECT_GE(result.server_stats.task_failures, 1u);
}

// 12 leaf tasks each read four shared datums and give up their read
// claim on each. Task 0 runs on rank 1 and busy-waits 400 ms there, past
// the 150 ms heartbeat: the server fences that live worker off and
// requeues the task, whose rerun elsewhere gives up the claims. The
// fenced attempt then finishes and must not give them up a second time.
// The engine holds one more claim on each shared datum and reads them
// 600 ms after the last task closed, after the fenced attempt's
// decrements would have landed. Task 0 writes five outputs and reads the
// last one back: with several servers some live away from rank 1's home
// server, and the fenced attempt's repeat of a write its rerun already
// made must not fail the run as a double assignment.
const char* kFencedClaimProgram = R"(
proc work {i shared outs} {
  set sum 0
  foreach s $shared { set sum [expr {$sum + [turbine::retrieve_integer $s]}] }
  if {$i == 0 && [turbine::rank] == 1} {
    set end [expr {[clock milliseconds] + 400}]
    while {[clock milliseconds] < $end} {}
  }
  foreach out $outs { turbine::store_integer $out [expr {$sum * $i}] }
  turbine::retrieve_integer [lindex $outs end]
  foreach s $shared { turbine::read_incr $s -1 }
}
proc report {ids shared} {
  set end [expr {[clock milliseconds] + 600}]
  while {[clock milliseconds] < $end} {}
  set sum 0
  foreach x $ids { set sum [expr {$sum + [turbine::retrieve_integer $x]}] }
  set vals [list]
  foreach s $shared { lappend vals [turbine::retrieve_integer $s] }
  puts "sum $sum shared $vals"
}
proc swift:main {} {
  set n 12
  set shared [list]
  for {set k 0} {$k < 4} {incr k} {
    set s [turbine::allocate integer]
    turbine::store_integer $s [expr {$k + 1}]
    turbine::read_incr $s $n
    lappend shared $s
  }
  set ids [list]
  for {set i 0} {$i < $n + 4} {incr i} { lappend ids [turbine::allocate integer] }
  turbine::rule $ids "report [list $ids] [list $shared]" type LOCAL
  turbine::put_work_to 1 "work 0 [list $shared] [list [lrange $ids 0 4]]"
  for {set i 1} {$i < $n} {incr i} {
    turbine::put_work "work $i [list $shared] [lindex $ids [expr {$i + 4}]]"
  }
}
)";

TEST(Faults, FencedWorkerDoesNotGiveUpItsClaimsTwice) {
  for (int servers : {2, 3}) {
    runtime::Config cfg = base_config();
    cfg.servers = servers;
    const std::string expected = runtime::run_program(cfg, kFencedClaimProgram).output();
    ASSERT_EQ(expected, "sum 660 shared 1 2 3 4\n");

    cfg.heartbeat_timeout_ms = 150;
    const runtime::RunResult r = runtime::run_program(cfg, kFencedClaimProgram);
    EXPECT_EQ(r.output(), expected) << servers << " servers";
    EXPECT_EQ(r.ft.attempts, 1) << servers << " servers";
    EXPECT_GE(r.server_stats.heartbeat_deaths, 1u) << servers << " servers";
  }
}

// A leaf task claims a datum for a child it puts (read_incr +1, then a
// targeted put that ships at once), and stays busy 200 ms after the put.
// The child reads the datum and gives up the claim right away. The
// claim must reach the datum's owner before the child's release, or the
// datum is freed while the engine still holds its own claim on it.
const char* kClaimForChildProgram = R"(
proc child {d out} {
  set v [turbine::retrieve_integer $d]
  turbine::read_incr $d -1
  turbine::store_integer $out [expr {$v * 2}]
}
proc parent {d out} {
  turbine::read_incr $d 1
  turbine::put_work_to [expr {[turbine::rank] % 3 + 1}] "child $d $out"
  set end [expr {[clock milliseconds] + 200}]
  while {[clock milliseconds] < $end} {}
}
proc report {d out} {
  puts "out [turbine::retrieve_integer $out] d [turbine::retrieve_integer $d]"
}
proc swift:main {} {
  set d [turbine::allocate integer]
  turbine::store_integer $d 21
  set out [turbine::allocate integer]
  turbine::rule [list $out] "report $d $out" type LOCAL
  turbine::put_work "parent $d $out"
}
)";

TEST(Faults, ClaimForAChildReachesTheOwnerFirst) {
  const runtime::RunResult r = runtime::run_program(base_config(), kClaimForChildProgram);
  EXPECT_EQ(r.output(), "out 42 d 21\n");
}

// Leaf tasks that only print. Each worker takes its eight targeted units
// in batches of up to four, each unit busy for 5 ms so the next batch is
// queued by the time it asks; worker rank 2 dies as it takes its fourth
// unit, after finishing earlier units of the same batch. A finished unit
// that printed is not run again, so no line repeats.
const char* kPrintingLeavesProgram = R"(
proc work {i} {
  set end [expr {[clock milliseconds] + 5}]
  while {[clock milliseconds] < $end} {}
  puts "unit $i"
}
proc swift:main {} {
  for {set i 0} {$i < 48} {incr i} {
    if {$i < 24} { turbine::put_work_to [expr {1 + $i % 3}] "work $i" } else { turbine::put_work "work $i" }
  }
}
)";

TEST(Faults, FinishedPrintingUnitsAreNotRerun) {
  runtime::Config cfg = base_config();
  std::vector<std::string> expected = runtime::run_program(cfg, kPrintingLeavesProgram).lines;
  ASSERT_EQ(expected.size(), 48u);
  std::sort(expected.begin(), expected.end());

  cfg.fault_plan.kill_rank(/*rank=*/2, /*at_unit=*/4);
  const runtime::RunResult r = runtime::run_program(cfg, kPrintingLeavesProgram);
  std::vector<std::string> lines = r.lines;
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, expected);
  EXPECT_EQ(r.ft.faults_fired, 1);
  EXPECT_GE(r.server_stats.requeues, 1u);
}

// ---- seeded soak: every fault kind, many points, identical output ----

// Seeded kills (FaultPlan::random_kill) over 200 seeds, then 20 seeds
// each of hangs, drops and delays under the 150 ms heartbeat. Victims are
// the three workers; the point is a unit in [1, 20], so at least the
// first half of the range always fires (pi_program). Every run must print
// exactly what the fault-free run prints.
TEST(Faults, SeededSoakMatchesFaultFreeOutput) {
  runtime::Config cfg = base_config();
  const std::string program = pi_program(cfg.workers);
  const std::string expected = runtime::run_program(cfg, program).output();
  ASSERT_FALSE(expected.empty());
  constexpr uint64_t kMaxUnit = 20;

  int planned = 0;
  int fired = 0;
  const auto check = [&](const runtime::Config& c, const char* kind, uint64_t seed) {
    const runtime::RunResult r = runtime::run_program(c, program);
    ++planned;
    fired += r.ft.faults_fired;
    EXPECT_EQ(r.output(), expected) << kind << " seed " << seed;
    EXPECT_EQ(r.ft.attempts, 1) << kind << " seed " << seed;
  };

  for (uint64_t seed = 1; seed <= 200; ++seed) {
    runtime::Config c = cfg;
    c.fault_plan = mpi::FaultPlan::random_kill(seed, 1, cfg.workers, 1, kMaxUnit);
    check(c, "kill", seed);
  }
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const int victim = 1 + static_cast<int>(rng.next_below(static_cast<uint64_t>(cfg.workers)));
    const uint64_t at = 1 + rng.next_below(kMaxUnit);
    runtime::Config c = cfg;
    c.heartbeat_timeout_ms = 150;
    c.fault_plan.hang_rank(victim, at);
    check(c, "hang", seed);
    c.fault_plan = {};
    c.fault_plan.drop_message(victim, at);
    check(c, "drop", seed);
    // Delays from 0 to 300 ms: some within the heartbeat timeout (a slow
    // link), some past it (the sender is declared dead and fenced off).
    c.fault_plan = {};
    c.fault_plan.delay_message(victim, at, static_cast<double>(rng.next_below(301)) / 1000.0);
    check(c, "delay", seed);
  }
  std::printf("[ soak     ] %d of %d planned faults fired\n", fired, planned);
  EXPECT_GE(fired, planned / 2);
}
