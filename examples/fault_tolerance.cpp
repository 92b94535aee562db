// Fault-tolerant execution (src/ckpt): the same Monte Carlo pi workload
// run three times —
//  1. fault-free, as the reference;
//  2. with a FaultPlan killing one worker mid-run: the ADLB server
//     requeues the dead rank's leaf task and the run completes with
//     byte-identical output;
//  3. with the engine killed mid-run and checkpointing on: the driver
//     restarts from the newest checkpoint and replays only the leaf
//     tasks that had not finished.
// Exit status 0 means all three runs produced the same answer.
#include <cstdio>
#include <filesystem>
#include <string>

#include "runtime/runner.h"

namespace fs = std::filesystem;

namespace {

// 200 deterministic leaf tasks, each storing a hit/miss bit; a single
// engine-local rule reports the estimate once every future is closed. The
// rule is declared before any task is put, so the engine takes exactly
// one close notification per task: its Nth unit taken is the Nth closed
// future, in every run.
const char* kProgram = R"(
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
  set n 200
  set ids [list]
  for {set i 0} {$i < $n} {incr i} {
    lappend ids [turbine::allocate integer]
  }
  turbine::rule $ids "pi_report [list $ids] $n" type LOCAL
  for {set i 0} {$i < $n} {incr i} {
    set x [lindex $ids $i]
    turbine::put_work "turbine::store_integer $x \[pi_hit $i\]"
  }
}
)";

ilps::runtime::Config base_config() {
  ilps::runtime::Config cfg;
  cfg.engines = 1;
  cfg.workers = 3;
  cfg.servers = 1;
  return cfg;
}

}  // namespace

int main() {
  const auto baseline = ilps::runtime::run_program(base_config(), kProgram);
  std::printf("fault-free:      %s\n", baseline.lines.empty() ? "?" : baseline.lines[0].c_str());

  // Scenario 1: kill worker rank 2 when it takes its 10th task.
  ilps::runtime::Config kill_cfg = base_config();
  kill_cfg.fault_plan.kill_rank(/*rank=*/2, /*at_unit=*/10);
  const auto killed = ilps::runtime::run_program(kill_cfg, kProgram);
  std::printf("worker killed:   %s   (dead ranks: %zu, requeues: %llu)\n",
              killed.lines.empty() ? "?" : killed.lines[0].c_str(), killed.ft.dead_ranks.size(),
              static_cast<unsigned long long>(killed.server_stats.requeues));

  // Scenario 2: kill the engine at its 100th close notification (half
  // the futures closed); recover from the newest checkpoint.
  const fs::path dir =
      fs::temp_directory_path() / ("ilps-example-ft-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ilps::runtime::Config restart_cfg = base_config();
  restart_cfg.fault_plan.kill_rank(/*rank=*/0, /*at_unit=*/100);
  restart_cfg.ckpt_interval = 10;
  restart_cfg.ckpt_dir = dir.string();
  const auto restarted = ilps::runtime::run_program(restart_cfg, kProgram);
  fs::remove_all(dir);
  std::printf("engine restart:  %s   (attempts: %d, replayed: %llu, skipped: %llu)\n",
              restarted.lines.empty() ? "?" : restarted.lines[0].c_str(), restarted.ft.attempts,
              static_cast<unsigned long long>(restarted.worker_stats.tasks),
              static_cast<unsigned long long>(restarted.server_stats.replay_skips));

  const bool ok = !baseline.lines.empty() && killed.output() == baseline.output() &&
                  restarted.output() == baseline.output() && restarted.ft.attempts == 2;
  std::printf("--\n%s\n", ok ? "all three runs agree" : "MISMATCH");
  return ok ? 0 : 1;
}
