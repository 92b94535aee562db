// E10: fault-tolerant execution cost (src/ckpt).
//
// Two questions an SCR-style checkpoint/restart layer must answer:
//  - what does a checkpoint cost as the data store grows? Serialized
//    snapshot of 2^8..2^16 datums, written with header+CRC+atomic rename;
//    the metric is ms per checkpoint and effective MB/s.
//  - what does recovery cost as a function of WHERE the fault lands?
//    A 400-leaf-task program (20 waves of 20) is killed when its engine
//    takes its Nth close notification (the Nth closed future, so about N
//    tasks into the run); run_with_faults restarts from the newest
//    checkpoint and replays only tasks that had not completed. Later
//    faults mean more checkpointed progress, fewer replayed tasks, and
//    recovery time that tracks the remaining (not the total) work.
//  - what does fault tolerance cost when nothing fails? The same program
//    run by run_program and by run_with_faults (no plan, no checkpoints):
//    the ratio of their median times.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ckpt/ckpt.h"
#include "ckpt/snapshot.h"
#include "common/timer.h"
#include "runtime/runner.h"

namespace fs = std::filesystem;
using namespace ilps;

namespace {

fs::path scratch_dir(const std::string& tag) {
  fs::path p = fs::temp_directory_path() /
               ("ilps-bench-faults-" + tag + "-" + std::to_string(::getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

ckpt::Snapshot snapshot_with(int records) {
  ckpt::Snapshot s;
  s.seq = 1;
  s.tasks_completed = records;
  s.data.reserve(static_cast<size_t>(records));
  for (int i = 0; i < records; ++i) {
    ckpt::DatumRecord d;
    d.id = i;
    d.type = 1;  // integer
    d.closed = true;
    d.has_value = true;
    d.value = "datum-value-" + std::to_string(i * 7919) + "-padding-to-32B";
    s.done_tasks.push_back(ckpt::fingerprint(d.value));
    s.data.push_back(std::move(d));
  }
  return s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// N leaf tasks in waves of W, each storing a deterministic integer; one
// engine-local rule reports the sum so the output is a single stable line.
// Each wave's rule is declared before its tasks are put and releases the
// next wave, so the engine takes exactly one close notification per task
// and its Nth unit lands about N tasks into the run.
std::string wave_program(int n, int w) {
  std::string p;
  p += "proc task_val {i} { expr {($i * 37 + 11) % 100} }\n";
  p += "proc report {ids} {\n";
  p += "  set sum 0\n";
  p += "  foreach x $ids { set sum [expr {$sum + [turbine::retrieve_integer $x]}] }\n";
  p += "  puts \"sum $sum of [llength $ids]\"\n";
  p += "}\n";
  p += "proc wave {first ids} {\n";
  p += "  set mine [list]\n";
  p += "  for {set k 0} {$k < " + std::to_string(w) + "} {incr k} {\n";
  p += "    lappend mine [turbine::allocate integer]\n";
  p += "  }\n";
  p += "  set all [concat $ids $mine]\n";
  p += "  set next [expr {$first + " + std::to_string(w) + "}]\n";
  p += "  if {$next < " + std::to_string(n) + "} {\n";
  p += "    turbine::rule $mine \"wave $next [list $all]\" type LOCAL\n";
  p += "  } else {\n";
  p += "    turbine::rule $mine \"report [list $all]\" type LOCAL\n";
  p += "  }\n";
  p += "  for {set k 0} {$k < " + std::to_string(w) + "} {incr k} {\n";
  p += "    set x [lindex $mine $k]\n";
  p += "    turbine::put_work \"turbine::store_integer $x \\[task_val [expr {$first + $k}]\\]\"\n";
  p += "  }\n";
  p += "}\n";
  p += "proc swift:main {} { wave 0 {} }\n";
  return p;
}

}  // namespace

int main() {
  bench::banner("E10", "checkpoint cost and recovery time (src/ckpt)",
                "fault-tolerant task execution: checkpoint cost scales with the "
                "data store; restart replays only unfinished work");

  {
    bench::Table t({"datums", "file_bytes", "ms/ckpt", "MB/s"});
    fs::path dir = scratch_dir("write");
    uint64_t seq = 0;  // monotonic across rows: pruning drops the lowest seq
    for (int exp = 8; exp <= 16; exp += 2) {
      const int records = 1 << exp;
      ckpt::Snapshot s = snapshot_with(records);
      const int reps = 5;
      uintmax_t bytes = 0;
      Timer timer;
      for (int r = 0; r < reps; ++r) {
        s.seq = ++seq;
        bytes = fs::file_size(ckpt::write_checkpoint(dir.string(), s));
      }
      const double ms = timer.elapsed() * 1000.0 / reps;
      const double mbps = (static_cast<double>(bytes) / 1e6) / (ms / 1000.0);
      bench::JsonLine("faults_ckpt_write")
          .add("datums", records)
          .add("file_bytes", static_cast<uint64_t>(bytes))
          .add("ms_per_ckpt", ms)
          .add("mb_per_s", mbps)
          .print();
      t.row({std::to_string(records), std::to_string(bytes), bench::fmt("%.3f", ms),
             bench::fmt("%.1f", mbps)});
    }
    fs::remove_all(dir);
    t.print();
  }

  {
    const int tasks = 400;
    runtime::Config cfg;
    cfg.engines = 1;
    cfg.workers = 4;
    cfg.servers = 1;
    const std::string program = wave_program(tasks, 20);
    // Fault-free cost of fault tolerance: the same program through both
    // drivers, interleaved, median of kReps runs each.
    constexpr int kReps = 21;
    std::vector<double> plain_s;
    std::vector<double> ft_s;
    for (int i = 0; i < kReps; ++i) {
      plain_s.push_back(runtime::run_program(cfg, program).elapsed_seconds);
      ft_s.push_back(runtime::run_with_faults(cfg, program).elapsed_seconds);
    }
    const double base = median(plain_s);
    const double ft_base = median(ft_s);
    bench::JsonLine("faults_fault_free")
        .add("tasks", tasks)
        .add("runs", kReps)
        .add("plain_s", base)
        .add("ft_s", ft_base)
        .add("ft_over_plain", ft_base / base)
        .print();
    std::printf("\nfault-free, %d tasks (median of %d): run_program %.4f s, "
                "run_with_faults %.4f s, ratio %.2fx\n\n",
                tasks, kReps, base, ft_base, ft_base / base);

    // The engine's Nth unit is the Nth closed future (wave_program).
    bench::Table t({"fault_at_unit", "attempts", "ckpts", "replay_skips", "replayed",
                    "elapsed_s", "vs_baseline"});
    for (int at : {80, 160, 240, 320}) {
      fs::path dir = scratch_dir("recover-" + std::to_string(at));
      runtime::Config fcfg = cfg;
      fcfg.fault_plan.kill_rank(/*rank=*/0, /*at_unit=*/static_cast<uint64_t>(at));
      fcfg.ckpt_interval = 16;
      fcfg.ckpt_dir = dir.string();
      runtime::RunResult r = runtime::run_with_faults(fcfg, program);
      fs::remove_all(dir);
      bench::JsonLine("faults_recovery")
          .add("fault_at_unit", at)
          .add("attempts", r.ft.attempts)
          .add("checkpoints", r.server_stats.checkpoints)
          .add("replay_skips", r.server_stats.replay_skips)
          .add("replayed_tasks", r.worker_stats.tasks)
          .add("elapsed_s", r.elapsed_seconds)
          .add("vs_baseline", r.elapsed_seconds / base)
          .print();
      t.row({std::to_string(at), std::to_string(r.ft.attempts),
             std::to_string(r.server_stats.checkpoints),
             std::to_string(r.server_stats.replay_skips),
             std::to_string(r.worker_stats.tasks), bench::fmt("%.3f", r.elapsed_seconds),
             bench::fmt("%.2fx", r.elapsed_seconds / base)});
    }
    t.print();
  }
  return 0;
}
