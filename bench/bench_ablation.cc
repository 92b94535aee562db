// Ablation of an ILPS design choice (called out in DESIGN.md):
//
//  A1 — rebalance batch size. A hungry server receives half of a peer's
//       untargeted queue (ADLB's steal-half) vs. a single work unit per
//       notice. Workload: one producer rank homed on server 0 floods
//       tasks; consumers homed on the other servers must pull everything
//       across. Single-unit transfers require a Hungry round trip per
//       task; steal-half amortizes.
#include <unistd.h>

#include <string>

#include "bench/bench_util.h"
#include "runtime/runner.h"

using namespace ilps;

namespace {

struct AblationResult {
  double elapsed = 0;
  uint64_t messages = 0;
  uint64_t hungry = 0;
  uint64_t batches = 0;
  uint64_t rebalanced = 0;
};

AblationResult run_rebalance(bool steal_half, int tasks) {
  runtime::Config cfg;
  cfg.engines = 1;
  cfg.workers = 6;
  cfg.servers = 3;
  cfg.steal_half = steal_half;
  cfg.setup_interp = [](tcl::Interp& in) {
    in.register_command("bench::spin_us", [](tcl::Interp&, std::vector<std::string>& a) {
      usleep(static_cast<useconds_t>(std::stol(a.at(1))));
      return std::string();
    });
  };
  // All puts originate on the engine (rank 0, homed on server 0); the six
  // workers are spread across all three servers and must be fed. Tasks
  // cost ~300us so queues build up and batching matters.
  std::string program;
  program += "for {set i 0} {$i < " + std::to_string(tasks) + "} {incr i} {\n";
  program += "  turbine::put_work {bench::spin_us 300}\n";
  program += "}\n";
  auto r = runtime::run_program(cfg, program);
  AblationResult out;
  out.elapsed = r.elapsed_seconds;
  out.messages = r.traffic.messages;
  out.hungry = r.server_stats.hungry_notices;
  out.batches = r.server_stats.batches_sent;
  out.rebalanced = r.server_stats.units_rebalanced;
  return out;
}

}  // namespace

int main() {
  bench::banner("A1", "rebalance batch size: steal-half vs single-unit",
                "shipping half the surplus per hungry notice amortizes the "
                "rebalancing protocol; single-unit transfers pay a notice "
                "round trip per task");
  {
    bench::Table t({"policy", "tasks", "elapsed_s", "messages", "hungry_notices",
                    "batches", "units_moved"});
    for (int tasks : {200, 1000}) {
      for (bool half : {true, false}) {
        auto r = run_rebalance(half, tasks);
        bench::JsonLine("ablation_rebalance")
            .add_str("policy", half ? "steal-half" : "single")
            .add("tasks", tasks)
            .add("elapsed_s", r.elapsed)
            .add("messages", r.messages)
            .add("hungry_notices", r.hungry)
            .add("batches_sent", r.batches)
            .add("units_rebalanced", r.rebalanced)
            .print();
        t.row({half ? "steal-half" : "single", std::to_string(tasks),
               bench::fmt("%.3f", r.elapsed), std::to_string(r.messages),
               std::to_string(r.hungry), std::to_string(r.batches),
               std::to_string(r.rebalanced)});
      }
    }
    t.print();
  }
  return 0;
}
