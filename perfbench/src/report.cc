// Statistics, process probes, the host fingerprint and result output.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.h"
#include "obs/export.h"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<std::vector<size_t>> slices_of(const std::vector<double>& done_at, double span) {
  const size_t n = static_cast<size_t>(std::max(1.0, std::round(span / kSliceSeconds)));
  std::vector<std::vector<size_t>> slices(n);
  for (size_t i = 0; i < done_at.size(); ++i) {
    const double at = std::max(0.0, done_at[i] / span * static_cast<double>(n));
    slices[std::min(n - 1, static_cast<size_t>(at))].push_back(i);
  }
  return slices;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

// "0-3" style list of the CPUs this process may run on.
std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  int run_start = -1;
  auto close_run = [&](int end) {
    if (run_start < 0) return;
    if (!out.empty()) out += ',';
    out += std::to_string(run_start);
    if (end > run_start) {
      out += '-';
      out += std::to_string(end);
    }
    run_start = -1;
  };
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) {
      if (run_start < 0) run_start = c;
    } else {
      close_run(c - 1);
    }
  }
  close_run(CPU_SETSIZE - 1);
  return out;
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

std::string fingerprint_json(const Options& opt) {
  const int usable = usable_cores();
  const std::string affinity = affinity_list();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  using ilps::obs::json_escape;
  std::string s = "{";
  s += "\"nproc\": " + std::to_string(nproc);
  s += ", \"affinity\": \"" + json_escape(affinity) + "\"";
  s += ", \"usable_cores\": " + std::to_string(usable);
  s += ", \"world_ranks\": " + std::to_string(kWorldRanks);
  s += std::string(", \"oversubscribed\": ") + (kWorldRanks > usable ? "true" : "false");
  s += ", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  s += ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) + "\"";
  s += ", \"rev\": \"" + json_escape(opt.rev) + "\"";
  s += "}";
  return s;
}

void print_layer_table(const std::vector<RoleShare>& roles, const std::vector<EventCheck>& checks,
                       double untraced_rate, double traced_rate) {
  std::printf("\nper-layer split (traced phase):\n");
  std::printf("  %-8s %5s %8s %14s\n", "role", "ranks", "busy", "unattributed");
  for (const RoleShare& r : roles) {
    std::printf("  %-8s %5d %7.1f%% %13.1f%%\n", r.role.c_str(), r.ranks, 100 * r.busy,
                100 * (1 - r.busy));
  }
  std::printf("  (busy = task.run / server.handle spans; unattributed = waiting, "
              "blocked and untraced work)\n");
  if (!checks.empty()) {
    std::printf("\nevent counts, traced vs untraced counters:\n");
    for (const EventCheck& c : checks) {
      std::printf("  %-14s traced=%-12llu counter=%-12llu %s\n", c.event.c_str(),
                  static_cast<unsigned long long>(c.traced),
                  static_cast<unsigned long long>(c.counter), c.ok() ? "match" : "MISMATCH");
    }
  }
  std::printf("\ntracing overhead: untraced %.1f units/s, traced %.1f units/s (%.1f%%)\n",
              untraced_rate, traced_rate, 100 * (1 - ratio(traced_rate, untraced_rate)));
}

void emit_result(const Options& opt, const Outcome& out) {
  std::printf("\nmetrics (%s, seed %llu, %s):\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : out.metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  units attempted %llu, failed %llu, outputs %s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), out.correct ? "correct" : "WRONG");

  std::string metrics = "{";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) metrics += ", ";
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    metrics += '"';
    metrics += ilps::obs::json_escape(m.name) + "\": {\"value\": " + value + ", \"unit\": \"" +
               ilps::obs::json_escape(m.unit) + "\"}";
  }
  metrics += "}";
  const std::string result = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(out.attempted) +
                             ", \"failed\": " + std::to_string(out.failed) +
                             ", \"metrics\": " + metrics + "}";
  const std::string fingerprint = fingerprint_json(opt);
  std::printf("\nhost: %s\n", fingerprint.c_str());
  if (kWorldRanks > usable_cores()) {
    std::printf("WARNING: the world's %d ranks exceed the %d usable cores; these figures are "
                "oversubscribed and not comparable with runs on enough cores\n",
                kWorldRanks, usable_cores());
  }

  if (!opt.record.empty()) {
    std::ofstream f(opt.record);
    f << "{\"workload\": \"" << ilps::obs::json_escape(opt.workload) << "\", \"seed\": "
      << opt.seed << ", \"seconds\": " << opt.seconds << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"host\": " << fingerprint << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
