// perfbench — the repository benchmark. One process runs one workload
// (fig1, dispatch, interlang or serve) for a fixed wall-clock budget and
// prints its metrics: end-to-end metrics in an untraced run (--trace 0),
// per-layer metrics from an untraced phase plus a traced phase (--trace 1).
// Every workload checks its own outputs; wrong or missing units count as
// failed against the units attempted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Every world in the benchmark has exactly this many rank threads.
constexpr int kWorldRanks = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string rev = "unknown";  // source revision, supplied by run.py
  std::string record;           // path of the JSON result record ("" = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Counts units that failed their output check.
  void fail(uint64_t units) {
    failed += units;
    if (units > 0) correct = false;
  }
};

Outcome run_batch_workload(const Options& opt);  // fig1, dispatch, interlang
Outcome run_serve_workload(const Options& opt);  // serve

// ---- statistics and process probes (report.cc) ----

double median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double ratio(double num, double den);  // 0 when den == 0

// End-to-end timing figures are taken per time slice of the timed phase
// and reported as the median over slices, so a host stall confined to a
// few slices moves no figure.
constexpr double kSliceSeconds = 2;

// Indices of the samples completed in each of the equal slices of
// [0, span]; `done_at[i]` is when sample i completed, in seconds into the
// phase (samples after `span` fall in the last slice).
std::vector<std::vector<size_t>> slices_of(const std::vector<double>& done_at, double span);

// The median over slices of a per-slice figure (slices without samples
// are skipped).
template <typename Figure>
double median_over_slices(const std::vector<std::vector<size_t>>& slices, Figure figure) {
  std::vector<double> per_slice;
  for (const std::vector<size_t>& s : slices) {
    if (!s.empty()) per_slice.push_back(figure(s));
  }
  return median(per_slice);
}

double cpu_seconds();  // user + system time of this process
double peak_rss_mb();  // high-water resident set size

// splitmix64: the benchmark's only source of input randomness, so one
// seed always produces the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  int64_t range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t s_;
};

// Per-role busy shares of a traced run, printed as the per-layer table.
struct RoleShare {
  std::string role;
  int ranks = 0;
  double busy = 0;  // mean busy fraction over the role's ranks
};

// One traced-vs-untraced event-count comparison.
struct EventCheck {
  std::string event;
  uint64_t traced = 0;
  uint64_t counter = 0;
  bool ok() const { return traced == counter; }
};

// Host fingerprint as a JSON object: nproc, affinity, build type,
// compiler, source revision, and whether the world oversubscribes the
// usable cores.
std::string fingerprint_json(const Options& opt);

// Prints the per-layer table: role busy and unattributed shares, event
// count checks, and the tracing overhead.
void print_layer_table(const std::vector<RoleShare>& roles, const std::vector<EventCheck>& checks,
                       double untraced_rate, double traced_rate);

// Prints the human-readable metric list, writes the result record (when
// opt.record is set) and prints the final one-line JSON result.
void emit_result(const Options& opt, const Outcome& out);

}  // namespace perfbench
