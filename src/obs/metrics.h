// ilps::obs — runtime metrics registry: named counters, gauges, and
// histograms, the machine-readable complement to the event tracer. The
// per-subsystem stat structs (adlb::ServerStats, turbine::EngineStats /
// WorkerStats, mpi::TrafficStats) are published into this registry by the
// runtime at end of run, so one metrics.json exposes every layer's
// counters under stable dotted names (docs/observability.md).
//
// Counters and gauges are lock-free relaxed atomics; name lookup takes a mutex,
// so instrumentation sites should resolve a metric once and keep the
// reference (references are stable for the registry's lifetime).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"

namespace ilps::obs {

// A relaxed stats tally (see ilps::RelaxedCounter for the ordering
// contract: readers may observe slightly stale values, nothing is
// published through it).
class Counter {
 public:
  void add(uint64_t n = 1) { v_.add(n); }
  void set(uint64_t n) { v_.store(n); }
  uint64_t value() const { return v_.load(); }

 private:
  ilps::RelaxedCounter v_;
};

class Gauge {
 public:
  void set(double v);
  double value() const;

 private:
  ilps::Atomic<uint64_t> bits_{0};  // IEEE-754 bit pattern
};

// Percentile histogram over raw samples. count/sum/min/max are exact for
// every sample ever recorded; raw-sample retention is capped at
// kReservoirCap by uniform reservoir sampling (Vitter's Algorithm R, a
// deterministic per-instance Rng), so a resident service can feed it
// indefinitely under a fixed memory bound while percentiles stay an
// unbiased estimate. Below the cap — every batch run, and per-task /
// per-checkpoint timings generally — percentiles are exact. percentile()
// uses the nearest-rank definition over the retained samples: p in
// (0,100] maps to sorted[ceil(p/100*N)-1].
class Histogram {
 public:
  // Retention cap: 64k doubles = 512 KiB worst case per histogram.
  static constexpr size_t kReservoirCap = 65536;

  void record(double v);

  uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  double percentile(double p) const;  // 0 -> min, 100 -> max; 0 if empty

  // Samples currently retained (== count() until the reservoir fills).
  size_t retained() const;
  // Resident bytes attributable to retained samples (regression tests
  // bound this; it never exceeds kReservoirCap * sizeof(double) plus
  // vector growth slack).
  size_t sample_bytes() const;

  // Drops every sample in place (the histogram object stays registered,
  // so cached references remain valid).
  void reset();

 private:
  mutable ilps::Mutex mu_;
  std::vector<double> samples_ ILPS_GUARDED_BY(mu_);
  uint64_t count_ ILPS_GUARDED_BY(mu_) = 0;
  double sum_ ILPS_GUARDED_BY(mu_) = 0;
  double min_ ILPS_GUARDED_BY(mu_) = 0;
  double max_ ILPS_GUARDED_BY(mu_) = 0;
  Rng rng_ ILPS_GUARDED_BY(mu_){0x1175C0FFEEull};
};

// Memory-bounded rolling-window histogram for long-lived series
// (serve.request_seconds and friends): a ring of kSubWindows sub-windows,
// each a fixed array of kBuckets log-spaced counters, covering the last
// window_seconds. record() lands in the sub-window owning `now`; querying
// merges every sub-window still inside the window, so results cover
// between (kSubWindows-1)/kSubWindows and the full window of history and
// old samples age out in sub-window granularity. Memory is fixed:
// kSubWindows * kBuckets counters (~6 KiB), independent of rate and
// uptime. Percentiles are bucket-resolution (log-spaced ~1.26x from 1us),
// exact enough for SLO p50/p99/p999 readouts.
class WindowHistogram {
 public:
  static constexpr size_t kBuckets = 96;     // [0]=underflow, then log-spaced
  static constexpr size_t kSubWindows = 8;
  static constexpr double kBucketFloor = 1e-6;  // seconds; bucket 1 starts here
  static constexpr double kBucketGrowth = 1.2589254117941673;  // 10^(1/10)

  explicit WindowHistogram(double window_seconds = 60.0);

  void record(double v);            // at the current time
  void record_at(double v, double now);  // explicit clock (tests)

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    double p999 = 0;
  };

  Snapshot snapshot() const;        // over the live window
  Snapshot snapshot_at(double now) const;
  double percentile(double p) const;
  uint64_t count() const;           // samples in the live window
  double window_seconds() const { return window_seconds_; }

  void reset();

  // Bucket index for a value and the representative (geometric-mid) value
  // reported for a bucket; exposed for tests.
  static size_t bucket_of(double v);
  static double bucket_value(size_t bucket);

 private:
  struct Sub {
    int64_t slot = -1;  // floor(now / sub_seconds) when live, -1 when empty
    uint64_t total = 0;
    double sum = 0;
    std::array<uint64_t, kBuckets> n{};
  };

  Sub& sub_for_locked(double now) ILPS_REQUIRES(mu_);
  Snapshot merged_locked(double now) const ILPS_REQUIRES(mu_);

  mutable ilps::Mutex mu_;
  std::array<Sub, kSubWindows> subs_ ILPS_GUARDED_BY(mu_);
  double sub_seconds_;     // immutable after construction
  double window_seconds_;  // immutable after construction
};

class Metrics {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  // The rolling-window companion; window_seconds applies on first creation
  // only (later lookups return the existing window unchanged).
  WindowHistogram& window_histogram(const std::string& name, double window_seconds = 60.0);

  // Name-sorted snapshots for exporters. Histogram pointers stay valid
  // for the registry's lifetime (entries are never removed, only cleared).
  std::vector<std::pair<std::string, uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;
  std::vector<std::pair<std::string, const WindowHistogram*>> window_histograms() const;

  void clear();  // drop every metric (tests / fresh runs)

  // Resets every histogram's samples (exact and windowed) without
  // unregistering the entries. Used by run_program between restart
  // attempts: the final attempt's timings must not accumulate samples from
  // aborted attempts, and the registered objects must survive because rank
  // loops cache references.
  void reset_histograms();

 private:
  mutable ilps::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ ILPS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ ILPS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ ILPS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<WindowHistogram>> window_histograms_
      ILPS_GUARDED_BY(mu_);
};

// The process-wide registry.
Metrics& metrics();

}  // namespace ilps::obs
