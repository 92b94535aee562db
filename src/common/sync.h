// Annotated synchronization primitives for the ILPS runtime.
//
// Every mutex, condition variable, and lock scope in src/ goes through
// the wrappers in this header instead of <mutex> directly. The wrappers
// carry Clang thread-safety capability annotations, so a clang build
// with `-Wthread-safety -Werror=thread-safety` (the clang-thread-safety
// CI job) proves at compile time that every ILPS_GUARDED_BY field is
// only touched with its mutex held and that every ILPS_REQUIRES
// contract is met at each call site. Under gcc the ILPS_* macros expand
// to nothing and the wrappers compile down to their std counterparts.
//
// Companion checks that the type system cannot express live in
// tools/ilps_lint.py (blocking transport calls under a lock, raw
// memory-order sites without an `// ordering:` justification, raw
// std::mutex/std::atomic declarations outside src/common, lock-order
// cycles). docs/concurrency.md explains the whole regime.
//
// Conventions enforced here:
//
//  - ilps::CondVar deliberately has no predicate-taking wait overloads.
//    A predicate lambda is analyzed by clang as a separate function
//    that does not hold the lock, so guarded reads inside it would
//    need escape hatches. Write the loop out instead:
//
//        UniqueLock lock(mu);
//        while (!ready) cv.wait(lock);   // guarded read, lock held
//
//  - Stats counters that tolerate relaxed ordering use RelaxedCounter
//    (the "blessed wrapper": monotonic, no ordering obligations to any
//    other memory). Atomics that participate in an ordering protocol
//    are declared as ilps::Atomic<T> and every non-seq_cst operation
//    carries an adjacent `// ordering:` comment saying which
//    happens-before edge it provides (ilps-lint enforces this).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

// ---- Clang thread-safety attribute macros ------------------------------
//
// Gated on __clang__ so the gcc tier-1 build sees plain classes; the
// clang-thread-safety CI job sees the full capability analysis.
#if defined(__clang__) && defined(__has_attribute)
#define ILPS_TSA(x) __attribute__((x))
#else
#define ILPS_TSA(x)  // no-op outside clang
#endif

#define ILPS_CAPABILITY(x) ILPS_TSA(capability(x))
#define ILPS_SCOPED_CAPABILITY ILPS_TSA(scoped_lockable)
#define ILPS_GUARDED_BY(x) ILPS_TSA(guarded_by(x))
#define ILPS_PT_GUARDED_BY(x) ILPS_TSA(pt_guarded_by(x))
#define ILPS_ACQUIRED_BEFORE(...) ILPS_TSA(acquired_before(__VA_ARGS__))
#define ILPS_ACQUIRED_AFTER(...) ILPS_TSA(acquired_after(__VA_ARGS__))
#define ILPS_REQUIRES(...) ILPS_TSA(requires_capability(__VA_ARGS__))
#define ILPS_ACQUIRE(...) ILPS_TSA(acquire_capability(__VA_ARGS__))
#define ILPS_RELEASE(...) ILPS_TSA(release_capability(__VA_ARGS__))
#define ILPS_TRY_ACQUIRE(...) ILPS_TSA(try_acquire_capability(__VA_ARGS__))
#define ILPS_EXCLUDES(...) ILPS_TSA(locks_excluded(__VA_ARGS__))
#define ILPS_ASSERT_CAPABILITY(x) ILPS_TSA(assert_capability(x))
#define ILPS_RETURN_CAPABILITY(x) ILPS_TSA(lock_returned(x))
#define ILPS_NO_TSA ILPS_TSA(no_thread_safety_analysis)

namespace ilps {

class CondVar;
class UniqueLock;

// A std::mutex carrying the "mutex" capability. Prefer LockGuard /
// UniqueLock scopes; call lock()/unlock() directly only when a scope
// object cannot express the lifetime (and the analysis will still hold
// you to balanced acquire/release).
class ILPS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ILPS_ACQUIRE() { mu_.lock(); }
  void unlock() ILPS_RELEASE() { mu_.unlock(); }
  bool try_lock() ILPS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // For code paths the analysis cannot follow (e.g. a callback invoked
  // by a function documented to hold the lock): states the capability
  // is held without acquiring it.
  void assert_held() const ILPS_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  friend class UniqueLock;
  std::mutex mu_;
};

// RAII lock scope over an ilps::Mutex; never unlocks early.
class ILPS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) ILPS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() ILPS_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

// RAII lock scope that supports CondVar waits and explicit
// unlock()/lock() windows (e.g. dropping the lock around file I/O).
class ILPS_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) ILPS_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~UniqueLock() ILPS_RELEASE() {}  // releases iff still held

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ILPS_ACQUIRE() { lock_.lock(); }
  void unlock() ILPS_RELEASE() { lock_.unlock(); }
  bool owns_lock() const { return lock_.owns_lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

// Condition variable bound to ilps::UniqueLock. The capability stays
// "held" across a wait from the analysis' point of view (the wait
// re-acquires before returning), matching how callers reason about the
// surrounding while loop. No predicate overloads — see file header.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lock) { cv_.wait(lock.lock_); }

  template <class Rep, class Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& dur) {
    return cv_.wait_for(lock.lock_, dur);
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      UniqueLock& lock, const std::chrono::time_point<Clock, Duration>& tp) {
    return cv_.wait_until(lock.lock_, tp);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// The one blessed way to declare an atomic outside src/common
// (ilps-lint rejects raw std::atomic declarations elsewhere). Using the
// alias does not waive the ordering rule: every explicit relaxed /
// acquire / release operation still needs its `// ordering:` comment.
template <typename T>
using Atomic = std::atomic<T>;

// Blessed relaxed stats counter: a monotonic event count with no
// ordering relationship to any other memory. Readers may observe a
// slightly stale value; that is the contract (metrics, pool hit rates,
// wakeup suppression tallies). Use ilps::Atomic + explicit orders +
// `// ordering:` comments for anything a protocol depends on.
class RelaxedCounter {
 public:
  constexpr RelaxedCounter(uint64_t init = 0) : v_(init) {}
  RelaxedCounter(const RelaxedCounter&) = delete;
  RelaxedCounter& operator=(const RelaxedCounter&) = delete;

  void add(uint64_t n = 1) {
    // ordering: pure event tally; no reader infers anything about other
    // memory from this value, so relaxed is sufficient.
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void store(uint64_t v) {
    // ordering: reset/absolute set of a tally; same contract as add().
    v_.store(v, std::memory_order_relaxed);
  }
  uint64_t load() const {
    // ordering: stale reads are acceptable by contract.
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> v_;
};

}  // namespace ilps

// ---- Global lock hierarchy --------------------------------------------
//
// Declared ordering edges (outer first). ilps-lint parses these lines
// together with in-source ILPS_ACQUIRED_BEFORE/AFTER attributes, builds
// the directed graph, and fails on any cycle. Keep this table in sync
// with docs/concurrency.md, which explains each edge.
//
// ILPS_LOCK_ORDER: serve.lifecycle_mu < serve.hub_mu
// ILPS_LOCK_ORDER: serve.hub_mu < obs.capture_mu
// ILPS_LOCK_ORDER: serve.hub_mu < obs.telemetry_mu
// ILPS_LOCK_ORDER: serve.hub_mu < obs.registry_mu
// ILPS_LOCK_ORDER: serve.cache_mu < obs.registry_mu
// ILPS_LOCK_ORDER: obs.telemetry_mu < obs.registry_mu
// ILPS_LOCK_ORDER: mpi.lane_mu < mpi.wake_mu
// ILPS_LOCK_ORDER: obs.registry_mu < common.log_mu
// ILPS_LOCK_ORDER: mpi.wake_mu < common.log_mu
// ILPS_LOCK_ORDER: runtime.world_mu < common.log_mu
