#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/timer.h"
#include "mpi/comm.h"
#include "obs/trace.h"

namespace ilps::mpi {

namespace {
// Internal tags for collectives, outside the user range. The barrier has a
// shared-memory fast path and sends no messages; the data-carrying
// collectives (broadcast/reduce/gather) still move payloads point-to-point.
constexpr int kTagBcast = kMaxUserTag + 3;
constexpr int kTagReduce = kMaxUserTag + 4;
constexpr int kTagGather = kMaxUserTag + 5;

// Per-rank fault state (WorldState::send_fault). A doomed rank's
// blocking receives poll and give up once nothing can arrive; a cut-off
// rank's next blocking receive parks until the world drains.
constexpr char kDoomed = 1;
constexpr char kCutOff = 2;

// Send-buffer freelist cap, shared by the owner pool and the return box.
constexpr size_t kMaxPooled = 64;

// Bounded yield-spin before a barrier waiter sleeps on the condition
// variable. Ranks are threads (often oversubscribed on few cores), so the
// spin must yield the CPU rather than burn it.
constexpr int kBarrierSpins = 32;

// Wildcard semantics: ANY_TAG covers user tags only, so a plain recv can
// never swallow a collective payload or a death notice racing past it;
// ANY_TAG_OR_FAULT additionally covers kTagFault for fault-aware loops.
bool tag_matches(int pattern, int tag) {
  if (pattern == ANY_TAG) return tag < kMaxUserTag;
  if (pattern == ANY_TAG_OR_FAULT) return tag < kMaxUserTag || tag == kTagFault;
  return tag == pattern;
}

bool envelope_matches(int want_source, int want_tag, int source, int tag) {
  return (want_source == ANY_SOURCE || source == want_source) && tag_matches(want_tag, tag);
}
}  // namespace

// Lock-light mailbox: producers never touch shared matching state. Each
// (source → dest) pair has its own SPSC staging lane; a post locks only
// that lane (contended at worst with the consumer's drain, never with
// other producers). The owner drains lanes into consumer-private
// per-(source, tag) FIFO buckets and matches there with no lock at all.
//
// Ordering: every item is stamped from a mailbox-wide atomic arrival
// counter at post time. Items from one source are stamped in program
// order, so each bucket (fed by exactly one lane) stays seq-sorted and a
// wildcard recv — which takes the lowest seq among matching bucket fronts
// — returns exactly the message a single arrival-ordered queue would
// have. Causally ordered posts from different sources get increasing
// seqs because the fetch_add on the arrival counter is part of the
// happens-before chain.
//
// Wakeup protocol (eventcount): the owner registers the envelope it is
// about to block on under wake_mu, publishes `maybe_waiting` with seq_cst,
// then re-drains every lane before sleeping. A producer stamps its lane
// (seq_cst flag inside the lane critical section), then checks
// `maybe_waiting` with seq_cst: either the producer observes the waiter
// (and signals under wake_mu), or the waiter's re-drain observes the
// item — the classic Dekker store-buffering argument, so no wakeup is
// ever lost while producers that find no waiter skip the syscall
// entirely.
struct World::Mailbox {
  struct Item {
    uint64_t seq;
    Message msg;
  };
  struct Bucket {
    std::deque<Item> q;
  };

  static uint64_t key(int source, int tag) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(source)) << 32) |
           static_cast<uint32_t>(tag);
  }

  // One SPSC staging lane per source rank.
  struct Lane {
    ilps::Mutex mu;
    std::vector<Item> staged ILPS_GUARDED_BY(mu);
    // Dekker-side flag: deliberately read/written outside mu by design
    // (see the wakeup-protocol comment above), so it must not be
    // GUARDED_BY.
    ilps::Atomic<bool> has_items{false};
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  ilps::Atomic<uint64_t> next_seq{0};

  // Consumer-private matching state: only the owning rank thread touches
  // the buckets, after draining the lanes.
  std::unordered_map<uint64_t, Bucket> buckets;

  // Eventcount wakeup state (wake_mu guards everything but maybe_waiting,
  // whose whole job is to be checked without the lock — the Dekker
  // partner of the consumer's register-then-redrain).
  ilps::Atomic<bool> maybe_waiting{false};
  ilps::Mutex wake_mu;
  ilps::CondVar cv;
  bool waiting ILPS_GUARDED_BY(wake_mu) = false;
  bool notified ILPS_GUARDED_BY(wake_mu) = false;
  int want_source ILPS_GUARDED_BY(wake_mu) = ANY_SOURCE;
  int want_tag ILPS_GUARDED_BY(wake_mu) = ANY_TAG;

  // Return box: peers deposit consumed message buffers here so one-way
  // flows prime the *sender's* freelist (see Comm::recycle(Message&&)).
  ilps::Mutex ret_mu;
  std::vector<std::vector<std::byte>> returns ILPS_GUARDED_BY(ret_mu);

  // Owner thread only: move staged items into the private buckets.
  void drain() {
    for (auto& lp : lanes) {
      Lane& lane = *lp;
      if (!lane.has_items.load(std::memory_order_seq_cst)) continue;
      std::vector<Item> got;
      {
        ilps::LockGuard lock(lane.mu);
        got.swap(lane.staged);
        // ordering: relaxed is enough — the flag only changes inside
        // lane.mu's critical section here, and a producer that races the
        // clear re-stores true (seq_cst) after its push under the same
        // lock, so no set flag is ever lost.
        lane.has_items.store(false, std::memory_order_relaxed);
      }
      for (auto& it : got) {
        buckets[key(it.msg.source, it.msg.tag)].q.push_back(std::move(it));
      }
    }
  }
};

struct WorldState {
  ilps::Atomic<bool> aborted{false};
  ilps::Mutex abort_mutex;
  std::string abort_reason ILPS_GUARDED_BY(abort_mutex);

  // First writer wins; readers take the (cold-path) lock so the string
  // read needs no publication argument.
  void set_abort_reason(const std::string& why) {
    ilps::LockGuard lock(abort_mutex);
    if (abort_reason.empty()) abort_reason = why;
  }
  std::string copy_abort_reason() {
    ilps::LockGuard lock(abort_mutex);
    return abort_reason;
  }

  // Traffic / wakeup / pool tallies: pure stats, no protocol reads them.
  ilps::RelaxedCounter messages;
  ilps::RelaxedCounter bytes;
  ilps::RelaxedCounter wakeups;
  ilps::RelaxedCounter wakeups_suppressed;
  ilps::RelaxedCounter pool_hits;
  ilps::RelaxedCounter pool_misses;
  ilps::RelaxedCounter barrier_fastpath;
  ilps::RelaxedCounter collective_wakeups;

  // Sense-reversing shared-memory barrier. Ranks are threads in one
  // process, so a barrier needs no messages at all: arrive on an atomic
  // counter, the last arriver flips the generation, everyone else
  // yield-spins briefly and then sleeps on one condition variable. The
  // sleeper count and the generation flip form a Dekker pair (both
  // seq_cst), so the releaser either sees the sleeper (and notifies under
  // the mutex) or the sleeper's predicate sees the new generation. The
  // atomics are read outside bar.mu by design and must not be GUARDED_BY.
  struct BarrierSync {
    ilps::Atomic<int> arrived{0};
    ilps::Atomic<uint64_t> generation{0};
    ilps::Atomic<int> sleepers{0};
    ilps::Mutex mu;
    ilps::CondVar cv;
  };
  BarrierSync bar;

  // ---- fault injection ----
  FaultPlan plan;
  std::vector<std::unique_ptr<ilps::Atomic<bool>>> fired;  // parallel to plan.actions
  std::vector<char> dead;    // written by the dying thread, read after run()
  // kDoomed / kCutOff per rank. The owning rank cuts itself off
  // (apply_send_fault); any rank may doom it (World::doom, a compare-
  // exchange from 0 that never overrides a cut-off); the owner re-reads
  // its slot on every pass of wait_match.
  std::unique_ptr<ilps::Atomic<char>[]> send_fault;
  // Drain bookkeeping: hung/doomed ranks are released (and killed) once
  // every other rank has finished, so run() can always join its threads.
  ilps::Mutex fin_mutex;
  ilps::CondVar fin_cv;
  int finished ILPS_GUARDED_BY(fin_mutex) = 0;
  int parked_faulty ILPS_GUARDED_BY(fin_mutex) = 0;
};

World::World(int size) : size_(size), state_(std::make_unique<WorldState>()) {
  if (size <= 0) throw CommError("world size must be positive");
  state_->send_fault = std::make_unique<ilps::Atomic<char>[]>(static_cast<size_t>(size));
  boxes_.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    auto box = std::make_unique<Mailbox>();
    box->lanes.reserve(static_cast<size_t>(size));
    for (int s = 0; s < size; ++s) box->lanes.push_back(std::make_unique<Mailbox::Lane>());
    boxes_.push_back(std::move(box));
  }
}

World::~World() = default;

void World::run(const std::function<void(Comm&)>& rank_main) {
  state_->aborted.store(false);
  // Fresh per-rank event buffers each run; a previous run's session (read
  // by the runner between runs) is released here.
  obs_ = obs::trace_enabled()
             ? std::make_unique<obs::Session>(size_, obs::default_capacity())
             : nullptr;
  {
    // Reset per-run fault bookkeeping (fired flags persist across runs so a
    // restart driver can inspect them; they are reset by set_fault_plan).
    ilps::LockGuard lock(state_->fin_mutex);
    state_->finished = 0;
    state_->parked_faulty = 0;
    state_->dead.assign(static_cast<size_t>(size_), 0);
    for (size_t r = 0; r < static_cast<size_t>(size_); ++r) state_->send_fault[r].store(0);
  }
  state_->bar.arrived.store(0);
  state_->bar.generation.store(0);
  state_->bar.sleepers.store(0);
  std::exception_ptr first_error;
  ilps::Mutex error_mutex;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &rank_main, &first_error, &error_mutex] {
      log::set_thread_rank(r);
      if (obs_) obs::attach(&obs_->rank(r));
      Comm comm(this, r);
      try {
        rank_main(comm);
      } catch (const RankKilled&) {
        on_rank_dead(r);
      } catch (...) {
        {
          ilps::LockGuard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        abort("rank " + std::to_string(r) + " threw");
      }
      finish_rank();
      obs::detach();
      log::set_thread_rank(-1);
    });
  }
  for (auto& t : threads) t.join();

  // Clear mailboxes so a World can host several independent runs.
  for (auto& box : boxes_) {
    for (auto& lane : box->lanes) {
      ilps::LockGuard lock(lane->mu);
      lane->staged.clear();
      lane->has_items.store(false);
    }
    box->buckets.clear();
    box->next_seq.store(0);
    box->maybe_waiting.store(false);
    {
      ilps::LockGuard lock(box->wake_mu);
      box->waiting = false;
      box->notified = false;
    }
    {
      ilps::LockGuard lock(box->ret_mu);
      box->returns.clear();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  if (state_->aborted.load()) {
    throw CommError("world aborted: " + state_->copy_abort_reason());
  }
}

TrafficStats World::stats() const {
  return TrafficStats{state_->messages.load(),
                      state_->bytes.load(),
                      state_->wakeups.load(),
                      state_->wakeups_suppressed.load(),
                      state_->pool_hits.load(),
                      state_->pool_misses.load(),
                      state_->barrier_fastpath.load(),
                      state_->collective_wakeups.load()};
}

void World::post(int source, int dest, int tag, std::vector<std::byte>&& data) {
  if (dest < 0 || dest >= size_) {
    throw CommError("send to invalid rank " + std::to_string(dest));
  }
  state_->messages.add(1);
  state_->bytes.add(data.size());
  Mailbox& box = *boxes_[static_cast<size_t>(dest)];
  Mailbox::Lane& lane = *box.lanes[static_cast<size_t>(source)];
  {
    ilps::LockGuard lock(lane.mu);
    // ordering: acq_rel keeps the arrival counter a causal chain — a post
    // that happens-after another (same source, or via any cross-rank
    // synchronization) reads the later counter value, which is what makes
    // wildcard matching equal to a single arrival-ordered queue.
    lane.staged.push_back(Mailbox::Item{
        box.next_seq.fetch_add(1, std::memory_order_acq_rel),
        Message{source, tag, std::move(data)}});
    lane.has_items.store(true, std::memory_order_seq_cst);
  }
  // Dekker partner of the consumer's register-then-redrain: the seq_cst
  // flag store above and this seq_cst load mean either we see the waiter
  // or its re-drain sees our item.
  if (box.maybe_waiting.load(std::memory_order_seq_cst)) {
    bool wake = false;
    {
      ilps::LockGuard lock(box.wake_mu);
      if (box.waiting && !box.notified &&
          envelope_matches(box.want_source, box.want_tag, source, tag)) {
        box.notified = true;
        wake = true;
      }
    }
    if (wake) {
      state_->wakeups.add(1);
      box.cv.notify_one();
      return;
    }
  }
  state_->wakeups_suppressed.add(1);
}

void World::post(int source, int dest, int tag, std::span<const std::byte> data) {
  post(source, dest, tag, std::vector<std::byte>(data.begin(), data.end()));
}

std::optional<Message> World::take_now(Mailbox& box, int source, int tag) {
  if (source != ANY_SOURCE && tag >= 0) {
    // Exact envelope: O(1) bucket lookup.
    auto it = box.buckets.find(Mailbox::key(source, tag));
    if (it == box.buckets.end() || it->second.q.empty()) return std::nullopt;
    Message m = std::move(it->second.q.front().msg);
    it->second.q.pop_front();
    return m;
  }
  // Wildcard: the oldest matching message is the lowest arrival number
  // among matching bucket fronts (bucket queues are arrival-ordered, so
  // only fronts can be oldest).
  Mailbox::Bucket* best = nullptr;
  uint64_t best_seq = 0;
  for (auto& [key, b] : box.buckets) {
    if (b.q.empty()) continue;
    const Mailbox::Item& front = b.q.front();
    if (!envelope_matches(source, tag, front.msg.source, front.msg.tag)) continue;
    if (best == nullptr || front.seq < best_seq) {
      best = &b;
      best_seq = front.seq;
    }
  }
  if (best == nullptr) return std::nullopt;
  Message m = std::move(best->q.front().msg);
  best->q.pop_front();
  return m;
}

bool World::probe_now(const Mailbox& box, int source, int tag, int* out_source,
                      int* out_tag) {
  if (source != ANY_SOURCE && tag >= 0) {
    auto it = box.buckets.find(Mailbox::key(source, tag));
    if (it == box.buckets.end() || it->second.q.empty()) return false;
    if (out_source != nullptr) *out_source = source;
    if (out_tag != nullptr) *out_tag = tag;
    return true;
  }
  const Mailbox::Item* best = nullptr;
  for (const auto& [key, b] : box.buckets) {
    if (b.q.empty()) continue;
    const Mailbox::Item& front = b.q.front();
    if (!envelope_matches(source, tag, front.msg.source, front.msg.tag)) continue;
    if (best == nullptr || front.seq < best->seq) best = &front;
  }
  if (best == nullptr) return false;
  if (out_source != nullptr) *out_source = best->msg.source;
  if (out_tag != nullptr) *out_tag = best->msg.tag;
  return true;
}

std::optional<Message> World::match_now(int self, int source, int tag) {
  Mailbox& box = *boxes_[static_cast<size_t>(self)];
  box.drain();
  return take_now(box, source, tag);
}

Message World::wait_match(int self, int source, int tag) {
  Mailbox& box = *boxes_[static_cast<size_t>(self)];
  if (send_fault_state(self) == kCutOff) park_until_drained(self);  // throws RankKilled
  bool parked = false;
  while (true) {
    box.drain();
    if (auto m = take_now(box, source, tag)) {
      if (parked) {
        ilps::LockGuard fl(state_->fin_mutex);
        --state_->parked_faulty;
      }
      return std::move(*m);
    }
    if (state_->aborted.load()) {
      throw CommError("recv interrupted: world aborted (" + state_->copy_abort_reason() +
                      ")");
    }
    if (send_fault_state(self) == kDoomed) {
      // A doomed rank (a server fenced it off) may never get a reply.
      // Count it as parked so quiescent peers can drain; a reply that
      // does arrive is still taken above, and once every other rank has
      // finished or parked, nothing can arrive: kill it.
      {
        ilps::LockGuard fl(state_->fin_mutex);
        if (!parked) {
          ++state_->parked_faulty;
          parked = true;
          state_->fin_cv.notify_all();
        }
        if (state_->finished + state_->parked_faulty >= size_) throw RankKilled{self};
      }
      // Poll: finish_rank() notifies box cvs without holding wake_mu, so a
      // timed wait avoids any lost-wakeup ordering subtleties.
      ilps::UniqueLock lock(box.wake_mu);
      box.cv.wait_for(lock, std::chrono::milliseconds(5));
      continue;
    }
    // Register the envelope, publish the flag, then re-drain before
    // sleeping (the Dekker pair of post()'s flag-store / flag-load).
    {
      ilps::LockGuard lock(box.wake_mu);
      box.waiting = true;
      box.want_source = source;
      box.want_tag = tag;
      box.notified = false;
    }
    box.maybe_waiting.store(true, std::memory_order_seq_cst);
    box.drain();
    if (auto m = take_now(box, source, tag)) {
      box.maybe_waiting.store(false, std::memory_order_seq_cst);
      {
        ilps::LockGuard lock(box.wake_mu);
        box.waiting = false;
        box.notified = false;
      }
      if (parked) {
        ilps::LockGuard fl(state_->fin_mutex);
        --state_->parked_faulty;
      }
      return std::move(*m);
    }
    {
      // The wait loop re-checks `aborted`: an abort that completed between
      // the loop-top check and our registration has already overwritten
      // and consumed its `notified = true`, and will never notify again.
      // It re-checks the doom too: doom() stores it before taking wake_mu
      // to notify, so it is seen here or its notify lands in the wait.
      ilps::UniqueLock lock(box.wake_mu);
      while (!box.notified && !state_->aborted.load() && send_fault_state(self) != kDoomed) {
        box.cv.wait(lock);
      }
      box.waiting = false;
      box.notified = false;
    }
    box.maybe_waiting.store(false, std::memory_order_seq_cst);
  }
}

std::optional<Message> World::wait_match_for(int self, int source, int tag, double seconds) {
  Mailbox& box = *boxes_[static_cast<size_t>(self)];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  while (true) {
    box.drain();
    if (auto m = take_now(box, source, tag)) return m;
    if (state_->aborted.load()) {
      throw CommError("recv interrupted: world aborted (" + state_->copy_abort_reason() +
                      ")");
    }
    {
      ilps::LockGuard lock(box.wake_mu);
      box.waiting = true;
      box.want_source = source;
      box.want_tag = tag;
      box.notified = false;
    }
    box.maybe_waiting.store(true, std::memory_order_seq_cst);
    box.drain();
    if (auto m = take_now(box, source, tag)) {
      box.maybe_waiting.store(false, std::memory_order_seq_cst);
      ilps::LockGuard lock(box.wake_mu);
      box.waiting = false;
      box.notified = false;
      return m;
    }
    bool signalled = false;
    {
      ilps::UniqueLock lock(box.wake_mu);
      // Timed wait loop: leave on a signal (or abort), or report a timeout
      // with the final state of the predicate, exactly like the
      // predicate-taking std overload.
      while (!box.notified && !state_->aborted.load()) {
        if (box.cv.wait_until(lock, deadline) == std::cv_status::timeout) break;
      }
      signalled = box.notified || state_->aborted.load();
      box.waiting = false;
      box.notified = false;
    }
    box.maybe_waiting.store(false, std::memory_order_seq_cst);
    if (!signalled) {
      // Timed out; one final pass through the same matching helper in case
      // a post raced the deadline.
      box.drain();
      return take_now(box, source, tag);
    }
  }
}

bool World::probe(int self, int source, int tag, int* out_source, int* out_tag) {
  Mailbox& box = *boxes_[static_cast<size_t>(self)];
  box.drain();
  return probe_now(box, source, tag, out_source, out_tag);
}

void World::abort(const std::string& why) {
  state_->set_abort_reason(why);
  state_->aborted.store(true);
  for (auto& box : boxes_) {
    {
      ilps::LockGuard lock(box->wake_mu);
      // Release waiters past their predicate so they observe the abort.
      box->notified = true;
    }
    box->cv.notify_all();
  }
  {
    ilps::LockGuard lock(state_->bar.mu);
  }
  state_->bar.cv.notify_all();
}

bool World::aborted() const { return state_->aborted.load(); }

// ---- barrier ----

void World::barrier_cross(int /*self*/) {
  auto& st = *state_;
  auto& bar = st.bar;
  // ordering: acquire pairs with the releaser's seq_cst generation flip,
  // so everything the previous episode's ranks wrote before arriving is
  // visible once we observe the flip.
  const uint64_t gen = bar.generation.load(std::memory_order_acquire);
  // ordering: acq_rel chains every arrival, so the last arriver's flip
  // happens-after all pre-barrier writes of every rank.
  const int pos = bar.arrived.fetch_add(1, std::memory_order_acq_rel);
  if (pos + 1 == size_) {
    // Last arriver: reset for the next episode, flip the generation, and
    // wake sleepers only if there are any (Dekker pair with the sleeper
    // increment below).
    // ordering: relaxed — only the last arriver writes, and the next
    // episode's arrivals are ordered behind the seq_cst flip below.
    bar.arrived.store(0, std::memory_order_relaxed);
    bar.generation.store(gen + 1, std::memory_order_seq_cst);
    st.barrier_fastpath.add(1);
    if (bar.sleepers.load(std::memory_order_seq_cst) > 0) {
      {
        ilps::LockGuard lock(bar.mu);
      }
      bar.cv.notify_all();
      st.collective_wakeups.add(1);
    }
    return;
  }
  for (int spin = 0; spin < kBarrierSpins; ++spin) {
    // ordering: acquire — observing the flip must also publish the other
    // ranks' pre-barrier writes to this rank.
    if (bar.generation.load(std::memory_order_acquire) != gen) {
      st.barrier_fastpath.add(1);
      return;
    }
    if (st.aborted.load()) {
      throw CommError("barrier interrupted: world aborted (" + st.copy_abort_reason() +
                      ")");
    }
    std::this_thread::yield();
  }
  bar.sleepers.fetch_add(1, std::memory_order_seq_cst);
  {
    ilps::UniqueLock lock(bar.mu);
    // ordering: acquire — same edge as the spin loop above, re-checked
    // under the wakeup mutex.
    while (bar.generation.load(std::memory_order_acquire) == gen && !st.aborted.load()) {
      bar.cv.wait(lock);
    }
  }
  bar.sleepers.fetch_sub(1, std::memory_order_seq_cst);
  // ordering: acquire — distinguishes a real release from an abort wakeup
  // while keeping the publication edge on the release path.
  if (bar.generation.load(std::memory_order_acquire) == gen) {
    throw CommError("barrier interrupted: world aborted (" + st.copy_abort_reason() + ")");
  }
}

// ---- fault injection ----

void World::set_fault_plan(FaultPlan plan) {
  state_->plan = std::move(plan);
  state_->fired.clear();
  for (size_t i = 0; i < state_->plan.actions.size(); ++i) {
    state_->fired.push_back(std::make_unique<ilps::Atomic<bool>>(false));
  }
}

std::vector<bool> World::fault_fired() const {
  std::vector<bool> out;
  out.reserve(state_->fired.size());
  for (const auto& f : state_->fired) out.push_back(f->load());
  return out;
}

std::vector<int> World::dead_ranks() const {
  std::vector<int> out;
  for (size_t i = 0; i < state_->dead.size(); ++i) {
    if (state_->dead[i] != 0) out.push_back(static_cast<int>(i));
  }
  return out;
}

char World::send_fault_state(int rank) const {
  return state_->send_fault[static_cast<size_t>(rank)].load();
}

void World::doom(int rank) {
  char clean = 0;
  state_->send_fault[static_cast<size_t>(rank)].compare_exchange_strong(clean, kDoomed);
  // Wake the rank if it is blocked in wait_match's unbounded wait, so it
  // re-checks and polls from now on.
  Mailbox& box = *boxes_[static_cast<size_t>(rank)];
  ilps::LockGuard lock(box.wake_mu);
  box.cv.notify_all();
}

void World::fire_faults(int rank, uint64_t unit, Comm::SendFault& next_send) {
  auto& st = *state_;
  for (size_t i = 0; i < st.plan.actions.size(); ++i) {
    const FaultAction& a = st.plan.actions[i];
    if (a.rank != rank || a.at_unit != unit) continue;
    if (st.fired[i]->exchange(true)) continue;  // each action fires once
    switch (a.kind) {
      case FaultAction::Kind::kKillRank:
        throw RankKilled{rank};
      case FaultAction::Kind::kHangRank:
        park_until_drained(rank);  // throws RankKilled when released
        break;
      case FaultAction::Kind::kDropMessage:
        next_send.armed = true;
        next_send.drop = true;
        break;
      case FaultAction::Kind::kDelayMessage:
        next_send.armed = true;
        next_send.delay_seconds += a.delay_seconds;
        break;
    }
  }
}

bool World::apply_send_fault(int rank, Comm::SendFault& next_send) {
  if (next_send.drop) {
    // The link is cut: this send and every later one are lost (next_send
    // stays armed), and the rank's next blocking recv parks until the
    // world drains. A client never receives a reply it could mistake for
    // the lost request's.
    state_->send_fault[static_cast<size_t>(rank)].store(kCutOff);
    return false;
  }
  // A delayed request that lands after the server fenced the silent
  // sender off may never be answered; the fence dooms the sender
  // (Comm::doom), so the delay itself needs no bookkeeping.
  const double delay = next_send.delay_seconds;
  next_send = {};
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  return true;
}

void World::on_rank_dead(int rank) {
  auto& st = *state_;
  if (static_cast<size_t>(rank) < st.dead.size()) st.dead[static_cast<size_t>(rank)] = 1;
  // Runs on the dying rank's own thread, so the instant lands in its
  // buffer — and exactly once per death (on_rank_dead has one call site).
  obs::instant(obs::EventKind::kRankDead, rank);
  log::warn("rank ", rank, " died");
  // Death notice to every surviving mailbox; fault-aware receivers (the
  // ADLB server) match kTagFault, everyone else never requests it.
  const std::vector<std::byte> empty;
  for (int r = 0; r < size_; ++r) {
    if (r != rank) post(rank, r, kTagFault, empty);
  }
}

void World::finish_rank() {
  {
    ilps::LockGuard lock(state_->fin_mutex);
    ++state_->finished;
    state_->fin_cv.notify_all();
  }
  // Wake doomed pollers blocked in wait_match so they observe the drain
  // (they use a timed wait with no predicate, so a bare notify suffices
  // and normal predicate-guarded waiters are not disturbed).
  for (auto& box : boxes_) box->cv.notify_all();
}

void World::park_until_drained(int rank) {
  {
    ilps::UniqueLock lock(state_->fin_mutex);
    ++state_->parked_faulty;
    state_->fin_cv.notify_all();
    while (state_->finished + state_->parked_faulty < size_) {
      state_->fin_cv.wait(lock);
    }
  }
  throw RankKilled{rank};
}

FaultPlan FaultPlan::random_kill(uint64_t seed, int first_rank, int last_rank,
                                 uint64_t lo_unit, uint64_t hi_unit) {
  Rng rng(seed);
  const int victim =
      first_rank + static_cast<int>(rng.next_below(
                       static_cast<uint64_t>(last_rank - first_rank + 1)));
  const uint64_t at = lo_unit + rng.next_below(hi_unit - lo_unit + 1);
  FaultPlan plan;
  plan.kill_rank(victim, at);
  return plan;
}

// ---- buffer recycling ----

void World::recycle_to_origin(int origin, std::vector<std::byte>&& buf) {
  Mailbox& box = *boxes_[static_cast<size_t>(origin)];
  ilps::LockGuard lock(box.ret_mu);
  if (box.returns.size() < kMaxPooled) box.returns.push_back(std::move(buf));
}

// ---- Comm ----

int Comm::size() const { return world_->size(); }

void Comm::send(int dest, int tag, std::span<const std::byte> data) {
  if (tag < 0 || tag >= kMaxUserTag) {
    throw CommError("user tag out of range: " + std::to_string(tag));
  }
  if (next_send_.armed && !world_->apply_send_fault(rank_, next_send_)) return;  // dropped
  world_->post(rank_, dest, tag, data);
  obs::instant(obs::EventKind::kMpiSend, dest, static_cast<int64_t>(data.size()));
}

void Comm::send(int dest, int tag, std::vector<std::byte>&& data) {
  if (tag < 0 || tag >= kMaxUserTag) {
    throw CommError("user tag out of range: " + std::to_string(tag));
  }
  const size_t n = data.size();
  if (next_send_.armed && !world_->apply_send_fault(rank_, next_send_)) return;  // dropped
  world_->post(rank_, dest, tag, std::move(data));
  obs::instant(obs::EventKind::kMpiSend, dest, static_cast<int64_t>(n));
}

void Comm::unit_taken() {
  ++units_taken_;
  if (!world_->state_->plan.empty()) world_->fire_faults(rank_, units_taken_, next_send_);
}

std::vector<std::byte> Comm::acquire_buffer() {
  if (pool_.empty()) {
    // Pull home any buffers peers deposited in our return box.
    auto& box = *world_->boxes_[static_cast<size_t>(rank_)];
    ilps::LockGuard lock(box.ret_mu);
    if (!box.returns.empty()) pool_.swap(box.returns);
  }
  if (!pool_.empty()) {
    std::vector<std::byte> buf = std::move(pool_.back());
    pool_.pop_back();
    world_->state_->pool_hits.add(1);
    return buf;
  }
  world_->state_->pool_misses.add(1);
  return {};
}

void Comm::recycle(std::vector<std::byte>&& buf) {
  // Small bounded freelist; beyond the cap buffers are just freed. Owned
  // by this rank's thread, so no lock.
  if (pool_.size() < kMaxPooled) pool_.push_back(std::move(buf));
}

void Comm::recycle(Message&& m) {
  if (m.source >= 0 && m.source < world_->size() && m.source != rank_) {
    world_->recycle_to_origin(m.source, std::move(m.data));
  } else {
    recycle(std::move(m.data));
  }
}

Message Comm::recv(int source, int tag) {
  Message m = world_->wait_match(rank_, source, tag);
  obs::instant(obs::EventKind::kMpiRecv, m.source, static_cast<int64_t>(m.data.size()));
  return m;
}

std::optional<Message> Comm::recv_for(double seconds, int source, int tag) {
  auto m = world_->wait_match_for(rank_, source, tag, seconds);
  if (m) {
    obs::instant(obs::EventKind::kMpiRecv, m->source, static_cast<int64_t>(m->data.size()));
  }
  return m;
}

std::optional<Message> Comm::try_recv(int source, int tag) {
  return world_->match_now(rank_, source, tag);
}

bool Comm::iprobe(int source, int tag, int* out_source, int* out_tag) {
  return world_->probe(rank_, source, tag, out_source, out_tag);
}

void Comm::barrier() { world_->barrier_cross(rank_); }

void Comm::broadcast(std::vector<std::byte>& data, int root) {
  // Binomial tree rooted at `root` (ranks taken relative to the root, as
  // in MPICH): each subtree head receives once, then forwards to
  // log-many children.
  const int n = size();
  const int rel = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int parent = (rank_ - mask + n) % n;
      data = world_->wait_match(rank_, parent, kTagBcast).data;
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (rel + mask < n) {
      const int child = (rank_ + mask) % n;
      world_->post(rank_, child, kTagBcast, data);
    }
  }
}

int64_t Comm::reduce_sum(int64_t value, int root) {
  // Binomial fan-in mirroring broadcast's tree. Integer addition is
  // exactly associative, so the tree order matches the old flat sum.
  const int n = size();
  const int rel = (rank_ - root + n) % n;
  int64_t total = value;
  for (int mask = 1; mask < n; mask <<= 1) {
    if (rel & mask) {
      const int parent = (rank_ - mask + n) % n;
      ser::Writer w;
      w.put_i64(total);
      world_->post(rank_, parent, kTagReduce, w.bytes());
      return 0;
    }
    if (rel + mask < n) {
      const int child = (rank_ + mask) % n;
      Message m = world_->wait_match(rank_, child, kTagReduce);
      total += m.reader().get_i64();
    }
  }
  return total;  // only the root reaches here
}

int64_t Comm::allreduce_sum(int64_t value) {
  int64_t total = reduce_sum(value, 0);
  ser::Writer w;
  w.put_i64(total);
  std::vector<std::byte> buf = w.take();
  broadcast(buf, 0);
  return ser::Reader(buf).get_i64();
}

double Comm::allreduce_sum(double value) {
  // Route through gather so every rank sums in the same order and the
  // result is bit-identical everywhere (a tree reduction would change the
  // floating-point association).
  ser::Writer w;
  w.put_f64(value);
  auto parts = gather(w.bytes(), 0);
  std::vector<std::byte> buf;
  if (rank_ == 0) {
    double total = 0;
    for (const auto& p : parts) total += ser::Reader(p).get_f64();
    ser::Writer out;
    out.put_f64(total);
    buf = out.take();
  }
  broadcast(buf, 0);
  return ser::Reader(buf).get_f64();
}

std::vector<std::vector<std::byte>> Comm::gather(std::span<const std::byte> data, int root) {
  // Gather stays flat: the root needs every rank's payload anyway, so a
  // tree only adds store-and-forward copies of the concatenated data.
  std::vector<std::vector<std::byte>> out;
  if (rank_ == root) {
    out.resize(static_cast<size_t>(size()));
    out[static_cast<size_t>(root)] = {data.begin(), data.end()};
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      Message m = world_->wait_match(rank_, r, kTagGather);
      out[static_cast<size_t>(r)] = std::move(m.data);
    }
  } else {
    world_->post(rank_, root, kTagGather, data);
  }
  return out;
}

double Comm::wtime() const { return ilps::wtime(); }

void Comm::doom(int rank) { world_->doom(rank); }

void Comm::abort(const std::string& why) { world_->abort(why); }

}  // namespace ilps::mpi
