// ilps::mpi — a message-passing library with MPI semantics whose ranks are
// OS threads. It exists so the ADLB and Turbine layers above it are written
// exactly as they would be against real MPI: ranks share nothing, and all
// communication is explicit sends and receives of serialized byte buffers
// matched by (source, tag).
//
// Differences from real MPI, by design:
//  - sends are always eager/buffered (never block on the receiver);
//  - collectives are implemented over point-to-point with reserved tags;
//  - a rank that throws aborts the world, waking peers blocked in recv.
//
// Fault injection (src/ckpt's substrate): a World can carry a FaultPlan
// that kills a rank when it takes its Nth unit of work, makes it hang, or
// drops/delays its next message. A killed rank does NOT abort the world —
// its thread exits, a death notice (kTagFault) is posted to every
// surviving mailbox, and the upper layers (the ADLB server's
// heartbeat/requeue logic) are expected to recover. This mirrors an
// MPI-ULFM/SCR failure model on the thread-backed transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer.h"

namespace ilps::obs {
class Session;
}

namespace ilps::mpi {

// Wildcards for recv/probe matching, as in MPI.
inline constexpr int ANY_SOURCE = -1;
inline constexpr int ANY_TAG = -1;

// User tags must lie in [0, kMaxUserTag); larger tags are reserved for
// collectives implemented inside this library.
inline constexpr int kMaxUserTag = 1 << 24;

// Reserved tag for rank-death notices. When a rank dies under a FaultPlan
// the World posts an empty message with this tag (source = dead rank) to
// every other mailbox; fault-aware receivers (the ADLB server) request it
// explicitly, everyone else never matches it.
inline constexpr int kTagFault = kMaxUserTag + 64;

// ANY_TAG matches user tags only (tag < kMaxUserTag): a plain
// recv(ANY_SOURCE, ANY_TAG) must never consume a reserved-tag message — a
// death notice or a collective payload racing past it would be silently
// swallowed. Fault-aware receivers (the ADLB server loop) use this
// wildcard instead, which additionally matches kTagFault (but still not
// the collective tags).
inline constexpr int ANY_TAG_OR_FAULT = -2;

// ---- Fault injection ----

// One scripted failure. `at_unit` counts the units of work the victim
// rank has taken (1-based, Comm::unit_taken): the action fires when the
// rank takes its Nth unit, before it runs it. The clock is logical, so a
// plan names the same point in the program however the transport batches
// its frames and however the ranks share the work.
struct FaultAction {
  enum class Kind : uint8_t {
    kKillRank,      // the rank dies holding its Nth unit
    kHangRank,      // the rank blocks holding its Nth unit (hung worker);
                    // released and killed only when every other rank has
                    // finished
    kDropMessage,   // the rank's link is cut from its next send after its
                    // Nth unit: that send and every later one are lost,
                    // and its next blocking recv parks until the world
                    // drains, then it dies (lost-request model; every
                    // client exchange ends in a blocking recv)
    kDelayMessage,  // the rank's next send after its Nth unit is delivered
                    // after delay_seconds (the sender blocks, modelling a
                    // slow link); if the run ends before its reply comes
                    // (the server fenced the silent sender off), it dies
                    // at drain like a dropped-message sender
  };
  Kind kind = Kind::kKillRank;
  int rank = -1;
  uint64_t at_unit = 0;
  double delay_seconds = 0.0;
};

// A scripted failure scenario, attached to a World before run(). Actions
// fire at most once; World::fault_fired() reports which ones did, so a
// restart driver can drop consumed faults before re-running.
struct FaultPlan {
  std::vector<FaultAction> actions;

  bool empty() const { return actions.empty(); }

  FaultPlan& kill_rank(int rank, uint64_t at_unit) {
    actions.push_back({FaultAction::Kind::kKillRank, rank, at_unit, 0.0});
    return *this;
  }
  FaultPlan& hang_rank(int rank, uint64_t at_unit) {
    actions.push_back({FaultAction::Kind::kHangRank, rank, at_unit, 0.0});
    return *this;
  }
  FaultPlan& drop_message(int rank, uint64_t at_unit) {
    actions.push_back({FaultAction::Kind::kDropMessage, rank, at_unit, 0.0});
    return *this;
  }
  FaultPlan& delay_message(int rank, uint64_t at_unit, double delay_seconds) {
    actions.push_back({FaultAction::Kind::kDelayMessage, rank, at_unit, delay_seconds});
    return *this;
  }

  // Deterministically scripted random kill: picks a victim in
  // [first_rank, last_rank] and a unit number in [lo_unit, hi_unit] from
  // the seed (common/rng.h), so fault sweeps are reproducible.
  static FaultPlan random_kill(uint64_t seed, int first_rank, int last_rank, uint64_t lo_unit,
                               uint64_t hi_unit);
};

// Thrown inside a rank thread to terminate it under a FaultPlan.
// Deliberately NOT derived from std::exception: script-level catch
// handlers (MiniTcl `catch`, MiniPy `except`) must not intercept a rank
// death.
struct RankKilled {
  int rank = -1;
};

struct Message {
  int source = ANY_SOURCE;
  int tag = ANY_TAG;
  std::vector<std::byte> data;

  ser::Reader reader() const { return ser::Reader(data); }
};

// Aggregate traffic counters for a World; read them after run() returns or
// accept slightly stale values during a run.
struct TrafficStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  // Wakeup protocol: a post() only signals the destination's condition
  // variable when a receiver is registered as blocked on a matching
  // envelope. `wakeups` counts posts that signalled; `wakeups_suppressed`
  // counts posts that skipped the syscall (no waiter, or the waiter wants
  // a different envelope).
  uint64_t wakeups = 0;
  uint64_t wakeups_suppressed = 0;
  // Send-buffer freelist: pool_hits counts sends served from a recycled
  // buffer, pool_misses counts sends that had to allocate.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  // Shared-memory collectives. `barrier_fastpath` counts rank-crossings of
  // the sense-reversing barrier that completed without sleeping on the
  // condition variable; `collective_wakeups` counts the notify episodes the
  // barrier releaser had to issue (each one wakes every sleeper at once,
  // replacing the per-edge message wakeups of the old binomial tree).
  uint64_t barrier_fastpath = 0;
  uint64_t collective_wakeups = 0;
};

class World;

// A rank's handle to the world. Each rank thread receives its own Comm;
// Comm objects must not be shared across rank threads.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  // Point-to-point. send never blocks; recv blocks until a matching
  // message arrives or the world aborts (then it throws CommError).
  void send(int dest, int tag, std::span<const std::byte> data);
  void send(int dest, int tag, const ser::Writer& w) { send(dest, tag, w.bytes()); }
  // Zero-copy sends: the buffer travels to the destination mailbox without
  // an intermediate heap copy. Preferred on hot paths.
  void send(int dest, int tag, ser::Writer&& w) { send(dest, tag, w.take()); }
  void send(int dest, int tag, std::vector<std::byte>&& data);
  void send_str(int dest, int tag, std::string_view s) { send(dest, tag, ser::as_bytes(s)); }

  // Buffer pool. writer() hands out a serialization writer backed by a
  // recycled buffer (capacity reuse, no allocation in steady state);
  // recycle() returns a consumed message buffer to this rank's freelist.
  // Buffers migrate between ranks inside messages: a request buffer
  // recycled by the server comes back to the client inside a reply.
  ser::Writer writer() { return ser::Writer(acquire_buffer()); }
  void recycle(std::vector<std::byte>&& buf);
  // Recycle a consumed message back to the rank that allocated it (the
  // sender). One-way flows (streams, fan-in) never send a reply that could
  // carry the buffer home, so without this the receiver's pool grows while
  // the sender allocates every message; routing the empty buffer to the
  // origin's return box primes the sender's freelist instead.
  void recycle(Message&& m);

  Message recv(int source = ANY_SOURCE, int tag = ANY_TAG);

  // Blocking receive with a deadline: returns nullopt if no matching
  // message arrives within `seconds` (the ADLB server's heartbeat poll).
  std::optional<Message> recv_for(double seconds, int source = ANY_SOURCE, int tag = ANY_TAG);

  // Non-blocking receive: returns the message if one matches now.
  std::optional<Message> try_recv(int source = ANY_SOURCE, int tag = ANY_TAG);

  // Non-blocking probe: reports whether a matching message is queued and,
  // if so, its envelope.
  bool iprobe(int source, int tag, int* out_source = nullptr, int* out_tag = nullptr);

  // Collectives. Every rank must call these in the same order.
  void barrier();
  void broadcast(std::vector<std::byte>& data, int root);
  int64_t reduce_sum(int64_t value, int root);
  int64_t allreduce_sum(int64_t value);
  double allreduce_sum(double value);
  std::vector<std::vector<std::byte>> gather(std::span<const std::byte> data, int root);

  // Wall-clock seconds (MPI_Wtime analogue).
  double wtime() const;

  // The FaultPlan trigger clock: records that this rank took one unit of
  // work. adlb::Client::get calls it for every unit it returns; a program
  // without ADLB calls it where its own unit of work begins. A kill or
  // hang planned for this unit fires here (throwing RankKilled); a drop or
  // delay arms for this rank's next send.
  void unit_taken();

  // Marks `rank` as one whose outstanding requests may never be answered
  // (the ADLB server fenced it off as dead while it may still be alive).
  // Its blocking receives poll from now on and still take any reply that
  // arrives; once every other rank has finished or parked, it dies
  // (RankKilled) instead of blocking World::run's join.
  void doom(int rank);

  // Signals all ranks that the program is being torn down abnormally.
  void abort(const std::string& why);

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  // Pops a buffer from the freelist (or allocates). Owner-thread only —
  // like the Comm itself — so the pool needs no lock.
  std::vector<std::byte> acquire_buffer();

  // A drop or delay armed by unit_taken(), applied to the next send.
  struct SendFault {
    bool armed = false;
    bool drop = false;
    double delay_seconds = 0;
  };

  World* world_;
  int rank_;
  uint64_t units_taken_ = 0;  // the FaultPlan trigger clock
  SendFault next_send_;
  std::vector<std::vector<std::byte>> pool_;  // recycled send/recv buffers
};

// Owns the mailboxes and the rank threads. Usage:
//
//   World world(8);
//   world.run([](Comm& comm) { ... rank body ... });
//
// run() joins every rank and rethrows the first rank exception, if any.
class World {
 public:
  explicit World(int size);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return size_; }

  void run(const std::function<void(Comm&)>& rank_main);

  TrafficStats stats() const;

  // Installs the failure scenario for the next run(). Must not be called
  // while a run is in progress.
  void set_fault_plan(FaultPlan plan);

  // Which plan actions fired during the last run (parallel to
  // plan.actions). A restart driver drops fired actions before retrying.
  std::vector<bool> fault_fired() const;

  // Ranks that died during the last run: kill/hang/drop faults, and ranks
  // doomed by a server fence that were still waiting at drain.
  std::vector<int> dead_ranks() const;

  // Per-rank event buffers (src/obs), allocated lazily at run() when
  // obs::trace_enabled(). Null when tracing is off. Read after run()
  // returns — this is the "gather all ranks' buffers" step (trivially so
  // on the thread-backed transport: joining the rank threads is the
  // gather).
  const obs::Session* obs_session() const { return obs_.get(); }

 private:
  friend class Comm;
  struct Mailbox;

  void post(int source, int dest, int tag, std::vector<std::byte>&& data);
  void post(int source, int dest, int tag, std::span<const std::byte> data);
  Message wait_match(int self, int source, int tag);
  std::optional<Message> wait_match_for(int self, int source, int tag, double seconds);
  std::optional<Message> match_now(int self, int source, int tag);
  bool probe(int self, int source, int tag, int* out_source, int* out_tag);
  // The one matching routine (owner thread only, after draining the
  // per-source lanes into the private buckets): pops the oldest message
  // matching (source, tag) or returns nullopt. Every recv variant —
  // blocking, timed (including its post-timeout rescan), and non-blocking
  // — goes through here, so the paths cannot drift.
  static std::optional<Message> take_now(Mailbox& box, int source, int tag);
  static bool probe_now(const Mailbox& box, int source, int tag, int* out_source,
                        int* out_tag);
  void recycle_to_origin(int origin, std::vector<std::byte>&& buf);
  void barrier_cross(int self);
  void abort(const std::string& why);
  bool aborted() const;

  // FaultPlan machinery (world.cc). fire_faults runs the actions planned
  // for `rank`'s Nth unit: it throws RankKilled for kill/hang and arms
  // drop/delay in `next_send`. apply_send_fault applies an armed drop or
  // delay to the send in progress; it returns false when the message must
  // be dropped.
  void fire_faults(int rank, uint64_t unit, Comm::SendFault& next_send);
  bool apply_send_fault(int rank, Comm::SendFault& next_send);
  void on_rank_dead(int rank);                          // notice + bookkeeping
  void finish_rank();
  void park_until_drained(int rank);  // hung/cut-off ranks; throws RankKilled
  void doom(int rank);                    // Comm::doom
  char send_fault_state(int rank) const;  // kDoomed / kCutOff / 0

  int size_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::unique_ptr<struct WorldState> state_;
  std::unique_ptr<obs::Session> obs_;
};

}  // namespace ilps::mpi
