// The ADLB server: owns work queues and the data store for its shard,
// matches work to parked Gets, rebalances untargeted work across servers,
// and participates in Safra's termination-detection ring.
//
// Concurrency model: the server is a single message loop; every client RPC
// is handled atomically (receive -> mutate -> reply), which is what lets
// termination detection count only server<->server traffic (see
// protocol.h).
//
// Load rebalancing ("stealing"): a server whose clients are parked with an
// empty queue broadcasts a Hungry notice for that work type. Peers holding
// surplus untargeted work respond with a batch (half their queue), and
// remember hungry peers so later Puts with no local taker are forwarded.
// This is a push-triggered variant of ADLB's random-victim stealing with
// the same observable behaviour: idle workers drain busy servers.
//
// Termination (Safra's algorithm over the server ring): each server keeps
// a count of server->server "basic" messages sent minus received and a
// color that blackens on receipt. Server 0, when locally quiet (all its
// clients parked in Get, queues empty), circulates a token that
// accumulates counts; a white round with zero total while quiet proves
// global quiescence, and every parked Get is released with a shutdown
// notice.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "adlb/protocol.h"
#include "ckpt/snapshot.h"
#include "common/stats.h"
#include "common/rng.h"
#include "mpi/comm.h"

namespace ilps::adlb {

struct ServerStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t matches = 0;          // work units handed to clients
  uint64_t forwards = 0;         // targeted units relayed to another server
  uint64_t hungry_notices = 0;   // notices broadcast by this server
  uint64_t batches_sent = 0;     // rebalance batches shipped to peers
  uint64_t units_rebalanced = 0; // work units inside those batches
  uint64_t steal_batches = 0;      // multi-unit kForwardPut messages sent
  uint64_t steal_batch_units = 0;  // work units inside those messages
  uint64_t notifications = 0;    // close notifications produced
  uint64_t data_ops = 0;
  uint64_t tokens = 0;           // termination tokens handled
  uint64_t leftover_data = 0;    // unclosed data at shutdown (diagnostic)
  uint64_t stuck_datums = 0;     // unclosed data somebody subscribed to (deadlock evidence)

  // ---- recovery ----
  uint64_t requeues = 0;          // units re-dispatched after a failure
  uint64_t task_failures = 0;     // kTaskFailed reports received
  uint64_t heartbeat_deaths = 0;  // clients declared dead by silence
  uint64_t checkpoints = 0;       // checkpoint files written
  uint64_t replay_skips = 0;      // units skipped as already completed

  static constexpr StatField<ServerStats> kFields[] = {
      {"adlb.puts", &ServerStats::puts},
      {"adlb.gets", &ServerStats::gets},
      {"adlb.matches", &ServerStats::matches},
      {"adlb.forwards", &ServerStats::forwards},
      {"adlb.hungry_notices", &ServerStats::hungry_notices},
      {"adlb.batches_sent", &ServerStats::batches_sent},
      {"adlb.units_rebalanced", &ServerStats::units_rebalanced},
      {"adlb.steal_batches", &ServerStats::steal_batches},
      {"adlb.steal_batch_units", &ServerStats::steal_batch_units},
      {"adlb.notifications", &ServerStats::notifications},
      {"adlb.data_ops", &ServerStats::data_ops},
      {"adlb.tokens", &ServerStats::tokens},
      {"adlb.leftover_data", &ServerStats::leftover_data},
      {"adlb.stuck_datums", &ServerStats::stuck_datums},
      {"adlb.requeues", &ServerStats::requeues},
      {"adlb.task_failures", &ServerStats::task_failures},
      {"adlb.heartbeat_deaths", &ServerStats::heartbeat_deaths},
      {"adlb.checkpoints", &ServerStats::checkpoints},
      {"adlb.replay_skips", &ServerStats::replay_skips},
  };
  ServerStats& operator+=(const ServerStats& o) { return add_stats(*this, o); }
};

class Server {
 public:
  // `restore`, when given, preloads the data store, completed-task
  // fingerprints, and progress counters from a checkpoint snapshot
  // (restart-from-checkpoint; requires nservers == 1).
  Server(mpi::Comm& comm, const Config& cfg, const ckpt::Snapshot* restore = nullptr);

  // Runs the message loop until global termination. Returns normally
  // after releasing all parked clients.
  void serve();

  const ServerStats& stats() const { return stats_; }

 private:
  struct QueuedUnit {
    int priority;
    int64_t seq;  // FIFO among equal priorities
    WorkUnit unit;
  };

  struct Datum {
    DataType type = DataType::kVoid;
    bool closed = false;
    bool has_value = false;
    std::string value;
    std::map<std::string, std::string> entries;
    int read_refs = 1;
    int write_refs = 1;
    std::vector<std::pair<int, int>> subscribers;  // (client rank, notify type)
  };

  // ---- message dispatch ----
  void dispatch(const mpi::Message& m);
  void handle_request(const mpi::Message& m);
  void handle_server(const mpi::Message& m);
  void after_dispatch();

  // ---- recovery ----
  bool is_engine_client(int client) const { return client < cfg_.nengines; }
  void handle_task_failed(int source, ser::Reader& r);
  void on_rank_dead_notice(int rank);   // kTagFault arrived for `rank`
  void on_client_dead(int client);      // bookkeeping + requeue + abort checks
  // Declares silent busy clients dead; true if it declared any (their
  // requeued work may sit in the forward outbox until after_dispatch).
  bool check_heartbeats();
  void requeue_or_fail(WorkUnit unit, int rank, const std::string& why);
  bool flush_deferred();                // requeue backoff expiries; true if any
  // The client finished the units it holds up to unit `through` (all of
  // them when `through` is 0), and `through` itself unless it `failed`;
  // those units leave its in-flight batch.
  void complete_inflight(int client, int64_t through = 0, bool failed = false);
  void note_completion(const WorkUnit& unit);
  void maybe_checkpoint();
  ckpt::Snapshot snapshot() const;
  void restore(const ckpt::Snapshot& snap);

  // ---- tasks ----
  // Serve accounting: the first server to see an uncounted request-tagged
  // unit registers it with the request's owner engine by emitting a spawn
  // notice (+1) before accepting the unit. Eager-transport FIFO then
  // guarantees the +1 reaches the owner before the unit's eventual done
  // notice (-1), so the owner's active count can never touch zero while
  // work is still in flight.
  void maybe_spawn_notice(WorkUnit& unit);
  // Assigns a globally unique id to a not-yet-named unit.
  void name_unit(WorkUnit& unit);
  // Accepts a unit that belongs on this server (or forwards a targeted
  // unit to its home server).
  void accept_unit(WorkUnit unit);
  // Writes a unit into a Get reply to `client`. A close notification is
  // followed by its carried-value record (protocol.h): the datum's
  // retrieve result when this shard owns it and it is alive, closed and
  // holds a value of at most kNotifyValueBytes.
  void write_delivered(ser::Writer& w, int client, const WorkUnit& unit);
  // One kGotWorkBatch reply carrying `units` (several on the Get fast
  // path). A worker's units then move into its in-flight batch, so a
  // failure can requeue them.
  void deliver(int client, std::span<WorkUnit> units);
  void handle_get(int source, int type);
  void evaluate_hunger();
  void send_batch(int peer, int type);
  // Cross-server forwards (targeted relays, hungry-peer handoffs) are
  // coalesced per destination into one kForwardPut and flushed at the end
  // of the dispatch cycle — unit-at-a-time forwarding is the per-message
  // cost the steal path used to pay.
  void forward_unit(int dest, const WorkUnit& unit);
  void flush_forwards();

  // ---- data ----
  // The synchronous datum ops: reads and the serve sweeps.
  void handle_data_op(int source, Op op, ser::Reader& r);
  // Performs one kDataBatch sub-op (create/store/close/subscribe/
  // ref_incr/write_incr/insert on datum `id`); returns how many close
  // notifications it queued back to `source`. A repeated write is
  // accepted only when `replay` is set. Throws DataError on
  // failure — always after fully consuming the sub-op's arguments, so the
  // batch loop can catch and keep parsing.
  uint32_t apply_data_mutation(int source, Op op, int64_t id, bool replay, ser::Reader& r);
  Datum& find_datum(int64_t id, const char* op);
  // Queues one close notification for `id`: a targeted kUnitNotify unit
  // of `notify_type` for `rank`, whose payload is the decimal id.
  void notify(int64_t id, int rank, int notify_type);
  // Closes the datum and queues one notification unit per subscriber.
  // Returns how many of those notifications target `rpc_source` itself:
  // the count rides back on the kAckBatch so an owner engine can account
  // for close notifications it has just mailed to itself (see
  // maybe_spawn_notice).
  uint32_t do_close(int64_t id, Datum& datum, int rpc_source);
  // Appends one retrieve result (value, cacheable flag, GC epoch) and
  // records the handout when cacheable (shared by kMultiRetrieve and a
  // notification's carried value).
  void write_retrieve_result(ser::Writer& w, int source, int64_t id, const Datum& d);
  uint64_t epoch_of(int64_t id) const;
  // Refcount GC: bump the id's epoch and queue an invalidation for every
  // client holding its bytes, then erase it from the store.
  void gc_datum(int64_t id);

  // ---- termination ----
  bool quiet() const;
  void initiate_token();
  void try_forward_token();
  void shutdown_all();
  void release_parked();
  // Counts an unclosed datum left at shutdown or by a namespace sweep;
  // true (and logged) if rules still wait on it.
  bool count_unclosed(int64_t id, const Datum& d);

  // ---- replies ----
  // Every reply to a client starts with the invalidation header (see
  // protocol.h); this writer drains dest's pending invalidations into it.
  ser::Writer reply_writer(int dest);
  void reply_ack(int dest);
  void reply_error(int dest, const std::string& message);
  void send_basic(int dest, const ser::Writer& w);

  mpi::Comm& comm_;
  Config cfg_;
  int index_;        // server index in [0, nservers)
  int next_server_;  // ring successor (server rank)
  std::vector<int> my_clients_;
  std::vector<int> peer_servers_;

  // Work state.
  int64_t seq_ = 0;
  std::vector<std::map<std::pair<int, int64_t>, WorkUnit>> untargeted_;  // [type]{(-prio,seq)}
  std::map<std::pair<int, int>, std::deque<WorkUnit>> targeted_;        // (rank, type)
  std::vector<std::deque<int>> parked_;                                  // [type] client ranks
  std::unordered_map<int, int> parked_clients_;  // client -> type it waits for
  std::vector<bool> announced_;                 // [type] hungry notice outstanding
  std::vector<std::deque<int>> hungry_peers_;   // [type] server ranks
  struct ForwardBatch {
    ser::Writer w;    // open kForwardPut frame
    uint64_t n = 0;   // units appended
  };
  // Coalesced cross-server forwards, flushed by flush_forwards() before
  // any termination-token handling (quiet() counts a non-empty outbox as
  // pending work).
  std::map<int, ForwardBatch> forward_outbox_;

  // Data store shard.
  std::unordered_map<int64_t, Datum> store_;
  // Serve namespace index: ids created under a request (kCreate with
  // req != 0), swept wholesale by kFreeNamespace when the request
  // finishes. Ids already refcount-GC'd are skipped at sweep time.
  std::unordered_map<int64_t, std::vector<int64_t>> req_index_;

  // Client-cache coherence (handouts are only recorded for replies marked
  // cacheable).
  std::unordered_map<int64_t, uint64_t> gc_epochs_;     // id -> deletions seen
  std::unordered_map<int64_t, std::set<int>> handouts_; // id -> clients holding bytes
  std::unordered_map<int, std::vector<std::pair<int64_t, uint64_t>>>
      pending_inval_;  // client -> (id, epoch) to ride the next reply

  // Recovery state. A worker's in-flight batch is every unit delivered to
  // it that it has not been seen to finish (by a Get or a kTaskDone); its
  // vector keeps its capacity, so tracking allocates nothing per unit.
  std::unordered_map<int, std::vector<WorkUnit>> inflight_;  // client -> batch
  std::vector<std::pair<double, WorkUnit>> deferred_;  // (ready time, requeued unit)
  std::unordered_map<int, double> last_seen_;   // client -> last RPC time
  std::set<int> dead_clients_;                  // global (all servers learn)
  int64_t next_unit_id_ = 1;
  int64_t tasks_completed_ = 0;
  uint64_t ckpt_seq_ = 0;
  bool restored_ = false;  // this run started from a checkpoint: every op
                           // is a replay of the engine program
  // A restart replays the whole engine program against the snapshot, so
  // while checkpointing (or restored) freed datums stay as tombstones and
  // completed tasks are fingerprinted; otherwise neither builds up.
  bool checkpointing_ = false;
  // Completed-task fingerprint -> remaining skip budget (a multiset:
  // identical payloads may legitimately run more than once).
  std::unordered_map<uint64_t, int> done_fingerprints_;

  // Termination detection.
  int64_t basic_count_ = 0;  // sent - received server basic messages
  bool black_ = false;
  bool token_outstanding_ = false;  // only meaningful on server 0
  std::optional<std::pair<int64_t, bool>> pending_token_;  // (q, black)
  bool done_ = false;

  ServerStats stats_;
  Rng rng_;
};

}  // namespace ilps::adlb
