// ADLB wire protocol and role layout.
//
// This module reimplements the MPI-based Asynchronous Dynamic Load
// Balancer (Lusk, Pieper & Butler) as used by Swift/T's Turbine engine:
// the last `nservers` ranks are servers; every other rank is a client
// (Turbine engine or worker) assigned to one home server. Clients submit
// work with Put and block in Get; servers match work to parked Gets,
// rebalance across servers (a hungry-server variant of ADLB's random
// stealing), own the Turbine data store, and detect global quiescence with
// a Dijkstra-style token ring, at which point every parked Get is released
// with a shutdown notice.
//
// Every client request is answered (a reply, or a kAckBatch for a
// write-behind kDataBatch), and a client drains all its outstanding
// answers before it parks in Get: this gives the termination detector the
// invariant that a parked client has no messages in flight, so only
// server<->server traffic needs to be counted.
//
// The ack-only datum ops (create/store/close/subscribe/ref_incr/
// write_incr/insert) exist only as kDataBatch sub-ops. Every one of them
// is write-behind: buffered per owning server, shipped before any other
// request leaves the client (so cross-client read-after-write still holds
// through task causality), and acknowledged by one coalesced kAckBatch
// per batch. Server errors surface as DataError at the client's next
// synchronous boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/buffer.h"
#include "mpi/comm.h"

namespace ilps::adlb {

// Work-unit types, by Turbine convention: control tasks run on engines,
// work tasks on workers. Additional user types are permitted (< ntypes).
inline constexpr int kTypeWork = 0;
inline constexpr int kTypeControl = 1;

// Put target meaning "any rank".
inline constexpr int kAnyRank = -1;

// Queue priority of close notifications and serve spawn notices: above
// any user work, so dataflow graphs keep unfolding ahead of leaf tasks.
inline constexpr int kNotificationPriority = 1 << 20;

// Fast-path batch sizes. Puts are buffered client-side and shipped as one
// kPutBatch request of up to kPutBatchUnits units; the buffer is always
// flushed before any other RPC, so a parked client still has nothing in
// flight (the termination detector's invariant) and server-side ordering
// is unchanged. A Get may be answered with up to kGetBatchUnits units of
// the requested type in one kGotWorkBatch reply; the client runs them off
// a local prefetch queue, skipping whole round trips per task. Datum
// sub-ops accumulate per owning server up to kDataBatchOps before a
// kDataBatch ships on its own (any synchronous exchange also ships
// partial batches); at most kDataPipelineWindow shipped batches per
// server wait for their kAckBatch before the client stalls on the oldest.
// A close notification delivered by the datum's owning shard carries the
// value of a closed scalar of at most kNotifyValueBytes bytes (see the
// Get replies below), so the rule it fires reads its input from the
// client's datum cache instead of a retrieve round trip.
inline constexpr int kPutBatchUnits = 16;
inline constexpr int kGetBatchUnits = 4;
inline constexpr uint32_t kDataBatchOps = 16;
inline constexpr int kDataPipelineWindow = 8;
inline constexpr size_t kNotifyValueBytes = 256;

struct Config {
  int nservers = 1;
  int ntypes = 2;
  // Rebalancing batch policy: ship half the queue per Hungry notice (ADLB
  // steal-half) or a single unit. Ablated in bench_ablation.
  bool steal_half = true;

  // ---- client-side datum cache ----
  // Byte budget in MiB for the per-rank read-through cache of closed
  // datums. 0 disables the cache; -1 reads ILPS_DATA_CACHE_MB from the
  // environment (default 64 when unset). Coherence: a closed datum is
  // immutable (single assignment), and refcount-driven deletion
  // piggybacks (id, epoch) invalidations on every server->client reply,
  // so a recycled id never serves stale bytes (see docs/datastore.md).
  int data_cache_mb = -1;

  // ---- fault tolerance (the src/ckpt substrate) ----
  // When ft is set the server tracks in-flight work per client, requeues
  // a dead client's unit (bounded by max_task_retries), treats replayed
  // data ops as idempotent, and — if ckpt_interval > 0 — checkpoints the
  // data store every ckpt_interval completed leaf tasks into ckpt_dir.
  // Clients talk to the servers exactly as without ft: batching, the
  // datum pipeline and the datum cache stay on.
  bool ft = false;
  int nengines = 1;              // client ranks < nengines are engines:
                                 // their death is unrecoverable in place
  int max_task_retries = 2;      // per-unit requeue budget
  int retry_backoff_ms = 2;      // requeue delay, doubled per attempt
                                 // (exponential backoff); 0 = immediate
  int heartbeat_timeout_ms = 0;  // busy client silent this long is declared
                                 // dead (hung-worker detection); 0 = off
  int ckpt_interval = 0;         // completed tasks between checkpoints
  std::string ckpt_dir;          // checkpoint directory (empty = no files)

  bool operator==(const Config&) const = default;
};

// Serve-runtime flags on a WorkUnit (src/serve). A request-tagged unit
// (req != 0) participates in per-request completion accounting on its
// owner engine; these bits keep that accounting exact.
inline constexpr uint8_t kUnitServeCtl = 1;  // serve bookkeeping notice, not
                                             // user work: never counted, never
                                             // a task, dispatched by the engine
                                             // loop in C++
inline constexpr uint8_t kUnitCounted = 2;   // +1 already registered with the
                                             // owner (locally or via a spawn
                                             // notice); re-puts must not count
                                             // it again
inline constexpr uint8_t kUnitReqBegin = 4;  // request seed: the target engine
                                             // becomes the owner, begins the
                                             // request, and evaluates the
                                             // payload as its entry script
inline constexpr uint8_t kUnitNotify = 8;    // close notification: the payload
                                             // is the datum id, and a Get reply
                                             // follows the unit with its
                                             // carried-value record

// A unit of work travelling through ADLB.
struct WorkUnit {
  int type = kTypeWork;
  int priority = 0;
  int target = kAnyRank;   // specific rank, or kAnyRank
  int answer = kAnyRank;   // rank to send an application-level answer to
  std::string payload;
  int64_t id = 0;          // server-assigned identity (0 = not yet assigned);
                           // names the unit in retry bookkeeping and errors
  int attempts = 0;        // delivery attempts so far (fault tolerance)

  // ---- serve-runtime request tagging (src/serve; all zero outside it) ----
  int64_t req = 0;         // request this unit belongs to (0 = none)
  int owner = kAnyRank;    // engine rank owning the request's accounting
  int64_t prog = 0;        // datum id of the request's program text (0 = the
                           // payload is self-contained)
  uint8_t flags = 0;       // kUnitServeCtl / kUnitCounted / kUnitReqBegin /
                           // kUnitNotify
};

// Typed data store (the ADLB data extension Turbine uses).
enum class DataType : uint8_t {
  kVoid = 0,     // a pure signal future
  kInteger = 1,
  kFloat = 2,
  kString = 3,
  kBlob = 4,
  kContainer = 5,
  kFile = 6,
};

const char* data_type_name(DataType t);
std::optional<DataType> data_type_from_name(std::string_view name);

// ---- Role layout ----

inline bool is_server(int rank, int size, const Config& cfg) {
  return rank >= size - cfg.nservers;
}

inline int server_index(int rank, int size, const Config& cfg) {
  return rank - (size - cfg.nservers);
}

inline int server_rank(int index, int size, const Config& cfg) {
  return size - cfg.nservers + index;
}

inline int num_clients(int size, const Config& cfg) { return size - cfg.nservers; }

// The home server of a client rank.
inline int home_server(int client_rank, int size, const Config& cfg) {
  return server_rank(client_rank % cfg.nservers, size, cfg);
}

// The server owning a datum id.
inline int owner_server(int64_t id, int size, const Config& cfg) {
  return server_rank(static_cast<int>(((id % cfg.nservers) + cfg.nservers) % cfg.nservers), size,
                     cfg);
}

// ---- Tags ----

inline constexpr int kTagRequest = 100;   // client -> server
inline constexpr int kTagResponse = 101;  // server -> client
inline constexpr int kTagServer = 102;    // server -> server

// Every kTagResponse message begins with a cache-invalidation header
// (u32 count, then count x {i64 id, u64 epoch}) before the reply opcode:
// refcount GC of a datum whose bytes were handed out as cacheable queues
// an invalidation for each holding client, drained onto that client's
// next reply of any kind. No unsolicited server->client message class is
// needed, and — because all replies from a shard flow through this one
// channel in order — a client can never observe a recycled id's new
// incarnation before the invalidation of the old one.

// ---- Opcodes ----

enum class Op : uint8_t {
  // client -> server
  kPut = 1,
  kGet = 2,
  kTaskFailed = 3,  // worker reports a leaf-task eval failure (unit + why);
                    // the server requeues it or aborts the run
  kPutBatch = 4,    // u64 count + that many units, acked once
  kDataBatch = 5,   // u64 count + that many ack-only datum sub-ops (each a
                    // u8 opcode, the i64 datum id, then its arguments),
                    // answered by one kAckBatch
  kCreate = 10,     // kDataBatch sub-op only
  kStore = 11,      // kDataBatch sub-op only
  kRetrieve = 12,
  kExists = 13,
  kCloseDatum = 14, // kDataBatch sub-op only
  kSubscribe = 15,  // kDataBatch sub-op only; i32 notify type. An open datum
                    // records the subscriber; a closed one queues the close
                    // notification at once (counted like a close's)
  kRefIncr = 16,    // kDataBatch sub-op only; signed delta; datum deleted
                    // at zero read refs
  kWriteIncr = 17,  // kDataBatch sub-op only; signed delta; datum closed at
                    // zero write refs
  kInsert = 20,     // kDataBatch sub-op only
  kLookup = 21,
  kEnumerate = 22,
  kTypeOf = 23,
  kMultiRetrieve = 24,  // u64 n + n ids, answered in one kValue reply with
                        // per-id status (one RPC per server per batch)
  kFreeNamespace = 25,  // i64 req: drop every datum created under that
                        // request namespace on this shard (serve GC);
                        // replies kValue with {u64 leftover, u64 stuck}
  kDatumCount = 26,     // no args; replies kValue with u64 live-datum count
                        // on this shard (serve memory-bound checks)

  // server -> client responses
  kAck = 40,
  kError = 41,
  kGotWork = 42,       // one unit. Every kUnitNotify unit in a kGotWork or
                       // kGotWorkBatch reply is followed by its carried-
                       // value record: bool carried, then (if carried) the
                       // datum's retrieve result (str value, bool cacheable,
                       // u64 GC epoch). It is read at delivery, never at
                       // close (docs/datastore.md)
  kShutdownClient = 43,
  kValue = 44,
  kNoValue = 45,
  kGotWorkBatch = 46,  // u64 count + that many units of the Get's type
  kAckBatch = 47,      // acks one whole kDataBatch: u32 k + k x {i64 id,
                       // u32 n} for each sub-op that queued n > 0 close
                       // notifications back to the sender (serve
                       // self-notify credits), then bool ok, else the first
                       // failing sub-op's error string (surfaced client-side
                       // as a deferred DataError at the next sync point)

  // server <-> server
  kForwardPut = 60,  // targeted or rebalanced work moving between servers
  kHungry = 61,      // this server has parked Gets and no work of a type
  kToken = 62,       // termination-detection token
  kShutdownServer = 63,
};

// Serialization helpers shared by client and server.
void write_work_unit(ser::Writer& w, const WorkUnit& unit);
WorkUnit read_work_unit(ser::Reader& r);

}  // namespace ilps::adlb
