// The client (engine/worker) side of ADLB: task Put/Get plus the typed
// data store operations Turbine is built on. Reads, Get and targeted puts
// are synchronous RPCs to a server; the ack-only datum ops, subscribe
// included, are write-behind (see the pipeline section below). Get blocks
// until work arrives or the servers detect global quiescence and shut the
// run down.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adlb/protocol.h"
#include "common/stats.h"
#include "mpi/comm.h"

namespace ilps::adlb {

// Activity counters for the per-rank datum cache (published as the
// adlb.cache_* metrics). All zero when the cache is disabled.
struct DataCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      // LRU drops to stay under the byte budget
  uint64_t invalidations = 0;  // entries dropped by piggybacked GC notices

  static constexpr StatField<DataCacheStats> kFields[] = {
      {"adlb.cache_hits", &DataCacheStats::hits},
      {"adlb.cache_misses", &DataCacheStats::misses},
      {"adlb.cache_evictions", &DataCacheStats::evictions},
      {"adlb.cache_invalidations", &DataCacheStats::invalidations},
  };
  DataCacheStats& operator+=(const DataCacheStats& o) { return add_stats(*this, o); }
};

// Activity counters for the write-behind datum pipeline (published as the
// adlb.pipeline_* metrics), and the synchronous data RPCs it cannot take:
// the reads that block this rank on a server reply. Every ack-only datum
// op counts, in any run.
struct DataPipelineStats {
  uint64_t ops = 0;      // ack-only datum ops buffered
  uint64_t flushes = 0;  // kDataBatch messages shipped
  uint64_t stalls = 0;   // ships that had to drain an ack first (window full)
  uint64_t sync_rpcs = 0;  // retrieve, multi_retrieve (one per server),
                           // exists, typeof, lookup and enumerate RPCs;
                           // cache hits make none

  static constexpr StatField<DataPipelineStats> kFields[] = {
      {"adlb.pipeline_ops", &DataPipelineStats::ops},
      {"adlb.pipeline_flushes", &DataPipelineStats::flushes},
      {"adlb.pipeline_stalls", &DataPipelineStats::stalls},
      {"adlb.sync_data_rpcs", &DataPipelineStats::sync_rpcs},
  };
  DataPipelineStats& operator+=(const DataPipelineStats& o) { return add_stats(*this, o); }
};

class Client {
 public:
  Client(mpi::Comm& comm, const Config& cfg);

  int rank() const { return comm_.rank(); }
  mpi::Comm& comm() { return comm_; }
  const Config& config() const { return cfg_; }

  // ---- Tasks ----

  void put(const WorkUnit& unit);

  // Blocks until a unit of `type` is assigned to this rank, or returns
  // nullopt when the run has terminated.
  std::optional<WorkUnit> get(int type);

  // Reports that evaluating `unit` failed on this rank. The server
  // requeues it (bounded by max_task_retries) or fails the run with a
  // typed error naming the task and rank.
  void task_failed(const WorkUnit& unit, const std::string& why);

  // ---- Data ----

  // Allocates a globally unique datum id without server communication
  // (the id space is partitioned by rank).
  int64_t unique();

  void create(int64_t id, DataType type);

  // Stores a value; by default this also closes the datum (single
  // assignment) and triggers subscriber notifications.
  void store(int64_t id, std::string_view value, bool close = true);

  // Retrieves the value of a closed datum. Throws DataError naming the
  // id (and, when a symbol hint is installed, the source variable) if the
  // datum is missing, GC'd, or unset.
  std::string retrieve(int64_t id);

  // Like retrieve, but returns a shared immutable view of the bytes. On
  // a cacheable reply the transport buffer itself becomes the backing
  // storage (zero copy); blobs flow to leaf tasks through this path.
  ser::SharedBytes retrieve_view(int64_t id);

  // Retrieves several closed datums in one RPC per owning server (cache
  // hits are served locally). Values return in input order.
  std::vector<std::string> multi_retrieve(std::span<const int64_t> ids);

  bool exists(int64_t id);
  DataType type_of(int64_t id);

  // Ships every buffered datum op and waits for its ack, then throws the
  // first deferred DataError, if any: the point where a write-behind
  // failure surfaces. Get calls it before parking; a caller that must
  // attribute failures to the work it just did calls it itself.
  void sync();

  // Explicitly closes a datum (used for containers and void futures).
  void close(int64_t id);

  // Registers for a close notification, delivered later as a targeted
  // work unit of `notify_type` whose payload is the decimal id — at once
  // if the datum is already closed. Write-behind: a missing datum
  // surfaces as a deferred DataError. When the datum's owner is this
  // rank's home server, the notification also carries a small value into
  // the datum cache, so the retrieve that follows it makes no RPC.
  void subscribe(int64_t id, int notify_type);

  // Reference counts. Read refs reaching zero delete the datum; write
  // refs reaching zero close it (container completion).
  void ref_incr(int64_t id, int delta);
  void write_incr(int64_t id, int delta);

  // ---- Containers ----

  void insert(int64_t container_id, std::string_view key, std::string_view value);
  std::optional<std::string> lookup(int64_t container_id, std::string_view key);
  std::vector<std::pair<std::string, std::string>> enumerate(int64_t container_id);

  // ---- datum cache ----

  const DataCacheStats& cache_stats() const { return cache_stats_; }
  bool cache_enabled() const { return cache_enabled_; }
  size_t cache_bytes() const { return cache_bytes_; }

  const DataPipelineStats& pipeline_stats() const { return pipeline_stats_; }

  // Maps a datum id to a human-readable source description ("variable
  // \"x\" (line 3)") for DataError messages; empty string = no name.
  // Installed by turbine::Context from the compiler's symbol map.
  void set_symbol_hint(std::function<std::string(int64_t)> hint) {
    symbol_hint_ = std::move(hint);
  }

  // ---- serve runtime (src/serve) ----

  // Ambient request context, stamped onto every put and create issued
  // while a request is being evaluated on this rank (engine rule bodies,
  // worker leaf tasks). An all-zero context (the default) disables every
  // serve path.
  struct ServeCtx {
    int64_t req = 0;
    int owner = kAnyRank;  // engine rank owning the request's accounting
    int64_t prog = 0;      // datum id of the request's program text
  };
  void set_serve_ctx(const ServeCtx& ctx) { serve_ = ctx; }
  const ServeCtx& serve_ctx() const { return serve_; }

  // Owner-engine accounting hooks. on_spawned(req) fires when a unit of
  // `req` is counted locally at put time (+1 before the unit leaves this
  // rank); on_self_notify(req, id, n) fires when a kAckBatch reports that
  // a store/close/write_incr of datum `id` queued n close notifications
  // back to this very rank — the owner must treat them as outstanding
  // until they arrive. A request unit calls sync() before it counts as
  // done, so the credits land while its request context is still set.
  void set_serve_hooks(std::function<void(int64_t)> on_spawned,
                       std::function<void(int64_t, int64_t, uint32_t)> on_self_notify) {
    on_spawned_ = std::move(on_spawned);
    on_self_notify_ = std::move(on_self_notify);
  }

  // Sweeps every datum created under `req` off all shards; returns the
  // merged (leftover unclosed, stuck with subscribers) diagnostic counts.
  std::pair<uint64_t, uint64_t> free_namespace(int64_t req);

  // Total live datums across all shards (serve memory-bound checks).
  uint64_t datum_count();

 private:
  enum class EntryKind : uint8_t { kScalar, kEnumeration };
  struct CacheEntry {
    EntryKind kind;
    uint64_t epoch = 0;
    ser::SharedBytes bytes;
    std::list<int64_t>::iterator lru;  // position in lru_ (front = hottest)
  };
  // One synchronous exchange. Flushes buffered puts first, so the home
  // server sees them before this request (per-(source, tag) FIFO) and a
  // client blocked in an RPC never has unsent work — the termination
  // detector's invariant. The reply buffer lives in reply_ until the next
  // rpc() recycles it into the transport's freelist.
  ser::Reader rpc(int server, ser::Writer&& request);
  void flush_puts();

  // ---- write-behind datum pipeline (kDataPipelineWindow) ----
  // Every ack-only datum op is appended to a per-owning-server kDataBatch
  // buffer instead of doing a blocking round-trip. Buffers ship before
  // any synchronous exchange leaves this client (flush_puts / rpc), and
  // every outstanding kAckBatch is drained before Get parks this rank,
  // so neither task causality nor the termination detector's "parked
  // clients have nothing in flight" invariant ever observes a buffered
  // op. Batched server errors surface as a DataError thrown at the next
  // synchronous boundary (rpc / flush_puts / sync); a kAckBatch's
  // self-notification counts go to on_self_notify as it drains.
  // Returns the batch buffer for `server`, opening a new kDataBatch frame
  // if needed; the caller appends one sub-op then calls pipeline_note_op.
  ser::Writer& pipeline_writer(int server);
  void pipeline_note_op(int server);
  void pipeline_ship(int server);       // send the buffered batch, windowed
  void pipeline_ship_all();
  void pipeline_drain_one(int server);  // consume one outstanding kAckBatch
  void pipeline_drain(int server);      // ... all of them for one server
  void maybe_throw_deferred();

  // ---- cache internals ----
  // Drains the invalidation header every reply starts with (protocol.h).
  void apply_invalidations(ser::Reader& r);
  const CacheEntry* cache_lookup(int64_t id, EntryKind kind);
  void cache_insert(int64_t id, EntryKind kind, uint64_t epoch, ser::SharedBytes bytes);
  void cache_erase(int64_t id);
  [[noreturn]] void raise_data_error(int64_t id, std::string message);
  // Returns prefetched units of the wrong type to the server (only
  // possible if a caller alternates Get types; the Turbine loops never
  // do).
  void flush_prefetch();

  int home_;

  mpi::Comm& comm_;
  Config cfg_;
  int64_t next_local_id_ = 1;

  // ---- fast-path batching state ----
  int pending_put_count_ = 0;
  ser::Writer pending_puts_;     // serialized units, shipped as kPutBatch
  std::deque<WorkUnit> prefetched_;  // surplus units from kGotWorkBatch
  std::vector<std::byte> reply_;     // last RPC's reply storage

  // ---- datum pipeline state ----
  struct Pipe {
    ser::Writer buf;     // open kDataBatch frame (valid when count > 0)
    uint32_t count = 0;  // sub-ops buffered in buf
    int unacked = 0;     // shipped batches whose kAckBatch is still due
  };
  std::unordered_map<int, Pipe> pipes_;   // owning server rank -> state
  std::string deferred_error_;            // first batched failure, pending
  DataPipelineStats pipeline_stats_;

  // ---- datum cache state (empty when cache_enabled_ is false) ----
  bool cache_enabled_ = false;
  size_t cache_budget_ = 0;  // bytes
  size_t cache_bytes_ = 0;   // charged bytes currently resident
  std::unordered_map<int64_t, CacheEntry> cache_;
  std::list<int64_t> lru_;  // most recently used at the front
  DataCacheStats cache_stats_;
  std::function<std::string(int64_t)> symbol_hint_;

  // ---- serve state ----
  ServeCtx serve_;
  std::function<void(int64_t)> on_spawned_;
  std::function<void(int64_t, int64_t, uint32_t)> on_self_notify_;
};

}  // namespace ilps::adlb
