#include "adlb/client.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>

#include "common/error.h"
#include "obs/trace.h"

namespace ilps::adlb {

namespace {
// Fixed per-entry charge on top of the value bytes (map node, LRU node,
// shared_ptr control block).
constexpr size_t kCacheEntryOverhead = 64;
}  // namespace

Client::Client(mpi::Comm& comm, const Config& cfg) : comm_(comm), cfg_(cfg) {
  if (is_server(comm.rank(), comm.size(), cfg)) {
    throw CommError("adlb::Client constructed on a server rank");
  }
  home_ = home_server(comm.rank(), comm.size(), cfg);
  long long mb = cfg_.data_cache_mb;
  if (mb < 0) {
    const char* env = std::getenv("ILPS_DATA_CACHE_MB");
    mb = (env != nullptr) ? std::atoll(env) : 64;
    if (mb < 0) mb = 0;
  }
  cache_enabled_ = mb > 0;
  cache_budget_ = cache_enabled_ ? static_cast<size_t>(mb) << 20 : 0;
}

ser::Reader Client::rpc(int server, ser::Writer&& request) {
  flush_puts();
  return exchange(server, request.take());
}

ser::Reader Client::exchange(int server, std::vector<std::byte>&& request) {
  comm_.send(server, kTagRequest, std::move(request));
  // Outstanding kAckBatch replies from this server were queued ahead of
  // the real reply (per-(source, tag) FIFO): drain them first.
  pipeline_drain(server);
  mpi::Message reply = comm_.recv(server, kTagResponse);
  // The previous reply has been fully consumed by now; its buffer feeds
  // the freelist the next writer() draws from.
  comm_.recycle(std::move(reply_));
  reply_ = std::move(reply.data);
  ser::Reader r(reply_);
  apply_invalidations(r);
  maybe_throw_deferred();
  return r;
}

// ---- write-behind datum pipeline ----

ser::Writer& Client::pipeline_writer(int server, Op op) {
  Pipe& p = pipes_[server];
  if (p.count == 0) {
    p.buf = comm_.writer();
    p.buf.put_u8(static_cast<uint8_t>(Op::kDataBatch));
    p.buf.put_u64(0);  // placeholder; count rides separately
  }
  p.buf.put_u8(static_cast<uint8_t>(op) | task_.replay_mark);
  return p.buf;
}

void Client::pipeline_note_op(int server) {
  ++pipeline_stats_.ops;
  task_.dirty = true;
  if (++pipes_[server].count >= kDataBatchOps) pipeline_ship(server);
}

void Client::pipeline_ship(int server) {
  Pipe& p = pipes_[server];
  if (p.count == 0) return;
  // Bounded outstanding window: past it, receive the oldest ack before
  // shipping more (the flow control that keeps in-flight buffers below
  // the transport freelist cap).
  if (p.unacked >= kDataPipelineWindow) {
    ++pipeline_stats_.stalls;
    pipeline_drain_one(server);
  }
  std::vector<std::byte> buf = p.buf.take();
  const uint64_t n = p.count;
  std::memcpy(buf.data() + 1, &n, sizeof n);
  p.count = 0;
  comm_.send(server, kTagRequest, std::move(buf));
  ++p.unacked;
  ++pipeline_stats_.flushes;
}

void Client::pipeline_ship_all() {
  for (auto& [server, p] : pipes_) {
    if (p.count > 0) pipeline_ship(server);
  }
}

void Client::pipeline_drain_one(int server) {
  mpi::Message reply = comm_.recv(server, kTagResponse);
  comm_.recycle(std::move(reply_));
  reply_ = std::move(reply.data);
  ser::Reader r(reply_);
  apply_invalidations(r);
  Op op = static_cast<Op>(r.get_u8());
  if (op != Op::kAckBatch) throw CommError("adlb: expected AckBatch reply");
  // Close notifications the batch queued back to this rank, per datum.
  // sync() at the end of every request unit keeps a batch from spanning
  // two requests, so the ambient request here is the one that issued it.
  for (uint32_t k = r.get_u32(); k > 0; --k) {
    const int64_t id = r.get_i64();
    const uint32_t n = r.get_u32();
    if (serve_.req != 0 && on_self_notify_) on_self_notify_(serve_.req, id, n);
  }
  const auto status = static_cast<AckStatus>(r.get_u8());
  if (status != AckStatus::kOk) {
    std::string err = r.get_str();
    if (deferred_error_.empty() || status == AckStatus::kFenced) {
      deferred_error_ = std::move(err);
      deferred_repeated_ = status == AckStatus::kRepeated;
    }
  }
  --pipes_[server].unacked;
}

void Client::pipeline_drain(int server) {
  auto it = pipes_.find(server);
  if (it == pipes_.end()) return;
  while (it->second.unacked > 0) pipeline_drain_one(server);
}

void Client::sync() {
  pipeline_ship_all();
  for (auto& [server, p] : pipes_) {
    while (p.unacked > 0) pipeline_drain_one(server);
  }
  maybe_throw_deferred();
}

void Client::maybe_throw_deferred() {
  if (deferred_error_.empty()) return;
  std::string err = std::move(deferred_error_);
  deferred_error_.clear();
  if (deferred_repeated_) throw RepeatedWriteError(std::move(err));
  throw DataError(std::move(err));
}

// ---- worker task boundaries ----

void Client::begin_task(const WorkUnit& unit) {
  task_ = Task{unit.id, true, false, unit.attempts > 0 ? kReplayMark : uint8_t{0}};
}

void Client::finish_task() {
  // The task-done goes out once the task's other writes and its puts are
  // accepted. The common task (a few writes in one batch) skips this
  // round trip: the server ignores a task-done that follows a failed
  // sub-op in its batch.
  bool unacked = false;
  for (const auto& [server, p] : pipes_) unacked = unacked || p.unacked > 0;
  if (pending_put_count_ > 0 || unacked) {
    flush_puts();
    sync();
  }
  if (task_.dirty || !held_refs_.empty()) {
    ser::Writer& w = pipeline_writer(home_, Op::kTaskDone);
    w.put_i64(task_.id);
    ++pipes_[home_].count;  // not a datum op: pipeline_stats_.ops skips it
  }
  task_ = Task{};
  sync();
  // The held decrements follow the accepted task-done. A failed task
  // never sends them, and neither does a fenced one (kFenced), whose
  // unit the server requeued: only the rerun that finishes applies them.
  if (held_refs_.empty()) return;
  for (const auto& [id, delta] : held_refs_) ref_incr(id, delta);  // the task is closed
  held_refs_.clear();
  sync();
}

void Client::note_task_output() {
  // Output cannot be taken back: a task that printed reports that it is
  // done, so a later fault in its batch does not run it again.
  if (task_.open) task_.dirty = true;
}

void Client::fail_task() {
  // Nothing the failed attempt left unsent goes out: a retry issues it
  // again. Batches already shipped are drained, their errors dropped.
  held_refs_.clear();
  pending_put_count_ = 0;
  for (auto& [server, p] : pipes_) p.count = 0;
  task_ = Task{};
  try {
    sync();
  } catch (const DataError&) {
  }
}

// ---- datum cache ----

void Client::apply_invalidations(ser::Reader& r) {
  uint32_t n = r.get_u32();
  for (uint32_t i = 0; i < n; ++i) {
    int64_t id = r.get_i64();
    uint64_t epoch = r.get_u64();
    auto it = cache_.find(id);
    // entry.epoch >= epoch means the entry was cached from a later
    // incarnation than the one this deletion notice is about: keep it.
    if (it != cache_.end() && it->second.epoch < epoch) {
      ++cache_stats_.invalidations;
      cache_erase(id);
    }
  }
}

const Client::CacheEntry* Client::cache_lookup(int64_t id, EntryKind kind) {
  // Coherence against the write-behind pipeline: an outstanding kAckBatch
  // from this id's owner may carry the invalidation that kills the cached
  // entry. Apply everything the owner has already replied (acks drain
  // FIFO) before trusting a hit, so every received invalidation is
  // applied before any consult. No-op unless a shipped batch to that
  // owner is unacked.
  pipeline_drain(owner_server(id, comm_.size(), cfg_));
  auto it = cache_.find(id);
  if (it == cache_.end()) return nullptr;
  if (it->second.kind != kind) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return &it->second;
}

void Client::cache_insert(int64_t id, EntryKind kind, uint64_t epoch, ser::SharedBytes bytes) {
  if (!cache_enabled_) return;
  cache_erase(id);
  // Charge what the entry keeps alive: a zero-copy view pins its whole
  // reply buffer, however few of its bytes the value is. (Views that
  // share one buffer are each charged for all of it.)
  const size_t charge = std::max(bytes.len, bytes.storage->capacity()) + kCacheEntryOverhead;
  if (charge > cache_budget_) return;
  while (cache_bytes_ + charge > cache_budget_ && !lru_.empty()) {
    ++cache_stats_.evictions;
    cache_erase(lru_.back());
  }
  lru_.push_front(id);
  cache_bytes_ += charge;
  cache_.emplace(id, CacheEntry{kind, epoch, charge, std::move(bytes), lru_.begin()});
}

void Client::cache_erase(int64_t id) {
  auto it = cache_.find(id);
  if (it == cache_.end()) return;
  cache_bytes_ -= it->second.charge;
  lru_.erase(it->second.lru);
  cache_.erase(it);
}

[[noreturn]] void Client::raise_data_error(int64_t id, std::string message) {
  if (symbol_hint_) {
    std::string hint = symbol_hint_(id);
    if (!hint.empty()) message += " [" + hint + "]";
  }
  throw DataError(std::move(message));
}

namespace {
[[noreturn]] void raise_error(ser::Reader& r) {
  throw DataError(r.get_str());
}

void expect_ack(ser::Reader r) {
  Op op = static_cast<Op>(r.get_u8());
  if (op == Op::kAck) return;
  if (op == Op::kError) raise_error(r);
  throw CommError("adlb: unexpected reply opcode");
}
}  // namespace

void Client::put(const WorkUnit& unit_in) {
  WorkUnit unit = unit_in;
  // Stamp the ambient request context onto units spawned while one of the
  // request's tasks is evaluating here. Serve bookkeeping notices arrive
  // pre-tagged and are left alone.
  if (serve_.req != 0 && unit.req == 0 && (unit.flags & kUnitServeCtl) == 0) {
    unit.req = serve_.req;
    unit.owner = serve_.owner;
    unit.prog = serve_.prog;
    // Control affinity: a request's untargeted control lands on its owner
    // engine, so all of its rule state and completion accounting stay on
    // one rank (requests, not rules, spread across engines).
    if (unit.type == kTypeControl && unit.target == kAnyRank) unit.target = serve_.owner;
  }
  // Owner-local counting: register the +1 before the unit leaves this
  // rank. Non-owner puts are counted by the first server to see them
  // (Server::maybe_spawn_notice).
  if (unit.req != 0 && (unit.flags & (kUnitCounted | kUnitServeCtl)) == 0 &&
      unit.owner == comm_.rank() && on_spawned_) {
    unit.flags |= kUnitCounted;
    on_spawned_(unit.req);
  }
  if (unit.type < 0 || unit.type >= cfg_.ntypes) {
    throw DataError("adlb: put with invalid work type " + std::to_string(unit.type));
  }
  // Validate the target here so a bad put fails immediately even when the
  // unit would otherwise sit in the batch buffer.
  if (unit.target != kAnyRank &&
      (unit.target < 0 || unit.target >= num_clients(comm_.size(), cfg_))) {
    throw DataError("put: target rank " + std::to_string(unit.target) + " out of range");
  }
  // Only untargeted units may linger in the batch buffer. A targeted
  // unit's arrival is observable by its target outside ADLB (e.g. the
  // answer-rank pattern: put to rank R, then block in a raw recv for R's
  // reply), so deferring it could deadlock; it goes out synchronously,
  // behind the units buffered before it, to preserve program order.
  // Exception: an owner engine's control put retargeted at itself by the
  // affinity rule above has no outside observer (this rank is both the
  // putter and the target, and rpc() flushes before its next Get), so it
  // keeps the batched fast path.
  const bool self_control =
      unit.req != 0 && unit.type == kTypeControl && unit.target == comm_.rank();
  task_.dirty = true;
  buffer_put(unit);
  if (pending_put_count_ >= kPutBatchUnits || (unit.target != kAnyRank && !self_control)) {
    flush_puts();
  }
}

void Client::buffer_put(const WorkUnit& unit) {
  if (pending_put_count_ == 0) {
    pending_puts_ = comm_.writer();
    pending_puts_.put_u8(static_cast<uint8_t>(Op::kPutBatch));
    pending_puts_.put_u64(0);  // placeholder; count rides separately
  }
  write_work_unit(pending_puts_, unit);
  ++pending_put_count_;
}

void Client::flush_puts() {
  // Buffered datum batches ship first: a put's eventual consumer may
  // retrieve the datums it references, and the causal chain through the
  // task only orders that read correctly if the owning shard received the
  // sub-ops before the put left this rank.
  pipeline_ship_all();
  if (pending_put_count_ == 0) return;
  // Rewrite the count placeholder (u64 directly after the opcode byte),
  // then do the exchange directly — not via rpc(), which would recurse
  // into this flush.
  std::vector<std::byte> buf = pending_puts_.take();
  const uint64_t n = static_cast<uint64_t>(pending_put_count_);
  std::memcpy(buf.data() + 1, &n, sizeof n);
  pending_put_count_ = 0;
  expect_ack(exchange(home_, std::move(buf)));
}

std::optional<WorkUnit> Client::get(int type) {
  if (type < 0 || type >= cfg_.ntypes) {
    throw DataError("adlb: get with invalid work type " + std::to_string(type));
  }
  WorkUnit unit;
  if (!prefetched_.empty() && prefetched_.front().type == type) {
    unit = std::move(prefetched_.front());
    prefetched_.pop_front();
    obs::instant(obs::EventKind::kAdlbGet, comm_.rank(), type);
  } else {
    flush_prefetch();
    // A parked client must have nothing in flight anywhere — not just at
    // its home server. An unprocessed kDataBatch sitting in another shard's
    // mailbox is invisible to the token ring (client->server traffic is not
    // counted), so parking with one outstanding could let the ring conclude
    // termination while that batch still has notifications to spawn. Ship
    // and drain everything before blocking.
    sync();
    ser::Writer w = comm_.writer();
    w.put_u8(static_cast<uint8_t>(Op::kGet));
    w.put_i32(type);
    // The span covers the whole blocking exchange: its duration is this
    // client's idle-waiting-for-work time.
    obs::Span wait(obs::EventKind::kAdlbGetWait, type);
    ser::Reader r = rpc(home_, std::move(w));
    Op op = static_cast<Op>(r.get_u8());
    if (op == Op::kShutdownClient) return std::nullopt;
    if (op == Op::kError) raise_error(r);
    // A close notification may carry its datum's value (protocol.h). The
    // reply buffer becomes the cache's storage, as in retrieve_views, and
    // each entry is charged for all of it. (A copy per value costs the
    // resident service's engine a malloc per notification, and measurably
    // more peak RSS.) Moving the buffer leaves the bytes `r` reads in place.
    std::shared_ptr<const std::vector<std::byte>> storage;
    const auto read_unit = [&] {
      WorkUnit u = read_work_unit(r);
      if ((u.flags & kUnitNotify) != 0 && r.get_bool()) {
        const size_t len = r.get_u64();
        const size_t off = r.position();
        r.skip(len);
        const bool cacheable = r.get_bool();
        const uint64_t epoch = r.get_u64();
        if (cacheable && cache_enabled_) {
          if (!storage) storage = std::make_shared<const std::vector<std::byte>>(std::move(reply_));
          cache_insert(std::stoll(u.payload), EntryKind::kScalar, epoch,
                       ser::SharedBytes{storage, off, len});
        }
      }
      return u;
    };
    if (op != Op::kGotWorkBatch) throw CommError("adlb: unexpected reply to Get");
    const uint64_t n = r.get_u64();
    unit = read_unit();
    for (uint64_t i = 1; i < n; ++i) prefetched_.push_back(read_unit());
  }
  // Every unit this rank takes ticks the FaultPlan clock, so a planned
  // fault lands at the same logical point however frames are batched.
  comm_.unit_taken();
  return unit;
}

void Client::flush_prefetch() {
  if (prefetched_.empty()) return;
  for (const WorkUnit& unit : prefetched_) buffer_put(unit);
  prefetched_.clear();
  flush_puts();
}

void Client::task_failed(const WorkUnit& unit, const std::string& why) {
  ser::Writer w = comm_.writer();
  w.put_u8(static_cast<uint8_t>(Op::kTaskFailed));
  write_work_unit(w, unit);
  w.put_str(why);
  expect_ack(rpc(home_, std::move(w)));
}

int64_t Client::unique() {
  // 23 bits of rank, 40 bits of counter: unique without communication.
  return (static_cast<int64_t>(comm_.rank()) << 40) | next_local_id_++;
}

void Client::create(int64_t id, DataType type) {
  const int server = owner_server(id, comm_.size(), cfg_);
  ser::Writer& w = pipeline_writer(server, Op::kCreate);
  w.put_i64(id);
  w.put_u8(static_cast<uint8_t>(type));
  // Datums created while a request evaluates here belong to its
  // namespace: the owning shard indexes them for kFreeNamespace.
  w.put_i64(serve_.req);
  pipeline_note_op(server);
}

void Client::store(int64_t id, std::string_view value, bool close) {
  const int server = owner_server(id, comm_.size(), cfg_);
  ser::Writer& w = pipeline_writer(server, Op::kStore);
  w.put_i64(id);
  w.put_bool(close);
  w.put_str(value);
  pipeline_note_op(server);
}

std::string Client::retrieve(int64_t id) { return retrieve_view(id).to_string(); }

ser::SharedBytes Client::retrieve_view(int64_t id) { return std::move(retrieve_views({&id, 1})[0]); }

std::vector<std::string> Client::multi_retrieve(std::span<const int64_t> ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (const ser::SharedBytes& v : retrieve_views(ids)) out.push_back(v.to_string());
  return out;
}

std::vector<ser::SharedBytes> Client::retrieve_views(std::span<const int64_t> ids) {
  std::vector<ser::SharedBytes> out(ids.size());
  // Serve what the cache holds, then group the misses by owning server —
  // one RPC each (ordered so batch formation is deterministic).
  std::map<int, std::vector<size_t>> by_server;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (const CacheEntry* e = cache_lookup(ids[i], EntryKind::kScalar)) {
      ++cache_stats_.hits;
      out[i] = e->bytes;
      continue;
    }
    if (cache_enabled_) ++cache_stats_.misses;
    by_server[owner_server(ids[i], comm_.size(), cfg_)].push_back(i);
  }
  for (const auto& [server, idxs] : by_server) {
    ser::Writer w = comm_.writer();
    w.put_u8(static_cast<uint8_t>(Op::kMultiRetrieve));
    w.put_u64(idxs.size());
    for (size_t i : idxs) w.put_i64(ids[i]);
    ++pipeline_stats_.sync_rpcs;
    ser::Reader r = rpc(server, std::move(w));
    Op op = static_cast<Op>(r.get_u8());
    if (op == Op::kError) raise_error(r);
    if (op != Op::kValue) throw CommError("adlb: unexpected reply to MultiRetrieve");
    const uint64_t n = r.get_u64();
    struct Slot {
      size_t idx, off, len;
      bool cacheable;
      uint64_t epoch;
    };
    std::vector<Slot> slots;
    slots.reserve(n);
    bool any_cacheable = false;
    for (uint64_t k = 0; k < n; ++k) {
      const size_t i = idxs[k];
      if (r.get_u8() == 0) raise_data_error(ids[i], r.get_str());
      const size_t vlen = r.get_u64();
      const size_t voff = r.position();
      r.skip(vlen);
      const bool cacheable = r.get_bool();
      const uint64_t epoch = r.get_u64();
      slots.push_back({i, voff, vlen, cacheable, epoch});
      any_cacheable = any_cacheable || cacheable;
    }
    // Zero copy: when anything in it is cached, the reply buffer itself
    // becomes the storage, and every value is a view into it at its own
    // offset. Otherwise each value is copied out.
    std::shared_ptr<const std::vector<std::byte>> storage;
    if (any_cacheable && cache_enabled_) {
      storage = std::make_shared<const std::vector<std::byte>>(std::move(reply_));
    }
    for (const Slot& s : slots) {
      if (!storage) {
        const auto value = reply_.begin() + static_cast<ptrdiff_t>(s.off);
        out[s.idx] = ser::SharedBytes::own({value, value + static_cast<ptrdiff_t>(s.len)});
        continue;
      }
      out[s.idx] = ser::SharedBytes{storage, s.off, s.len};
      if (s.cacheable) cache_insert(ids[s.idx], EntryKind::kScalar, s.epoch, out[s.idx]);
    }
  }
  return out;
}

bool Client::exists(int64_t id) {
  ser::Writer w = comm_.writer();
  w.put_u8(static_cast<uint8_t>(Op::kExists));
  w.put_i64(id);
  ++pipeline_stats_.sync_rpcs;
  ser::Reader r = rpc(owner_server(id, comm_.size(), cfg_), std::move(w));
  Op op = static_cast<Op>(r.get_u8());
  if (op == Op::kValue) return r.get_bool();
  if (op == Op::kError) raise_error(r);
  throw CommError("adlb: unexpected reply to Exists");
}

DataType Client::type_of(int64_t id) {
  ser::Writer w = comm_.writer();
  w.put_u8(static_cast<uint8_t>(Op::kTypeOf));
  w.put_i64(id);
  ++pipeline_stats_.sync_rpcs;
  ser::Reader r = rpc(owner_server(id, comm_.size(), cfg_), std::move(w));
  Op op = static_cast<Op>(r.get_u8());
  if (op == Op::kValue) return static_cast<DataType>(r.get_u8());
  if (op == Op::kError) raise_error(r);
  throw CommError("adlb: unexpected reply to TypeOf");
}

void Client::close(int64_t id) {
  const int server = owner_server(id, comm_.size(), cfg_);
  ser::Writer& w = pipeline_writer(server, Op::kCloseDatum);
  w.put_i64(id);
  pipeline_note_op(server);
}

void Client::subscribe(int64_t id, int notify_type) {
  const int server = owner_server(id, comm_.size(), cfg_);
  ser::Writer& w = pipeline_writer(server, Op::kSubscribe);
  w.put_i64(id);
  w.put_i32(notify_type);
  pipeline_note_op(server);
}

void Client::ref_incr(int64_t id, int delta) {
  // This rank is giving up (part of) its read claim: drop its cached
  // copy up front rather than waiting for the piggybacked invalidation
  // that follows if this decrement turns out to be the last.
  if (delta < 0) cache_erase(id);
  // An open task holds its decrements until it is done (finish_task).
  // Increments go out at once, ahead of any put that passes the claim on
  // (flush_puts ships the pipelines first); a failed attempt's increment
  // only leaks the datum, it never frees it early.
  if (task_.open && delta < 0) {
    held_refs_.emplace_back(id, delta);
    return;
  }
  const int server = owner_server(id, comm_.size(), cfg_);
  ser::Writer& w = pipeline_writer(server, Op::kRefIncr);
  w.put_i64(id);
  w.put_i32(delta);
  pipeline_note_op(server);
}

void Client::write_incr(int64_t id, int delta) {
  const int server = owner_server(id, comm_.size(), cfg_);
  ser::Writer& w = pipeline_writer(server, Op::kWriteIncr);
  w.put_i64(id);
  w.put_i32(delta);
  pipeline_note_op(server);
}

void Client::insert(int64_t container_id, std::string_view key, std::string_view value) {
  const int server = owner_server(container_id, comm_.size(), cfg_);
  ser::Writer& w = pipeline_writer(server, Op::kInsert);
  w.put_i64(container_id);
  w.put_str(key);
  w.put_str(value);
  pipeline_note_op(server);
}

std::optional<std::string> Client::lookup(int64_t container_id, std::string_view key) {
  ser::Writer w = comm_.writer();
  w.put_u8(static_cast<uint8_t>(Op::kLookup));
  w.put_i64(container_id);
  w.put_str(key);
  ++pipeline_stats_.sync_rpcs;
  ser::Reader r = rpc(owner_server(container_id, comm_.size(), cfg_), std::move(w));
  Op op = static_cast<Op>(r.get_u8());
  if (op == Op::kValue) return r.get_str();
  if (op == Op::kNoValue) return std::nullopt;
  if (op == Op::kError) raise_error(r);
  throw CommError("adlb: unexpected reply to Lookup");
}

namespace {
std::vector<std::pair<std::string, std::string>> read_pairs(ser::Reader& r) {
  uint64_t n = r.get_u64();
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string k = r.get_str();
    std::string v = r.get_str();
    out.emplace_back(std::move(k), std::move(v));
  }
  return out;
}
}  // namespace

std::pair<uint64_t, uint64_t> Client::free_namespace(int64_t req) {
  uint64_t leftover = 0;
  uint64_t stuck = 0;
  for (int s = 0; s < cfg_.nservers; ++s) {
    ser::Writer w = comm_.writer();
    w.put_u8(static_cast<uint8_t>(Op::kFreeNamespace));
    w.put_i64(req);
    ser::Reader r = rpc(server_rank(s, comm_.size(), cfg_), std::move(w));
    Op op = static_cast<Op>(r.get_u8());
    if (op == Op::kError) raise_error(r);
    if (op != Op::kValue) throw CommError("adlb: unexpected reply to FreeNamespace");
    leftover += r.get_u64();
    stuck += r.get_u64();
  }
  return {leftover, stuck};
}

uint64_t Client::datum_count() {
  uint64_t total = 0;
  for (int s = 0; s < cfg_.nservers; ++s) {
    ser::Writer w = comm_.writer();
    w.put_u8(static_cast<uint8_t>(Op::kDatumCount));
    ser::Reader r = rpc(server_rank(s, comm_.size(), cfg_), std::move(w));
    Op op = static_cast<Op>(r.get_u8());
    if (op == Op::kError) raise_error(r);
    if (op != Op::kValue) throw CommError("adlb: unexpected reply to DatumCount");
    total += r.get_u64();
  }
  return total;
}

std::vector<std::pair<std::string, std::string>> Client::enumerate(int64_t container_id) {
  // A closed container's entries are immutable, so the serialized pair
  // list caches under the same epoch rule as a scalar value.
  if (const CacheEntry* e = cache_lookup(container_id, EntryKind::kEnumeration)) {
    ++cache_stats_.hits;
    ser::Reader cached(e->bytes.view());
    return read_pairs(cached);
  }
  if (cache_enabled_) ++cache_stats_.misses;
  ser::Writer w = comm_.writer();
  w.put_u8(static_cast<uint8_t>(Op::kEnumerate));
  w.put_i64(container_id);
  ++pipeline_stats_.sync_rpcs;
  ser::Reader r = rpc(owner_server(container_id, comm_.size(), cfg_), std::move(w));
  Op op = static_cast<Op>(r.get_u8());
  if (op == Op::kError) raise_data_error(container_id, r.get_str());
  if (op != Op::kValue) throw CommError("adlb: unexpected reply to Enumerate");
  const size_t start = r.position();
  auto out = read_pairs(r);
  const size_t len = r.position() - start;
  const bool cacheable = r.get_bool();
  const uint64_t epoch = r.get_u64();
  if (cacheable && cache_enabled_) {
    cache_insert(container_id, EntryKind::kEnumeration, epoch,
                 ser::SharedBytes{
                     std::make_shared<const std::vector<std::byte>>(std::move(reply_)),
                     start, len});
  }
  return out;
}

}  // namespace ilps::adlb
