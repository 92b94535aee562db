#include "adlb/server.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "ckpt/ckpt.h"
#include "common/error.h"
#include "common/log.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ilps::adlb {

Server::Server(mpi::Comm& comm, const Config& cfg, const ckpt::Snapshot* restore_from)
    : comm_(comm), cfg_(cfg) {
  const int size = comm.size();
  const int rank = comm.rank();
  if (!is_server(rank, size, cfg)) {
    throw CommError("adlb::Server constructed on a client rank");
  }
  if (num_clients(size, cfg) <= 0) {
    throw CommError("adlb: configuration leaves no client ranks");
  }
  index_ = server_index(rank, size, cfg);
  next_server_ = server_rank((index_ + 1) % cfg.nservers, size, cfg);
  for (int c = 0; c < num_clients(size, cfg); ++c) {
    if (home_server(c, size, cfg) == rank) my_clients_.push_back(c);
  }
  for (int s = 0; s < cfg.nservers; ++s) {
    int r = server_rank(s, size, cfg);
    if (r != rank) peer_servers_.push_back(r);
  }
  untargeted_.resize(static_cast<size_t>(cfg.ntypes));
  parked_.resize(static_cast<size_t>(cfg.ntypes));
  announced_.assign(static_cast<size_t>(cfg.ntypes), false);
  hungry_peers_.resize(static_cast<size_t>(cfg.ntypes));
  rng_ = Rng(0xAD1Bu + static_cast<uint64_t>(index_));
  if (restore_from != nullptr) {
    if (cfg.nservers != 1) {
      throw CommError("adlb: checkpoint restore requires nservers == 1");
    }
    restore(*restore_from);
  }
}

void Server::serve() {
  // A server with no clients of its own still shards data and rebalances.
  const bool heartbeats = cfg_.ft && cfg_.heartbeat_timeout_ms > 0;
  if (heartbeats) {
    const double now = comm_.wtime();
    for (int c : my_clients_) last_seen_[c] = now;
  }
  // Live utilization gauge: message-handling time accumulated while the
  // server runs (the telemetry plane's per-rank busy view).
  obs::Gauge* busy_gauge =
      obs::metrics_enabled()
          ? &obs::metrics().gauge("rank.busy_seconds.r" + std::to_string(comm_.rank()))
          : nullptr;
  double busy_total = 0;
  while (!done_) {
    bool activity = false;
    std::optional<mpi::Message> m;
    if (heartbeats || !deferred_.empty()) {
      // Poll so a silent (hung/lost) client is noticed — and a requeue
      // backoff expires — even when no traffic arrives to wake the loop.
      const double poll_s =
          heartbeats
              ? std::max(0.001, static_cast<double>(cfg_.heartbeat_timeout_ms) / 4000.0)
              : 0.001;
      // ANY_TAG no longer covers reserved tags, so the fault-aware server
      // loop asks for death notices (kTagFault) explicitly.
      m = comm_.recv_for(poll_s, mpi::ANY_SOURCE, mpi::ANY_TAG_OR_FAULT);
      if (flush_deferred()) activity = true;
      if (heartbeats && check_heartbeats()) activity = true;
    } else {
      m = comm_.recv(mpi::ANY_SOURCE, mpi::ANY_TAG_OR_FAULT);
    }
    if (done_) break;
    if (m) {
      const double started = busy_gauge != nullptr ? comm_.wtime() : 0;
      dispatch(*m);
      comm_.recycle(std::move(m->data));  // feeds the reply-writer freelist
      activity = true;
      if (busy_gauge != nullptr) {
        busy_total += comm_.wtime() - started;
        busy_gauge->set(busy_total);
      }
    }
    if (activity && !done_) after_dispatch();
  }
}

void Server::dispatch(const mpi::Message& m) {
  obs::Span handle(obs::EventKind::kServerHandle, m.tag,
                   static_cast<int64_t>(m.data.size()));
  if (m.tag == kTagRequest) {
    handle_request(m);
  } else if (m.tag == kTagServer) {
    handle_server(m);
  } else if (m.tag == mpi::kTagFault) {
    on_rank_dead_notice(m.source);
  } else {
    throw CommError("adlb server: unexpected tag " + std::to_string(m.tag));
  }
}

void Server::after_dispatch() {
  // Coalesced forwards leave before any token decision: quiet() treats a
  // non-empty outbox as pending work, so flushing here keeps Safra's
  // bookkeeping exact (the flush itself counts as basic traffic).
  flush_forwards();
  evaluate_hunger();
  if (pending_token_) try_forward_token();
  if (index_ == 0 && !token_outstanding_ && quiet()) initiate_token();
}

// ---- client requests ----

void Server::handle_request(const mpi::Message& m) {
  ser::Reader r = m.reader();
  Op op = static_cast<Op>(r.get_u8());
  if (cfg_.ft) {
    // Any RPC proves the client is alive; only Get / TaskFailed mark the
    // in-flight unit finished (data ops happen mid-task).
    last_seen_[m.source] = comm_.wtime();
  }
  switch (op) {
    case Op::kPut: {
      WorkUnit unit = read_work_unit(r);
      ++stats_.puts;
      name_unit(unit);
      maybe_spawn_notice(unit);
      // Attribute the accept (and the sends it triggers) to the unit's
      // request, so server-side events stitch into the request trace.
      obs::RequestScope rscope(unit.req);
      obs::instant(obs::EventKind::kAdlbPut, unit.id, unit.type);
      handle_put(m.source, unit);
      break;
    }
    case Op::kPutBatch: {
      uint64_t n = r.get_u64();
      std::string error;
      for (uint64_t i = 0; i < n; ++i) {
        WorkUnit unit = read_work_unit(r);
        ++stats_.puts;
        name_unit(unit);
        maybe_spawn_notice(unit);
        obs::RequestScope rscope(unit.req);
        obs::instant(obs::EventKind::kAdlbPut, unit.id, unit.type);
        if (unit.type < 0 || unit.type >= cfg_.ntypes) {
          error = "put: invalid work type " + std::to_string(unit.type);
          continue;
        }
        try {
          accept_unit(std::move(unit));
        } catch (const DataError& e) {
          error = e.what();
        }
      }
      if (error.empty()) {
        reply_ack(m.source);
      } else {
        reply_error(m.source, error);
      }
      break;
    }
    case Op::kDataBatch: {
      // The write-behind ack-only datum sub-ops. Failures are collected,
      // not fatal to the batch: each sub-op reads its arguments fully
      // before it can throw, so parsing stays aligned and later sub-ops
      // still apply. One kAckBatch answers the whole batch: the (id, n)
      // of every sub-op that queued n close notifications back to the
      // sender (an owner engine's self-notify credits), then the first
      // error, which surfaces client-side as a deferred DataError.
      uint64_t n = r.get_u64();
      std::string error;
      std::vector<std::pair<int64_t, uint32_t>> self_notified;
      for (uint64_t i = 0; i < n; ++i) {
        Op sub = static_cast<Op>(r.get_u8());
        int64_t id = r.get_i64();
        ++stats_.data_ops;
        try {
          if (uint32_t k = apply_data_mutation(m.source, sub, id, r); k > 0) {
            self_notified.emplace_back(id, k);
          }
        } catch (const DataError& e) {
          if (error.empty()) error = e.what();
        }
      }
      ser::Writer w = reply_writer(m.source);
      w.put_u8(static_cast<uint8_t>(Op::kAckBatch));
      w.put_u32(static_cast<uint32_t>(self_notified.size()));
      for (const auto& [id, k] : self_notified) {
        w.put_i64(id);
        w.put_u32(k);
      }
      w.put_bool(error.empty());
      if (!error.empty()) w.put_str(error);
      comm_.send(m.source, kTagResponse, std::move(w));
      break;
    }
    case Op::kGet: {
      int type = r.get_i32();
      ++stats_.gets;
      obs::instant(obs::EventKind::kAdlbGet, m.source, type);
      if (cfg_.ft) note_completion(m.source);
      handle_get(m.source, type);
      break;
    }
    case Op::kTaskFailed: {
      handle_task_failed(m.source, r);
      break;
    }
    default:
      handle_data_op(m.source, op, r);
      break;
  }
}

void Server::maybe_spawn_notice(WorkUnit& unit) {
  if (unit.req == 0 || (unit.flags & (kUnitServeCtl | kUnitCounted)) != 0) return;
  unit.flags |= kUnitCounted;
  const int nclients = num_clients(comm_.size(), cfg_);
  if (unit.owner < 0 || unit.owner >= nclients) return;  // untracked request
  WorkUnit notice;
  notice.type = kTypeControl;
  notice.priority = kNotificationPriority;
  notice.target = unit.owner;
  notice.payload = "+";
  notice.req = unit.req;
  notice.owner = unit.owner;
  notice.flags = kUnitServeCtl | kUnitCounted;
  accept_unit(std::move(notice));
}

void Server::handle_put(int source, const WorkUnit& unit) {
  if (unit.type < 0 || unit.type >= cfg_.ntypes) {
    reply_error(source, "put: invalid work type " + std::to_string(unit.type));
    return;
  }
  try {
    accept_unit(unit);
  } catch (const DataError& e) {
    reply_error(source, e.what());
    return;
  }
  reply_ack(source);
}

// Name the unit once, on the first server that sees it; the id rides
// along through forwards, requeues, and trace events (retry tracking
// needs it under ft, the tracer always benefits from it).
void Server::name_unit(WorkUnit& unit) {
  if (unit.id == 0) {
    unit.id = (static_cast<int64_t>(index_) << 48) | next_unit_id_++;
  }
}

void Server::accept_unit(WorkUnit unit) {
  const int size = comm_.size();
  name_unit(unit);
  if (cfg_.ft) {
    // Restart replay: a work unit whose payload already completed before
    // the checkpoint is not re-dispatched — its effects live in the
    // restored store. Units that manage container write refcounts are
    // exempt (their write_incr must re-run against the reset refcounts).
    if (restored_ && unit.type == kTypeWork &&
        unit.payload.find("write_incr") == std::string::npos) {
      auto it = done_fingerprints_.find(ckpt::fingerprint(unit.payload));
      if (it != done_fingerprints_.end() && it->second > 0) {
        if (--it->second == 0) done_fingerprints_.erase(it);
        ++stats_.replay_skips;
        return;
      }
    }
    // Work targeted at a dead rank can never be delivered; release the
    // constraint instead of deadlocking.
    if (unit.target != kAnyRank && dead_clients_.count(unit.target) > 0) {
      unit.target = kAnyRank;
    }
  }
  if (unit.target != kAnyRank) {
    if (unit.target < 0 || unit.target >= num_clients(size, cfg_)) {
      throw DataError("put: target rank " + std::to_string(unit.target) + " out of range");
    }
    int home = home_server(unit.target, size, cfg_);
    if (home != comm_.rank()) {
      // Relay to the target's home server (coalesced per destination).
      forward_unit(home, unit);
      return;
    }
    // Match to the target if it is parked with the right type. The index
    // makes the (common) miss an O(1) map probe instead of a scan of every
    // parked client; only a hit pays for the queue-entry removal.
    auto parked_it = parked_clients_.find(unit.target);
    if (parked_it != parked_clients_.end() && parked_it->second == unit.type) {
      auto& queue = parked_[static_cast<size_t>(unit.type)];
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (*it == unit.target) {
          queue.erase(it);
          break;
        }
      }
      parked_clients_.erase(parked_it);
      deliver(unit.target, unit);
      return;
    }
    targeted_[{unit.target, unit.type}].push_back(unit);
    return;
  }

  // Untargeted: hand to a parked local client if any.
  announced_[static_cast<size_t>(unit.type)] = false;
  auto& queue = parked_[static_cast<size_t>(unit.type)];
  if (!queue.empty()) {
    int client = queue.front();
    queue.pop_front();
    parked_clients_.erase(client);
    deliver(client, unit);
    return;
  }
  // No local demand: relay to a hungry peer, if one announced itself.
  auto& hungry = hungry_peers_[static_cast<size_t>(unit.type)];
  if (!hungry.empty()) {
    int peer = hungry.front();
    hungry.pop_front();
    forward_unit(peer, unit);
    return;
  }
  untargeted_[static_cast<size_t>(unit.type)].emplace(
      std::make_pair(-unit.priority, seq_++), unit);
}

void Server::write_delivered(ser::Writer& w, int client, const WorkUnit& unit) {
  write_work_unit(w, unit);
  if ((unit.flags & kUnitNotify) == 0) return;
  // The carried value is read here, as the unit enters the client's reply
  // channel, never at close: a GC between the two must not leave bytes
  // in flight that its invalidation (an earlier reply) cannot reach. Only
  // the owning shard knows the datum; a notice it forwarded arrives bare.
  const std::optional<int64_t> id = str::parse_int(unit.payload);
  auto it = id ? store_.find(*id) : store_.end();
  const bool carried = it != store_.end() &&
                       owner_server(*id, comm_.size(), cfg_) == comm_.rank() &&
                       it->second.closed && it->second.has_value &&
                       it->second.value.size() <= kNotifyValueBytes;
  w.put_bool(carried);
  if (carried) write_retrieve_result(w, client, *id, it->second);
}

void Server::deliver(int client, const WorkUnit& unit) {
  obs::RequestScope rscope(unit.req);
  ser::Writer w = reply_writer(client);
  w.put_u8(static_cast<uint8_t>(Op::kGotWork));
  write_delivered(w, client, unit);
  comm_.send(client, kTagResponse, std::move(w));
  ++stats_.matches;
  obs::instant(obs::EventKind::kTaskDispatch, unit.id, client);
  // Remember what each worker is running so a dead worker's unit can be
  // requeued. Engines run control tasks (rule bodies); re-running those
  // is not safe in place, so only worker units are tracked.
  if (cfg_.ft && unit.type == kTypeWork && !is_engine_client(client)) {
    inflight_[client] = unit;
  }
  // Delivery starts a task: measure silence from here, not from the
  // client's last RPC. A client handed work after idling a long time in
  // the parked queue would otherwise look instantly timed-out (its
  // liveness-proving store arrives only after the next heartbeat check).
  if (cfg_.ft && cfg_.heartbeat_timeout_ms > 0) last_seen_[client] = comm_.wtime();
}

void Server::deliver_batch(int client, std::vector<WorkUnit>& units) {
  ser::Writer w = reply_writer(client);
  w.put_u8(static_cast<uint8_t>(Op::kGotWorkBatch));
  w.put_u64(units.size());
  for (const WorkUnit& unit : units) {
    obs::RequestScope rscope(unit.req);
    write_delivered(w, client, unit);
    ++stats_.matches;
    obs::instant(obs::EventKind::kTaskDispatch, unit.id, client);
  }
  comm_.send(client, kTagResponse, std::move(w));
}

void Server::handle_get(int source, int type) {
  if (type < 0 || type >= cfg_.ntypes) {
    reply_error(source, "get: invalid work type " + std::to_string(type));
    return;
  }
  if (cfg_.ft && dead_clients_.count(source) > 0) {
    // A client declared dead by heartbeat turned out to be alive (e.g. a
    // delayed link). Its unit was already requeued; fence it off.
    ser::Writer w = reply_writer(source);
    w.put_u8(static_cast<uint8_t>(Op::kShutdownClient));
    comm_.send(source, kTagResponse, std::move(w));
    return;
  }
  // Under ft a worker holds one unit at a time: requeue must know exactly
  // which unit a dead worker held, and re-running a prefetched unit that
  // had already completed would repeat its write_incr and close a
  // container early. Engine units are never tracked (an engine death
  // restarts the run), so engines keep the batched Get.
  const int batch = cfg_.ft && !is_engine_client(source) ? 1 : kGetBatchUnits;
  // Targeted work first (ADLB's matching order), then untargeted by
  // priority. Targeted units can only ever go to this client, so a batch
  // takes as many as the cap allows.
  auto targeted_it = targeted_.find({source, type});
  if (targeted_it != targeted_.end() && !targeted_it->second.empty()) {
    auto& q = targeted_it->second;
    if (batch == 1 || q.size() == 1) {
      WorkUnit unit = std::move(q.front());
      q.pop_front();
      if (q.empty()) targeted_.erase(targeted_it);
      deliver(source, unit);
      return;
    }
    std::vector<WorkUnit> units;
    while (!q.empty() && static_cast<int>(units.size()) < batch) {
      units.push_back(std::move(q.front()));
      q.pop_front();
    }
    if (q.empty()) targeted_.erase(targeted_it);
    deliver_batch(source, units);
    return;
  }
  auto& queue = untargeted_[static_cast<size_t>(type)];
  if (!queue.empty()) {
    WorkUnit unit = std::move(queue.begin()->second);
    queue.erase(queue.begin());
    // Prefetch extra untargeted units, but leave half the queue behind so
    // other local clients and hungry peers still find work to take.
    const size_t extra =
        std::min(static_cast<size_t>(batch - 1), queue.size() / 2);
    if (extra == 0) {
      deliver(source, unit);
      return;
    }
    std::vector<WorkUnit> units;
    units.push_back(std::move(unit));
    for (size_t i = 0; i < extra; ++i) {
      units.push_back(std::move(queue.begin()->second));
      queue.erase(queue.begin());
    }
    deliver_batch(source, units);
    return;
  }
  obs::instant(obs::EventKind::kAdlbPark, source, type);
  parked_[static_cast<size_t>(type)].push_back(source);
  parked_clients_.emplace(source, type);
}

// ---- fault tolerance ----

void Server::handle_task_failed(int source, ser::Reader& r) {
  WorkUnit unit = read_work_unit(r);
  std::string why = r.get_str();
  ++stats_.task_failures;
  obs::instant(obs::EventKind::kTaskFailed, unit.id, source);
  inflight_.erase(source);
  reply_ack(source);  // the worker itself is healthy and keeps serving
  requeue_or_fail(std::move(unit), why);
}

void Server::on_rank_dead_notice(int rank) {
  if (is_server(rank, comm_.size(), cfg_)) {
    // A dead peer server loses its shard and ring position; not
    // recoverable in place.
    comm_.abort("ilps-ft-restart: server rank " + std::to_string(rank) + " died");
    done_ = true;
    return;
  }
  on_client_dead(rank);
}

void Server::on_client_dead(int client) {
  if (dead_clients_.count(client) > 0) return;
  dead_clients_.insert(client);
  // The client may be alive (a heartbeat fence of a slow task or a
  // delayed link) and blocked on a reply that will never come once the
  // run ends: doom it, so it dies at drain instead of hanging the join.
  comm_.doom(client);
  if (!cfg_.ft) {
    comm_.abort("ilps: rank " + std::to_string(client) +
                " died and fault tolerance is disabled");
    done_ = true;
    return;
  }
  if (is_engine_client(client)) {
    // The engine holds unserializable rule state; recovery is a restart
    // from the latest checkpoint, driven by runtime::run_with_faults.
    comm_.abort("ilps-ft-restart: engine rank " + std::to_string(client) + " died");
    done_ = true;
    return;
  }
  // A dead client cannot receive work: drop its parked entries.
  if (parked_clients_.erase(client) > 0) {
    for (auto& queue : parked_) {
      for (auto it = queue.begin(); it != queue.end();) {
        it = (*it == client) ? queue.erase(it) : std::next(it);
      }
    }
  }
  // Requeue whatever it was running (tracked on its home server).
  auto inflight = inflight_.find(client);
  if (inflight != inflight_.end()) {
    WorkUnit unit = std::move(inflight->second);
    inflight_.erase(inflight);
    requeue_or_fail(std::move(unit), "rank " + std::to_string(client) + " died");
    if (done_) return;
  }
  // Queued work aimed specifically at the dead rank is retargeted. The
  // map is ordered by (rank, type), so the dead rank's entries form a
  // contiguous range — no full scan.
  std::vector<WorkUnit> orphaned;
  for (auto it = targeted_.lower_bound({client, std::numeric_limits<int>::min()});
       it != targeted_.end() && it->first.first == client;) {
    for (auto& u : it->second) orphaned.push_back(std::move(u));
    it = targeted_.erase(it);
  }
  for (auto& u : orphaned) {
    u.target = kAnyRank;
    accept_unit(std::move(u));
  }
  // With every worker dead, queued work can never run again.
  bool any_worker_alive = false;
  const int nclients = num_clients(comm_.size(), cfg_);
  for (int c = cfg_.nengines; c < nclients; ++c) {
    if (dead_clients_.count(c) == 0) {
      any_worker_alive = true;
      break;
    }
  }
  if (!any_worker_alive) {
    comm_.abort("ilps-ft-restart: all worker ranks died");
    done_ = true;
  }
}

bool Server::check_heartbeats() {
  bool declared = false;
  const double timeout = static_cast<double>(cfg_.heartbeat_timeout_ms) / 1000.0;
  const double now = comm_.wtime();
  for (int c : my_clients_) {
    if (dead_clients_.count(c) > 0) continue;
    if (is_engine_client(c)) continue;           // engines are never killed by silence
    if (parked_clients_.count(c) > 0) continue;  // parked = idle, legitimately quiet
    auto it = last_seen_.find(c);
    if (it == last_seen_.end()) {
      last_seen_[c] = now;
      continue;
    }
    if (now - it->second > timeout) {
      ++stats_.heartbeat_deaths;
      obs::instant(obs::EventKind::kHeartbeatDeath, c,
                   static_cast<int64_t>((now - it->second) * 1000.0));
      log::warn("adlb: client ", c, " silent beyond heartbeat timeout, declaring dead");
      on_client_dead(c);
      declared = true;
      if (done_) break;
    }
  }
  return declared;
}

void Server::requeue_or_fail(WorkUnit unit, const std::string& why) {
  ++unit.attempts;
  if (unit.attempts > cfg_.max_task_retries) {
    comm_.abort("ilps-task-failed: task <" + std::to_string(unit.id) + "> failed " +
                std::to_string(unit.attempts) + " time(s), retries exhausted: " + why);
    done_ = true;
    return;
  }
  ++stats_.requeues;
  obs::instant(obs::EventKind::kRequeue, unit.id, unit.attempts);
  log::info("adlb: requeueing task <", unit.id, "> (failure ", unit.attempts, "): ", why);
  if (cfg_.retry_backoff_ms > 0) {
    // Exponential backoff: 1x, 2x, 4x, ... the base delay per attempt.
    const int shift = std::min(unit.attempts - 1, 10);
    const double delay_s =
        static_cast<double>(cfg_.retry_backoff_ms << shift) / 1000.0;
    deferred_.emplace_back(comm_.wtime() + delay_s, std::move(unit));
    return;
  }
  accept_unit(std::move(unit));
}

bool Server::flush_deferred() {
  if (deferred_.empty()) return false;
  const double now = comm_.wtime();
  bool any = false;
  for (size_t i = 0; i < deferred_.size();) {
    if (deferred_[i].first <= now) {
      WorkUnit unit = std::move(deferred_[i].second);
      deferred_.erase(deferred_.begin() + static_cast<ptrdiff_t>(i));
      accept_unit(std::move(unit));
      any = true;
    } else {
      ++i;
    }
  }
  return any;
}

void Server::note_completion(int client) {
  auto it = inflight_.find(client);
  if (it == inflight_.end()) return;
  // Units that manage container write refcounts are re-run on restart
  // (see accept_unit), so they are not fingerprinted as done.
  if (it->second.payload.find("write_incr") == std::string::npos) {
    ++done_fingerprints_[ckpt::fingerprint(it->second.payload)];
  }
  inflight_.erase(it);
  ++tasks_completed_;
  maybe_checkpoint();
}

void Server::maybe_checkpoint() {
  if (cfg_.ckpt_interval <= 0 || cfg_.ckpt_dir.empty()) return;
  if (tasks_completed_ % cfg_.ckpt_interval != 0) return;
  ckpt::Snapshot s = snapshot();
  s.seq = ckpt_seq_++;
  ckpt::write_checkpoint(cfg_.ckpt_dir, s);
  ++stats_.checkpoints;
}

ckpt::Snapshot Server::snapshot() const {
  ckpt::Snapshot s;
  s.seq = ckpt_seq_;
  s.tasks_completed = tasks_completed_;
  s.data.reserve(store_.size());
  for (const auto& [id, d] : store_) {
    ckpt::DatumRecord rec;
    rec.id = id;
    rec.type = static_cast<uint8_t>(d.type);
    rec.closed = d.closed;
    rec.has_value = d.has_value;
    rec.value = d.value;
    rec.entries.assign(d.entries.begin(), d.entries.end());
    rec.read_refs = d.read_refs;
    rec.write_refs = d.write_refs;
    s.data.push_back(std::move(rec));
  }
  // Deterministic file contents regardless of hash-map iteration order.
  std::sort(s.data.begin(), s.data.end(),
            [](const ckpt::DatumRecord& a, const ckpt::DatumRecord& b) { return a.id < b.id; });
  for (const auto& [fp, n] : done_fingerprints_) {
    for (int i = 0; i < n; ++i) s.done_tasks.push_back(fp);
  }
  std::sort(s.done_tasks.begin(), s.done_tasks.end());
  return s;
}

void Server::restore(const ckpt::Snapshot& snap) {
  obs::Span span(obs::EventKind::kCkptRestore, snap.seq,
                 static_cast<int64_t>(snap.data.size()));
  restored_ = true;
  ckpt_seq_ = snap.seq + 1;
  tasks_completed_ = snap.tasks_completed;
  for (const auto& rec : snap.data) {
    Datum d;
    d.type = static_cast<DataType>(rec.type);
    d.closed = rec.closed;
    d.has_value = rec.has_value;
    d.value = rec.value;
    for (const auto& [k, v] : rec.entries) d.entries.emplace(k, v);
    d.read_refs = rec.read_refs;
    // Open datums are re-closed by the replayed program; their write
    // refcount bookkeeping restarts from scratch.
    d.write_refs = rec.closed ? rec.write_refs : 1;
    store_.emplace(rec.id, std::move(d));
  }
  for (uint64_t fp : snap.done_tasks) ++done_fingerprints_[fp];
  log::info("adlb: restored checkpoint seq ", snap.seq, ": ", store_.size(), " datums, ",
            snap.done_tasks.size(), " completed tasks");
}

void Server::evaluate_hunger() {
  for (int t = 0; t < cfg_.ntypes; ++t) {
    auto ts = static_cast<size_t>(t);
    if (!parked_[ts].empty() && untargeted_[ts].empty() && !announced_[ts] &&
        !peer_servers_.empty()) {
      ser::Writer w;
      w.put_u8(static_cast<uint8_t>(Op::kHungry));
      w.put_i32(t);
      for (int peer : peer_servers_) send_basic(peer, w);
      announced_[ts] = true;
      ++stats_.hungry_notices;
      obs::instant(obs::EventKind::kHungry, t);
    }
  }
}

void Server::send_batch(int peer, int type) {
  auto& queue = untargeted_[static_cast<size_t>(type)];
  if (queue.empty()) return;
  size_t take = cfg_.steal_half ? (queue.size() + 1) / 2 : 1;
  ser::Writer w;
  w.put_u8(static_cast<uint8_t>(Op::kForwardPut));
  w.put_u64(take);
  // Ship the back (lowest-priority) half, keeping urgent work local.
  for (size_t i = 0; i < take; ++i) {
    auto last = std::prev(queue.end());
    write_work_unit(w, last->second);
    queue.erase(last);
  }
  send_basic(peer, w);
  ++stats_.batches_sent;
  stats_.units_rebalanced += take;
  ++stats_.steal_batches;
  stats_.steal_batch_units += take;
  obs::instant(obs::EventKind::kSteal, peer, static_cast<int64_t>(take));
}

void Server::forward_unit(int dest, const WorkUnit& unit) {
  ++stats_.forwards;
  ForwardBatch& batch = forward_outbox_[dest];
  if (batch.n == 0) {
    batch.w = ser::Writer();
    batch.w.put_u8(static_cast<uint8_t>(Op::kForwardPut));
    batch.w.put_u64(0);  // placeholder; count rides separately
  }
  write_work_unit(batch.w, unit);
  ++batch.n;
}

void Server::flush_forwards() {
  if (forward_outbox_.empty()) return;
  for (auto& [dest, batch] : forward_outbox_) {
    if (batch.n == 0) continue;
    std::vector<std::byte> buf = batch.w.take();
    const uint64_t n = batch.n;
    std::memcpy(buf.data() + 1, &n, sizeof n);
    ++basic_count_;  // send_basic's accounting, for the buffer overload
    comm_.send(dest, kTagServer, std::move(buf));
    ++stats_.steal_batches;
    stats_.steal_batch_units += n;
  }
  forward_outbox_.clear();
}

// ---- server <-> server ----

void Server::handle_server(const mpi::Message& m) {
  ser::Reader r = m.reader();
  Op op = static_cast<Op>(r.get_u8());
  switch (op) {
    case Op::kForwardPut: {
      --basic_count_;
      black_ = true;
      uint64_t n = r.get_u64();
      for (uint64_t i = 0; i < n; ++i) accept_unit(read_work_unit(r));
      break;
    }
    case Op::kHungry: {
      --basic_count_;
      black_ = true;
      int type = r.get_i32();
      if (type < 0 || type >= cfg_.ntypes) break;
      if (!untargeted_[static_cast<size_t>(type)].empty()) {
        send_batch(m.source, type);
      } else {
        auto& hungry = hungry_peers_[static_cast<size_t>(type)];
        bool known = false;
        for (int peer : hungry) {
          if (peer == m.source) known = true;
        }
        if (!known) hungry.push_back(m.source);
      }
      break;
    }
    case Op::kToken: {
      ++stats_.tokens;
      int64_t q = r.get_i64();
      bool black = r.get_bool();
      obs::instant(obs::EventKind::kTermToken, q, black ? 1 : 0);
      if (index_ == 0) {
        token_outstanding_ = false;
        if (quiet() && !black && !black_ && q + basic_count_ == 0) {
          shutdown_all();
        }
        // Otherwise after_dispatch() re-initiates once quiet.
        black_ = false;
      } else {
        pending_token_ = {q, black};
      }
      break;
    }
    case Op::kShutdownServer: {
      release_parked();
      done_ = true;
      break;
    }
    default:
      throw CommError("adlb server: unexpected server opcode");
  }
}

// ---- data store ----

Server::Datum& Server::find_datum(int64_t id, const char* op) {
  auto it = store_.find(id);
  if (it == store_.end()) {
    throw DataError(std::string(op) + ": datum <" + std::to_string(id) + "> does not exist");
  }
  return it->second;
}

void Server::notify(int64_t id, int rank, int notify_type) {
  WorkUnit unit;
  unit.type = notify_type;
  unit.priority = kNotificationPriority;
  unit.target = rank;
  unit.payload = std::to_string(id);
  unit.flags = kUnitNotify;
  accept_unit(std::move(unit));
  ++stats_.notifications;
}

uint32_t Server::do_close(int64_t id, Datum& datum, int rpc_source) {
  datum.closed = true;
  if (!datum.subscribers.empty()) {
    obs::instant(obs::EventKind::kDataNotify, id,
                 static_cast<int64_t>(datum.subscribers.size()));
  }
  uint32_t self_notifications = 0;
  for (const auto& [rank, notify_type] : datum.subscribers) {
    notify(id, rank, notify_type);
    if (rank == rpc_source) ++self_notifications;
  }
  datum.subscribers.clear();
  return self_notifications;
}

uint64_t Server::epoch_of(int64_t id) const {
  auto it = gc_epochs_.find(id);
  return it == gc_epochs_.end() ? 0 : it->second;
}

void Server::write_retrieve_result(ser::Writer& w, int source, int64_t id, const Datum& d) {
  w.put_str(d.value);
  // closed is already established by the caller; a live datum's read
  // refcount is positive (zero deletes immediately), but ft tombstones
  // sit at zero and must not be cached.
  const bool cacheable = d.read_refs > 0;
  w.put_bool(cacheable);
  w.put_u64(epoch_of(id));
  // Under ft nothing is GC'd (tombstones), so no invalidation can ever be
  // owed and tracking handouts would only accumulate memory.
  if (cacheable && !cfg_.ft) handouts_[id].insert(source);
}

void Server::gc_datum(int64_t id) {
  // Bump the epoch first: any client holding this incarnation's bytes
  // sees the invalidation (on its next reply) before it can possibly see
  // a recreation of the id, because both travel the same ordered channel.
  const uint64_t epoch = ++gc_epochs_[id];
  auto h = handouts_.find(id);
  if (h != handouts_.end()) {
    for (int client : h->second) pending_inval_[client].emplace_back(id, epoch);
    handouts_.erase(h);
  }
  store_.erase(id);
}

// The ack-only mutations, applied by the kDataBatch loop (which has
// already read the sub-op's datum id). Every case reads its full argument
// list before any validation can throw — the batch loop relies on that to
// keep parsing past a failed sub-op.
uint32_t Server::apply_data_mutation(int source, Op op, int64_t id, ser::Reader& r) {
  switch (op) {
    case Op::kCreate: {
      auto type = static_cast<DataType>(r.get_u8());
      int64_t req = r.get_i64();
      if (store_.count(id) > 0) {
        // Replay (restart or retried task): re-creating the same id
        // with the same type is idempotent under fault tolerance.
        if (cfg_.ft && store_[id].type == type) return 0;
        throw DataError("create: datum <" + std::to_string(id) + "> already exists");
      }
      Datum d;
      d.type = type;
      store_.emplace(id, std::move(d));
      if (req != 0) req_index_[req].push_back(id);
      return 0;
    }
    case Op::kStore: {
      bool close = r.get_bool();
      std::string value = r.get_str();
      Datum& d = find_datum(id, "store");
      if (d.closed) {
        // Replay writing back the identical value is idempotent; a
        // different value is still a real double assignment.
        if (cfg_.ft && d.has_value && d.value == value) return 0;
        throw DataError("store: datum <" + std::to_string(id) +
                        "> already closed (double assignment)");
      }
      d.value = std::move(value);
      d.has_value = true;
      return close ? do_close(id, d, source) : 0;
    }
    case Op::kCloseDatum: {
      Datum& d = find_datum(id, "close");
      if (d.closed) {
        if (cfg_.ft) return 0;  // replayed close of a void future
        throw DataError("close: datum <" + std::to_string(id) + "> already closed");
      }
      return do_close(id, d, source);
    }
    case Op::kRefIncr: {
      int delta = r.get_i32();
      Datum& d = find_datum(id, "refcount");
      d.read_refs += delta;
      if (d.read_refs < 0) {
        // Replayed decrements may overshoot; clamp instead of failing.
        if (cfg_.ft) {
          d.read_refs = 0;
        } else {
          throw DataError("refcount: datum <" + std::to_string(id) + "> underflow");
        }
      }
      // Under fault tolerance the datum is kept as a tombstone: a
      // restart replays reads that the refcounts say already happened.
      if (d.read_refs == 0 && !cfg_.ft) gc_datum(id);
      return 0;
    }
    case Op::kWriteIncr: {
      int delta = r.get_i32();
      Datum& d = find_datum(id, "write refcount");
      if (d.closed) {
        if (cfg_.ft) return 0;  // replayed decrement after the close already happened
        throw DataError("write refcount: datum <" + std::to_string(id) + "> already closed");
      }
      d.write_refs += delta;
      if (d.write_refs < 0) {
        throw DataError("write refcount: datum <" + std::to_string(id) + "> underflow");
      }
      return d.write_refs == 0 ? do_close(id, d, source) : 0;
    }
    case Op::kSubscribe: {
      int notify_type = r.get_i32();
      Datum& d = find_datum(id, "subscribe");
      if (d.closed) {
        // The same targeted notification a close would have queued, and
        // the same self-notify credit on the kAckBatch: a closed input
        // reaches the subscriber through the one notification path.
        notify(id, source, notify_type);
        return 1;
      }
      obs::instant(obs::EventKind::kDataSubscribe, id, source);
      d.subscribers.emplace_back(source, notify_type);
      return 0;
    }
    case Op::kInsert: {
      std::string key = r.get_str();
      std::string value = r.get_str();
      Datum& d = find_datum(id, "insert");
      if (d.type != DataType::kContainer) {
        throw DataError("insert: datum <" + std::to_string(id) + "> is not a container");
      }
      {
        // Replayed insert of the identical (key, value) is idempotent,
        // even after the container closed.
        auto prev = d.entries.find(key);
        if (cfg_.ft && prev != d.entries.end() && prev->second == value) return 0;
      }
      if (d.closed) {
        throw DataError("insert: container <" + std::to_string(id) + "> is closed");
      }
      if (d.entries.count(key) > 0) {
        throw DataError("insert: container <" + std::to_string(id) + "> already has key \"" +
                        key + "\"");
      }
      d.entries.emplace(std::move(key), std::move(value));
      return 0;
    }
    default:
      // Not an ack-only opcode: the batch framing itself is corrupt, and
      // the reader can no longer be trusted to stay aligned.
      throw CommError("adlb: opcode " + std::to_string(static_cast<int>(op)) +
                      " is not batchable");
  }
}

void Server::handle_data_op(int source, Op op, ser::Reader& r) {
  ++stats_.data_ops;
  try {
    switch (op) {
      case Op::kRetrieve: {
        int64_t id = r.get_i64();
        Datum& d = find_datum(id, "retrieve");
        if (!d.closed) {
          throw DataError("retrieve: datum <" + std::to_string(id) + "> is not closed");
        }
        ser::Writer w = reply_writer(source);
        w.put_u8(static_cast<uint8_t>(Op::kValue));
        write_retrieve_result(w, source, id, d);
        comm_.send(source, kTagResponse, std::move(w));
        return;
      }
      case Op::kMultiRetrieve: {
        // One reply carries every id's result; per-id status instead of a
        // batch-wide error, so the client can name the offending id.
        uint64_t n = r.get_u64();
        ser::Writer w = reply_writer(source);
        w.put_u8(static_cast<uint8_t>(Op::kValue));
        w.put_u64(n);
        for (uint64_t i = 0; i < n; ++i) {
          int64_t id = r.get_i64();
          auto it = store_.find(id);
          if (it == store_.end()) {
            w.put_u8(0);
            w.put_str("retrieve: datum <" + std::to_string(id) + "> does not exist");
            continue;
          }
          if (!it->second.closed) {
            w.put_u8(0);
            w.put_str("retrieve: datum <" + std::to_string(id) + "> is not closed");
            continue;
          }
          w.put_u8(1);
          write_retrieve_result(w, source, id, it->second);
        }
        comm_.send(source, kTagResponse, std::move(w));
        return;
      }
      case Op::kExists: {
        int64_t id = r.get_i64();
        ser::Writer w = reply_writer(source);
        w.put_u8(static_cast<uint8_t>(Op::kValue));
        w.put_bool(store_.count(id) > 0);
        comm_.send(source, kTagResponse, std::move(w));
        return;
      }
      case Op::kTypeOf: {
        int64_t id = r.get_i64();
        Datum& d = find_datum(id, "typeof");
        ser::Writer w = reply_writer(source);
        w.put_u8(static_cast<uint8_t>(Op::kValue));
        w.put_u8(static_cast<uint8_t>(d.type));
        comm_.send(source, kTagResponse, std::move(w));
        return;
      }
      case Op::kLookup: {
        int64_t id = r.get_i64();
        std::string key = r.get_str();
        Datum& d = find_datum(id, "lookup");
        if (d.type != DataType::kContainer) {
          throw DataError("lookup: datum <" + std::to_string(id) + "> is not a container");
        }
        ser::Writer w = reply_writer(source);
        auto it = d.entries.find(key);
        if (it == d.entries.end()) {
          w.put_u8(static_cast<uint8_t>(Op::kNoValue));
        } else {
          w.put_u8(static_cast<uint8_t>(Op::kValue));
          w.put_str(it->second);
        }
        comm_.send(source, kTagResponse, std::move(w));
        return;
      }
      case Op::kEnumerate: {
        int64_t id = r.get_i64();
        Datum& d = find_datum(id, "enumerate");
        if (d.type != DataType::kContainer) {
          throw DataError("enumerate: datum <" + std::to_string(id) + "> is not a container");
        }
        ser::Writer w = reply_writer(source);
        w.put_u8(static_cast<uint8_t>(Op::kValue));
        w.put_u64(d.entries.size());
        for (const auto& [k, v] : d.entries) {
          w.put_str(k);
          w.put_str(v);
        }
        // A closed container's entry set is as immutable as a closed
        // scalar, so the enumeration is cacheable under the same rule.
        const bool cacheable = d.closed && d.read_refs > 0;
        w.put_bool(cacheable);
        w.put_u64(epoch_of(id));
        if (cacheable && !cfg_.ft) handouts_[id].insert(source);
        comm_.send(source, kTagResponse, std::move(w));
        return;
      }
      case Op::kFreeNamespace: {
        int64_t req = r.get_i64();
        uint64_t leftover = 0;
        uint64_t stuck = 0;
        auto it = req_index_.find(req);
        if (it != req_index_.end()) {
          for (int64_t id : it->second) {
            auto sit = store_.find(id);
            if (sit == store_.end()) continue;  // already refcount-GC'd
            const Datum& d = sit->second;
            if (!d.closed) {
              // Same diagnostics release_parked() produces at shutdown;
              // counting here (the store is swept clean below) keeps the
              // run-level leftover/stuck totals identical.
              ++leftover;
              ++stats_.leftover_data;
              if (!d.subscribers.empty()) {
                ++stuck;
                ++stats_.stuck_datums;
                obs::instant(obs::EventKind::kDatumStuck, id,
                             static_cast<int64_t>(d.subscribers.size()));
                if (stats_.stuck_datums <= 8) {
                  log::warn("adlb: datum <", id, "> never closed; ", d.subscribers.size(),
                            " subscriber(s) still waiting");
                }
              }
            }
            gc_datum(id);
          }
          req_index_.erase(it);
        }
        ser::Writer w = reply_writer(source);
        w.put_u8(static_cast<uint8_t>(Op::kValue));
        w.put_u64(leftover);
        w.put_u64(stuck);
        comm_.send(source, kTagResponse, std::move(w));
        return;
      }
      case Op::kDatumCount: {
        ser::Writer w = reply_writer(source);
        w.put_u8(static_cast<uint8_t>(Op::kValue));
        w.put_u64(store_.size());
        comm_.send(source, kTagResponse, std::move(w));
        return;
      }
      default:
        reply_error(source, "adlb: unknown opcode " + std::to_string(static_cast<int>(op)));
        return;
    }
  } catch (const DataError& e) {
    reply_error(source, e.what());
  }
}

// ---- termination ----

bool Server::quiet() const {
  size_t accounted = parked_clients_.size();
  for (int c : my_clients_) {
    if (dead_clients_.count(c) > 0) ++accounted;  // the dead are forever quiet
  }
  if (accounted != my_clients_.size()) return false;
  if (!deferred_.empty()) return false;  // a requeued unit is pending work
  // Coalesced forwards not yet flushed are messages Safra hasn't counted.
  if (!forward_outbox_.empty()) return false;
  for (const auto& queue : untargeted_) {
    if (!queue.empty()) return false;
  }
  for (const auto& [key, queue] : targeted_) {
    (void)key;
    if (!queue.empty()) return false;
  }
  return true;
}

void Server::initiate_token() {
  // b=2 marks initiation (vs 0/1 = received token's black bit).
  obs::instant(obs::EventKind::kTermToken, 0, 2);
  if (cfg_.nservers == 1) {
    shutdown_all();
    return;
  }
  token_outstanding_ = true;
  black_ = false;
  ser::Writer w;
  w.put_u8(static_cast<uint8_t>(Op::kToken));
  w.put_i64(0);  // server 0's own count is added at the conclusion check
  w.put_bool(false);
  comm_.send(next_server_, kTagServer, w);
}

void Server::try_forward_token() {
  if (!pending_token_ || !quiet()) return;
  auto [q, black] = *pending_token_;
  pending_token_.reset();
  ser::Writer w;
  w.put_u8(static_cast<uint8_t>(Op::kToken));
  w.put_i64(q + basic_count_);
  w.put_bool(black || black_);
  black_ = false;
  comm_.send(next_server_, kTagServer, w);
}

void Server::shutdown_all() {
  obs::instant(obs::EventKind::kShutdown);
  for (int peer : peer_servers_) {
    ser::Writer w;
    w.put_u8(static_cast<uint8_t>(Op::kShutdownServer));
    comm_.send(peer, kTagServer, w);
  }
  release_parked();
  done_ = true;
}

void Server::release_parked() {
  for (auto& queue : parked_) {
    for (int client : queue) {
      ser::Writer w = reply_writer(client);
      w.put_u8(static_cast<uint8_t>(Op::kShutdownClient));
      comm_.send(client, kTagResponse, std::move(w));
    }
    queue.clear();
  }
  parked_clients_.clear();
  for (const auto& [id, datum] : store_) {
    if (!datum.closed) ++stats_.leftover_data;
    // An unclosed datum with live subscribers is the data-store view of a
    // deadlock: some rule subscribed and the close never came.
    if (!datum.closed && !datum.subscribers.empty()) {
      ++stats_.stuck_datums;
      obs::instant(obs::EventKind::kDatumStuck, id,
                   static_cast<int64_t>(datum.subscribers.size()));
      if (stats_.stuck_datums <= 8) {
        log::warn("adlb: datum <", id, "> never closed; ", datum.subscribers.size(),
                  " subscriber(s) still waiting");
      }
    }
  }
}

// ---- replies ----

ser::Writer Server::reply_writer(int dest) {
  ser::Writer w = comm_.writer();
  auto it = pending_inval_.find(dest);
  if (it == pending_inval_.end() || it->second.empty()) {
    w.put_u32(0);
    return w;
  }
  w.put_u32(static_cast<uint32_t>(it->second.size()));
  for (const auto& [id, epoch] : it->second) {
    w.put_i64(id);
    w.put_u64(epoch);
  }
  it->second.clear();
  return w;
}

void Server::reply_ack(int dest) {
  ser::Writer w = reply_writer(dest);
  w.put_u8(static_cast<uint8_t>(Op::kAck));
  comm_.send(dest, kTagResponse, std::move(w));
}

void Server::reply_error(int dest, const std::string& message) {
  ser::Writer w = reply_writer(dest);
  w.put_u8(static_cast<uint8_t>(Op::kError));
  w.put_str(message);
  comm_.send(dest, kTagResponse, std::move(w));
}

void Server::send_basic(int dest, const ser::Writer& w) {
  ++basic_count_;
  comm_.send(dest, kTagServer, w);
}

}  // namespace ilps::adlb
