#include "turbine/engine.h"

#include <algorithm>

#include "obs/trace.h"

namespace ilps::turbine {

Engine::RequestState& Engine::state(int64_t req) { return requests_[req]; }

void Engine::mark_dirty(int64_t req) {
  if (req != 0) dirty_.insert(req);
}

void Engine::touch(int64_t req, int64_t id) {
  if (req == 0) return;
  auto [it, inserted] = datum_req_.emplace(id, req);
  if (inserted) req_datums_[req].push_back(id);
}

void Engine::add_rule(const std::vector<int64_t>& inputs, std::string action, TaskType type,
                      int target, int priority) {
  ++stats_.rules_created;
  obs::instant(obs::EventKind::kRuleCreated, next_id_,
               static_cast<int64_t>(inputs.size()));
  Rule rule;
  rule.action = std::move(action);
  rule.type = type;
  rule.target = target;
  rule.priority = priority;
  rule.req = client_.serve_ctx().req;

  int64_t rule_id = next_id_++;
  for (int64_t input : inputs) {
    if (closed_.count(input) > 0) continue;
    // Every input not known closed waits for its notification. The first
    // watcher subscribes, write-behind: the engine never blocks here, and
    // an input that is closed already is notified at once.
    std::vector<int64_t>& watching = watchers_[input];
    watching.push_back(rule_id);
    ++rule.waiting;
    if (watching.size() > 1) continue;
    ++stats_.subscribes;
    touch(rule.req, input);
    client_.subscribe(input, adlb::kTypeControl);
  }

  if (rule.waiting == 0) {
    ++stats_.rules_fired_immediately;
    release(std::move(rule));
    return;
  }
  if (rule.req != 0) {
    ++state(rule.req).pending;
    mark_dirty(rule.req);
  }
  rules_.emplace(rule_id, std::move(rule));
}

void Engine::notify_closed(int64_t id) {
  ++stats_.notifications;
  closed_.insert(id);
  // Consume a self-notification credit: the close notification the
  // accounting was holding the request open for has now arrived.
  auto sit = self_notify_.find(id);
  if (sit != self_notify_.end()) {
    auto& [req, count] = sit->second;
    auto rit = requests_.find(req);
    if (rit != requests_.end()) {
      --rit->second.active;
      mark_dirty(req);
    }
    if (--count == 0) self_notify_.erase(sit);
  }
  auto it = watchers_.find(id);
  if (it == watchers_.end()) return;
  std::vector<int64_t> rule_ids = std::move(it->second);
  watchers_.erase(it);
  for (int64_t rule_id : rule_ids) {
    auto rit = rules_.find(rule_id);
    if (rit == rules_.end()) continue;
    if (--rit->second.waiting == 0) {
      Rule rule = std::move(rit->second);
      rules_.erase(rit);
      if (rule.req != 0) {
        --state(rule.req).pending;
        mark_dirty(rule.req);
      }
      release(std::move(rule));
    }
  }
}

void Engine::note_closed(int64_t id) {
  closed_.insert(id);
  touch(client_.serve_ctx().req, id);
}

EngineStats Engine::stats() const {
  EngineStats s = stats_;
  s.sync_data_rpcs = client_.pipeline_stats().sync_rpcs;
  return s;
}

void Engine::name_datum(int64_t id, std::string name, int line) {
  StuckInput sym;
  sym.id = id;
  sym.name = std::move(name);
  sym.line = line;
  touch(client_.serve_ctx().req, id);
  names_[id] = std::move(sym);
}

std::string Engine::describe_datum(int64_t id) const {
  auto it = names_.find(id);
  if (it == names_.end()) return {};
  return "variable \"" + it->second.name + "\" (line " + std::to_string(it->second.line) + ")";
}

std::vector<StuckRule> Engine::stuck_report() const {
  // Invert watchers_ (datum -> rule ids) to find what each pending rule
  // is still waiting on.
  std::unordered_map<int64_t, std::vector<int64_t>> waits;  // rule -> datums
  for (const auto& [datum, rule_ids] : watchers_) {
    for (int64_t rule_id : rule_ids) waits[rule_id].push_back(datum);
  }
  std::vector<StuckRule> report;
  report.reserve(rules_.size());
  for (const auto& [rule_id, rule] : rules_) {
    StuckRule stuck;
    stuck.id = rule_id;
    stuck.action = rule.action;
    auto wit = waits.find(rule_id);
    if (wit != waits.end()) {
      for (int64_t datum : wit->second) {
        auto nit = names_.find(datum);
        if (nit != names_.end()) {
          stuck.waiting.push_back(nit->second);
        } else {
          StuckInput anon;
          anon.id = datum;
          stuck.waiting.push_back(std::move(anon));
        }
      }
    }
    report.push_back(std::move(stuck));
  }
  // Deterministic order for tests and logs.
  std::sort(report.begin(), report.end(),
            [](const StuckRule& a, const StuckRule& b) { return a.id < b.id; });
  for (auto& stuck : report) {
    std::sort(stuck.waiting.begin(), stuck.waiting.end(),
              [](const StuckInput& a, const StuckInput& b) { return a.id < b.id; });
  }
  return report;
}

void Engine::release(Rule&& rule) {
  ++stats_.rules_fired;
  // Fires triggered by close notifications run outside any request scope,
  // so attribute the fire (and the put it causes) to the rule's request.
  obs::RequestScope rscope(rule.req);
  obs::instant(obs::EventKind::kRuleFired, static_cast<int64_t>(rule.type));
  if (rule.type == TaskType::kLocal) {
    if (rule.req != 0) {
      ++state(rule.req).active;
      mark_dirty(rule.req);
    }
    local_ready_.push_back({rule.req, std::move(rule.action)});
    return;
  }
  adlb::WorkUnit unit;
  unit.type = static_cast<int>(rule.type);
  unit.priority = rule.priority;
  unit.target = rule.target;
  unit.payload = std::move(rule.action);
  if (rule.req != 0) {
    // Rules live only on the request's owner engine (control affinity),
    // so released units are stamped and counted right here; the client's
    // on_spawned hook registers the +1 before the unit leaves.
    unit.req = rule.req;
    unit.owner = client_.rank();
    unit.prog = state(rule.req).prog;
    if (unit.type == adlb::kTypeControl && unit.target == adlb::kAnyRank) {
      unit.target = client_.rank();
    }
  }
  client_.put(unit);
}

// ---- serve request accounting ----

void Engine::begin_request(int64_t req, int64_t prog) {
  RequestState& st = state(req);
  st.begun = true;
  st.prog = prog;
  mark_dirty(req);
}

void Engine::on_spawned(int64_t req) {
  if (req == 0) return;
  ++state(req).active;
  mark_dirty(req);
}

void Engine::unit_done(int64_t req) {
  if (req == 0) return;
  --state(req).active;
  mark_dirty(req);
}

void Engine::note_self_notify(int64_t req, int64_t id, uint32_t count) {
  if (req == 0 || count == 0) return;
  state(req).active += count;
  auto [it, inserted] = self_notify_.emplace(id, std::make_pair(req, count));
  if (!inserted) it->second.second += count;
  mark_dirty(req);
}

void Engine::local_done(int64_t req) { unit_done(req); }

void Engine::fail_request(int64_t req, RequestErrorKind kind, std::string error) {
  if (req == 0) return;
  RequestState& st = state(req);
  if (!st.failed) {  // first error wins
    st.failed = true;
    st.kind = kind;
    st.error = std::move(error);
  }
  mark_dirty(req);
}

std::vector<int64_t> Engine::take_completed() {
  if (dirty_.empty()) return {};
  std::vector<int64_t> done;
  for (int64_t req : dirty_) {
    auto it = requests_.find(req);
    if (it == requests_.end()) continue;
    const RequestState& st = it->second;
    if (!st.begun || st.active != 0) continue;
    // active == 0 with rules still pending is a confirmed deadlock —
    // nothing left in flight can ever close the datums they wait on — so
    // the request is complete either way; finish_request classifies it.
    done.push_back(req);
  }
  dirty_.clear();
  // Deterministic completion order when several requests finish in the
  // same engine-loop iteration.
  std::sort(done.begin(), done.end());
  return done;
}

RequestOutcome Engine::finish_request(int64_t req) {
  RequestOutcome out;
  out.req = req;
  auto it = requests_.find(req);
  if (it != requests_.end()) {
    RequestState& st = it->second;
    if (st.failed) {
      out.kind = st.kind;
      out.error = std::move(st.error);
    }
    // Deadlocked (or failed-with-leftovers): collect and erase the
    // request's never-fired rules plus their watcher entries.
    if (st.pending > 0) {
      std::unordered_map<int64_t, std::vector<int64_t>> waits;
      for (auto rit = rules_.begin(); rit != rules_.end();) {
        if (rit->second.req != req) {
          ++rit;
          continue;
        }
        StuckRule stuck;
        stuck.id = rit->first;
        stuck.action = rit->second.action;
        waits[rit->first] = {};
        rit = rules_.erase(rit);
        out.stuck.push_back(std::move(stuck));
      }
      for (auto wit = watchers_.begin(); wit != watchers_.end();) {
        auto& rule_ids = wit->second;
        for (auto vid = rule_ids.begin(); vid != rule_ids.end();) {
          auto w = waits.find(*vid);
          if (w != waits.end()) {
            w->second.push_back(wit->first);
            vid = rule_ids.erase(vid);
          } else {
            ++vid;
          }
        }
        wit = rule_ids.empty() ? watchers_.erase(wit) : std::next(wit);
      }
      for (StuckRule& stuck : out.stuck) {
        for (int64_t datum : waits[stuck.id]) {
          auto nit = names_.find(datum);
          if (nit != names_.end()) {
            stuck.waiting.push_back(nit->second);
          } else {
            StuckInput anon;
            anon.id = datum;
            stuck.waiting.push_back(std::move(anon));
          }
        }
        std::sort(stuck.waiting.begin(), stuck.waiting.end(),
                  [](const StuckInput& a, const StuckInput& b) { return a.id < b.id; });
      }
      std::sort(out.stuck.begin(), out.stuck.end(),
                [](const StuckRule& a, const StuckRule& b) { return a.id < b.id; });
      out.unfired_rules = out.stuck.size();
      if (out.kind == RequestErrorKind::kNone) out.kind = RequestErrorKind::kDeadlock;
    }
    requests_.erase(it);
  }
  // Drop every per-datum record the request accumulated so resident
  // memory stays bounded across requests.
  auto dit = req_datums_.find(req);
  if (dit != req_datums_.end()) {
    for (int64_t id : dit->second) {
      closed_.erase(id);
      names_.erase(id);
      datum_req_.erase(id);
      self_notify_.erase(id);
      watchers_.erase(id);
    }
    req_datums_.erase(dit);
  }
  dirty_.erase(req);
  return out;
}

}  // namespace ilps::turbine
