#include "turbine/context.h"

#include <cstdio>
#include <cstdlib>

#include "common/strings.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "turbine/app.h"

namespace ilps::turbine {

namespace {

int64_t want_id(const std::string& s) {
  auto id = str::parse_int(s);
  if (!id) throw tcl::TclError("turbine: expected a datum id, got \"" + s + "\"");
  return *id;
}

adlb::DataType want_type(const std::string& s) {
  auto t = adlb::data_type_from_name(s);
  if (!t) throw tcl::TclError("turbine: unknown data type \"" + s + "\"");
  return *t;
}

// Maps a caught Error to the typed kind a request outcome carries, so the
// submission side can rethrow the same exception type. TclError derives
// from ScriptError, so both classify as kScript.
RequestErrorKind classify_error(const Error& e) {
  if (dynamic_cast<const DataError*>(&e) != nullptr) return RequestErrorKind::kData;
  if (dynamic_cast<const TaskError*>(&e) != nullptr) return RequestErrorKind::kTask;
  if (dynamic_cast<const OsError*>(&e) != nullptr) return RequestErrorKind::kOs;
  if (dynamic_cast<const ScriptError*>(&e) != nullptr) return RequestErrorKind::kScript;
  return RequestErrorKind::kGeneric;
}

}  // namespace

Context::Context(adlb::Client& client, Engine* engine, const ContextConfig& cfg)
    : client_(client), engine_(engine), cfg_(cfg) {
  interp_.set_puts_handler([this](std::string_view text, bool newline) {
    std::string line(text);
    if (newline) line += '\n';
    emit(line);
  });
  register_commands();
  // On engine ranks, data errors name the source variable behind the
  // offending id via the compiler's symbol map.
  if (engine_ != nullptr) {
    Engine* engine = engine_;
    client_.set_symbol_hint([engine](int64_t id) { return engine->describe_datum(id); });
    // Owner-engine request accounting: +1 when a request-tagged unit is
    // counted at put time, +n when a store ACK reports close
    // notifications queued back to this very rank. Both hooks are inert
    // while no request scope is active (all of legacy/batch mode).
    client_.set_serve_hooks(
        [engine](int64_t req) { engine->on_spawned(req); },
        [engine](int64_t req, int64_t id, uint32_t n) { engine->note_self_notify(req, id, n); });
  }
  blob::register_blobutils(interp_, blobs_);
  if (cfg_.setup_interp) cfg_.setup_interp(interp_);
  if (cfg_.setup_bindings) cfg_.setup_bindings(interp_, blobs_);
  if (const char* e = std::getenv("ILPS_TCL_UNIT_CACHE")) {
    if (auto n = str::parse_int(e); n && *n > 0) unit_cap_ = static_cast<size_t>(*n);
  }
}

std::string Context::exec_action(const std::string& script) {
  if (!interp_.compile_enabled()) return interp_.eval(script);
  // FNV-1a over the action text: the unit key. Same text -> same unit on
  // this rank, no matter which request or program shipped it.
  uint64_t h = 1469598103934665603ull;
  for (char c : script) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  auto it = unit_map_.find(h);
  if (it != unit_map_.end() && it->second->source == script) {
    unit_lru_.splice(unit_lru_.begin(), unit_lru_, it->second);
    ++interp_.compile_stats().hits;
    // Keep the unit alive across exec: a recursive exec_action (an action
    // that evals further actions) may evict this entry meanwhile.
    std::shared_ptr<const tcl::CompiledUnit> unit = unit_lru_.front().unit;
    return interp_.exec(*unit);
  }
  std::shared_ptr<const tcl::CompiledUnit> unit = interp_.compile(script);
  if (it != unit_map_.end()) {
    // Hash collision with different source: replace the stale entry.
    it->second->source = script;
    it->second->unit = unit;
    unit_lru_.splice(unit_lru_.begin(), unit_lru_, it->second);
  } else {
    unit_lru_.push_front(UnitEntry{h, script, unit});
    unit_map_[h] = unit_lru_.begin();
    if (unit_lru_.size() > unit_cap_) {
      unit_map_.erase(unit_lru_.back().hash);
      unit_lru_.pop_back();
    }
  }
  return interp_.exec(*unit);
}

void Context::emit(const std::string& line) {
  if (cfg_.output) {
    cfg_.output(cur_req_, client_.rank(), line);
  } else {
    std::fwrite(line.data(), 1, line.size(), stdout);
  }
}

py::Interpreter& Context::python() {
  if (!python_) {
    python_ = std::make_unique<py::Interpreter>();
    python_->set_print_handler([this](const std::string& s) { emit(s + "\n"); });
  }
  return *python_;
}

r::Interpreter& Context::rlang() {
  if (!rlang_) {
    rlang_ = std::make_unique<r::Interpreter>();
    rlang_->set_output_handler([this](const std::string& s) { emit(s); });
  }
  return *rlang_;
}

void Context::end_task() {
  if (cfg_.policy == InterpPolicy::kReinitialize) {
    if (python_) {
      python_->reset();
      ++stats_.interpreter_resets;
    }
    if (rlang_) {
      rlang_->reset();
      ++stats_.interpreter_resets;
    }
  }
}

// ---- the turbine::* Tcl library ----

void Context::register_commands() {
  using Args = std::vector<std::string>;
  auto& in = interp_;
  Context* ctx = this;

  // -- identity --
  in.register_command("turbine::rank", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 0, 0, "");
    return std::to_string(ctx->client_.rank());
  });
  in.register_command("turbine::is_engine", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 0, 0, "");
    return std::string(ctx->engine_ != nullptr ? "1" : "0");
  });

  // -- data allocation --
  in.register_command("turbine::unique", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 0, 0, "");
    return std::to_string(ctx->client_.unique());
  });
  in.register_command("turbine::create", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 2, 2, "id type");
    ctx->client_.create(want_id(a[1]), want_type(a[2]));
    return std::string();
  });
  // Convenience per-type creators; `turbine::allocate type` also returns
  // a fresh id.
  for (const char* type_name :
       {"integer", "float", "string", "blob", "void", "container", "file"}) {
    std::string cmd = std::string("turbine::create_") + type_name;
    adlb::DataType type = *adlb::data_type_from_name(type_name);
    in.register_command(cmd, [ctx, type](tcl::Interp&, Args& a) {
      tcl::check_arity(a, 1, 1, "id");
      ctx->client_.create(want_id(a[1]), type);
      return std::string();
    });
  }
  in.register_command("turbine::allocate", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 1, "type");
    int64_t id = ctx->client_.unique();
    ctx->client_.create(id, want_type(a[1]));
    return std::to_string(id);
  });
  // Symbol map for stuck-future reports: the compiled program registers
  // each named variable's datum id with its source name and line. A no-op
  // on ranks without an engine (workers evaluate the same prelude).
  in.register_command("turbine::declare_name", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 3, 3, "id name line");
    if (ctx->engine_ != nullptr) {
      ctx->engine_->name_datum(want_id(a[1]), a[2], static_cast<int>(want_id(a[3])));
    }
    return std::string();
  });

  // -- store --
  // A datum an engine closes itself is known closed there at once: rules
  // on it fire without waiting for a notification.
  const auto store_datum = [ctx](const std::string& id_arg, std::string_view value) {
    const int64_t id = want_id(id_arg);
    ctx->client_.store(id, value);
    if (ctx->engine_ != nullptr) ctx->engine_->note_closed(id);
  };
  const auto close_datum = [ctx](const std::string& id_arg) {
    const int64_t id = want_id(id_arg);
    ctx->client_.close(id);
    if (ctx->engine_ != nullptr) ctx->engine_->note_closed(id);
  };
  in.register_command("turbine::store_integer", [store_datum](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 2, 2, "id value");
    auto v = str::parse_int(a[2]);
    if (!v) throw tcl::TclError("store_integer: \"" + a[2] + "\" is not an integer");
    store_datum(a[1], std::to_string(*v));
    return std::string();
  });
  in.register_command("turbine::store_float", [store_datum](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 2, 2, "id value");
    auto v = str::parse_double(a[2]);
    if (!v) throw tcl::TclError("store_float: \"" + a[2] + "\" is not a number");
    store_datum(a[1], str::format_double(*v));
    return std::string();
  });
  in.register_command("turbine::store_string", [store_datum](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 2, 2, "id value");
    store_datum(a[1], a[2]);
    return std::string();
  });
  in.register_command("turbine::store_blob", [ctx, store_datum](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 2, 2, "id blobHandle");
    store_datum(a[1], ctx->blobs_.get(a[2]).to_string());
    return std::string();
  });
  in.register_command("turbine::store_void", [close_datum](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 1, "id");
    close_datum(a[1]);
    return std::string();
  });

  // -- retrieve --
  auto retrieve = [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 1, "id");
    return ctx->client_.retrieve(want_id(a[1]));
  };
  in.register_command("turbine::retrieve", retrieve);
  in.register_command("turbine::retrieve_integer", retrieve);
  in.register_command("turbine::retrieve_float", retrieve);
  in.register_command("turbine::retrieve_string", retrieve);
  // One RPC per owning server for a whole list of ids; returns the values
  // as a Tcl list in input order. Rule bodies with several input futures
  // use this instead of a retrieve loop.
  in.register_command("turbine::multi_retrieve", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 1, "idList");
    std::vector<int64_t> ids;
    for (const auto& tok : tcl::list_split(a[1])) ids.push_back(want_id(tok));
    return tcl::list_join(ctx->client_.multi_retrieve(ids));
  });
  in.register_command("turbine::retrieve_blob", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 1, "id");
    // Zero copy: the blob aliases the retrieve reply (or the cached
    // bytes) until some binding mutates it.
    return ctx->blobs_.insert(blob::Blob::from_view(ctx->client_.retrieve_view(want_id(a[1]))));
  });
  in.register_command("turbine::exists", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 1, "id");
    return std::string(ctx->client_.exists(want_id(a[1])) ? "1" : "0");
  });
  in.register_command("turbine::typeof", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 1, "id");
    return std::string(adlb::data_type_name(ctx->client_.type_of(want_id(a[1]))));
  });
  in.register_command("turbine::close", [close_datum](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 1, "id");
    close_datum(a[1]);
    return std::string();
  });

  // -- refcounts --
  in.register_command("turbine::read_incr", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 2, 2, "id delta");
    ctx->client_.ref_incr(want_id(a[1]), static_cast<int>(want_id(a[2])));
    return std::string();
  });
  in.register_command("turbine::write_incr", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 2, 2, "id delta");
    ctx->client_.write_incr(want_id(a[1]), static_cast<int>(want_id(a[2])));
    return std::string();
  });

  // -- containers --
  in.register_command("turbine::container_insert", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 3, 3, "id key value");
    ctx->client_.insert(want_id(a[1]), a[2], a[3]);
    return std::string();
  });
  in.register_command("turbine::container_lookup", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 2, 2, "id key");
    auto v = ctx->client_.lookup(want_id(a[1]), a[2]);
    if (!v) throw tcl::TclError("container <" + a[1] + "> has no key \"" + a[2] + "\"");
    return *v;
  });
  in.register_command("turbine::container_size", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 1, "id");
    return std::to_string(ctx->client_.enumerate(want_id(a[1])).size());
  });
  in.register_command("turbine::enumerate", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 1, "id");
    std::vector<std::string> flat;
    for (const auto& [k, v] : ctx->client_.enumerate(want_id(a[1]))) {
      flat.push_back(k);
      flat.push_back(v);
    }
    return tcl::list_join(flat);
  });

  // -- rules and tasks --
  in.register_command("turbine::rule", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 2, -1, "inputs action ?type TYPE? ?target RANK? ?priority P?");
    if (ctx->engine_ == nullptr) {
      throw tcl::TclError("turbine::rule: rules may only be created on engine ranks");
    }
    std::vector<int64_t> inputs;
    for (const auto& tok : tcl::list_split(a[1])) inputs.push_back(want_id(tok));
    TaskType type = TaskType::kWork;
    int target = adlb::kAnyRank;
    int priority = 0;
    for (size_t i = 3; i < a.size(); i += 2) {
      if (i + 1 >= a.size()) throw tcl::TclError("turbine::rule: option needs a value");
      const std::string& opt = a[i];
      const std::string& val = a[i + 1];
      if (opt == "type") {
        std::string upper = str::to_upper(val);
        if (upper == "WORK") {
          type = TaskType::kWork;
        } else if (upper == "CONTROL") {
          type = TaskType::kControl;
        } else if (upper == "LOCAL") {
          type = TaskType::kLocal;
        } else {
          throw tcl::TclError("turbine::rule: unknown type \"" + val + "\"");
        }
      } else if (opt == "target") {
        target = static_cast<int>(want_id(val));
      } else if (opt == "priority") {
        priority = static_cast<int>(want_id(val));
      } else {
        throw tcl::TclError("turbine::rule: unknown option \"" + opt + "\"");
      }
    }
    ctx->engine_->add_rule(inputs, a[2], type, target, priority);
    return std::string();
  });
  in.register_command("turbine::put_control", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 2, "action ?priority?");
    adlb::WorkUnit unit;
    unit.type = adlb::kTypeControl;
    unit.payload = a[1];
    if (a.size() > 2) unit.priority = static_cast<int>(want_id(a[2]));
    ctx->client_.put(unit);
    return std::string();
  });
  in.register_command("turbine::put_work", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 2, "action ?priority?");
    adlb::WorkUnit unit;
    unit.type = adlb::kTypeWork;
    unit.payload = a[1];
    if (a.size() > 2) unit.priority = static_cast<int>(want_id(a[2]));
    ctx->client_.put(unit);
    return std::string();
  });
  in.register_command("turbine::put_work_to", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 2, 2, "targetRank action");
    adlb::WorkUnit unit;
    unit.type = adlb::kTypeWork;
    unit.target = static_cast<int>(want_id(a[1]));
    unit.payload = a[2];
    ctx->client_.put(unit);
    return std::string();
  });

  // -- interlanguage leaf functions (§III of the paper) --
  in.register_command("python", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 2, "code ?expr?");
    ++ctx->stats_.python_evals;
    try {
      return ctx->python().eval(a[1], a.size() > 2 ? a[2] : "");
    } catch (const py::PyError& e) {
      throw tcl::TclError(std::string("python: ") + e.what());
    }
  });
  in.register_command("R", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, 2, "code ?expr?");
    ++ctx->stats_.r_evals;
    try {
      if (a.size() > 2) return ctx->rlang().eval(a[1], a[2]);
      return ctx->rlang().eval(a[1]);
    } catch (const r::RError& e) {
      throw tcl::TclError(std::string("R: ") + e.what());
    }
  });
  in.register_command("r", [ctx](tcl::Interp& in2, Args& a) {
    // Alias for R.
    a[0] = "R";
    return in2.invoke(a);
  });
  in.register_command("turbine::exec_app", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, -1, "command ?arg ...?");
    ++ctx->stats_.app_execs;
    std::vector<std::string> argv(a.begin() + 1, a.end());
    AppResult result = run_app(argv, ctx->cfg_.restricted_os);
    if (result.exit_code != 0) {
      throw tcl::TclError("app: command \"" + argv[0] + "\" exited with code " +
                          std::to_string(result.exit_code));
    }
    // Trim one trailing newline, like shell $(...).
    if (!result.output.empty() && result.output.back() == '\n') result.output.pop_back();
    return result.output;
  });

  // -- Swift built-ins implemented as thin Tcl (as the paper describes,
  //    these exist because exposing Tcl snippets to Swift is easy) --
  in.register_command("printf", [ctx](tcl::Interp&, Args& a) {
    tcl::check_arity(a, 1, -1, "format ?arg ...?");
    std::vector<std::string> rest(a.begin() + 2, a.end());
    ctx->emit(str::printf_format(a[1], rest) + "\n");
    return std::string();
  });
  in.register_command("trace", [ctx](tcl::Interp&, Args& a) {
    std::vector<std::string> parts(a.begin() + 1, a.end());
    ctx->emit("trace: " + str::join(parts, ",") + "\n");
    return std::string();
  });
}

// ---- serve helpers ----

Context::ReqScope::ReqScope(Context& ctx, int64_t req, int owner, int64_t prog)
    : ctx_(ctx),
      prev_(ctx.client_.serve_ctx()),
      prev_req_(ctx.cur_req_),
      prev_thread_req_(log::thread_request()) {
  ctx_.client_.set_serve_ctx({req, owner, prog});
  ctx_.cur_req_ = req;
  log::set_thread_request(req);
}

Context::ReqScope::~ReqScope() {
  ctx_.client_.set_serve_ctx(prev_);
  ctx_.cur_req_ = prev_req_;
  log::set_thread_request(prev_thread_req_);
}

void Context::load_program(int64_t prog) {
  if (prog == 0 || !loaded_progs_.insert(prog).second) return;
  // The program text is pure proc definitions (the entry proc is invoked
  // by the request's seed script), so evaluating it has no data effects.
  interp_.eval(client_.retrieve(prog));
}

void Context::send_serve_notice(int64_t req, int owner, std::string payload) {
  adlb::WorkUnit notice;
  notice.type = adlb::kTypeControl;
  notice.target = owner;
  notice.payload = std::move(payload);
  notice.req = req;
  notice.owner = owner;
  notice.flags = adlb::kUnitServeCtl | adlb::kUnitCounted;
  // put() flushes buffered puts first, so any units this task spawned
  // reach the home server — and thus the owner — before this notice.
  client_.put(notice);
}

void Context::handle_serve_notice(const adlb::WorkUnit& unit) {
  const std::string& p = unit.payload;
  if (p == "+") {
    engine_->on_spawned(unit.req);
    return;
  }
  if (p == "-") {
    engine_->unit_done(unit.req);
    return;
  }
  if (!p.empty() && p[0] == 'E') {
    // "E<kind>:<message>": a remote rank failed a unit of this request.
    // The notice doubles as the unit's done signal (-1).
    RequestErrorKind kind = RequestErrorKind::kGeneric;
    std::string message = p.substr(1);
    size_t colon = p.find(':');
    if (colon != std::string::npos && colon > 1) {
      int k = 0;
      if (auto parsed = str::parse_int(p.substr(1, colon - 1))) k = static_cast<int>(*parsed);
      if (k > 0 && k <= static_cast<int>(RequestErrorKind::kGeneric)) {
        kind = static_cast<RequestErrorKind>(k);
      }
      message = p.substr(colon + 1);
    }
    engine_->fail_request(unit.req, kind, std::move(message));
    engine_->unit_done(unit.req);
  }
}

void Context::eval_for_request(int64_t req, int owner, int64_t prog, const std::string& script) {
  ReqScope scope(*this, req, owner, prog);
  // A failure fails the request, not the resident runtime. Outstanding
  // units keep draining and completion fires once the counts reach zero.
  const auto fail = [&](const Error& e) {
    engine_->fail_request(req, classify_error(e), e.what());
  };
  try {
    exec_action(script);
  } catch (const Error& e) {
    fail(e);
  }
  // The unit is done only once its write-behind ops are acknowledged, even
  // when the action threw: their kAckBatch carries the unit's self-notify
  // credits, and a failed store fails this request, not a later one.
  try {
    client_.sync();
  } catch (const Error& e) {
    fail(e);
  }
}

void Context::sweep_completed() {
  if (!cfg_.serve_complete) return;
  for (int64_t req : engine_->take_completed()) {
    RequestOutcome out = engine_->finish_request(req);
    auto [leftover, stuck] = client_.free_namespace(req);
    out.leftover_data = leftover;
    out.stuck_datums = stuck;
    cfg_.serve_complete(std::move(out));
  }
}

// ---- rank loops ----

size_t Context::run_engine(const std::string& main_script) {
  if (engine_ == nullptr) throw Error("run_engine called without an Engine");
  if (!main_script.empty()) exec_action(main_script);

  // Live utilization: cumulative non-blocked seconds, published as a
  // gauge so the telemetry plane can report per-rank busy fractions while
  // the service runs (the trace-based table needs the run to end first).
  obs::Gauge* busy_gauge =
      obs::metrics_enabled()
          ? &obs::metrics().gauge("rank.busy_seconds.r" + std::to_string(client_.rank()))
          : nullptr;
  double busy_total = 0;

  auto drain_local = [this] {
    while (!engine_->local_ready().empty()) {
      LocalAction local = std::move(engine_->local_ready().front());
      engine_->local_ready().pop_front();
      if (local.req != 0) {
        eval_for_request(local.req, client_.rank(), engine_->request_prog(local.req),
                         local.action);
        engine_->local_done(local.req);
      } else {
        exec_action(local.action);
      }
    }
  };
  drain_local();
  sweep_completed();

  while (auto unit = client_.get(adlb::kTypeControl)) {
    const double started = busy_gauge != nullptr ? ilps::wtime() : 0;
    if ((unit->flags & adlb::kUnitServeCtl) != 0) {
      // Serve bookkeeping notice — C++ dispatch, never a task.
      handle_serve_notice(*unit);
    } else if (auto id = str::parse_int(unit->payload)) {
      // Notifications carry a bare datum id; rule actions are scripts.
      engine_->notify_closed(*id);
    } else if ((unit->flags & adlb::kUnitReqBegin) != 0) {
      // A request seed: this engine becomes the owner, loads the compiled
      // program, and runs its entry script as the request's first unit.
      // Like a batch run's swift:main, the entry is not counted as a task.
      engine_->begin_request(unit->req, unit->prog);
      {
        obs::RequestScope rscope(unit->req);
        obs::instant(obs::EventKind::kReqBegin, unit->req);
        load_program(unit->prog);
        eval_for_request(unit->req, client_.rank(), unit->prog, unit->payload);
      }
      end_task();
      engine_->unit_done(unit->req);
    } else if (unit->req != 0) {
      // A request-tagged control action (owner affinity: it is ours).
      ++stats_.tasks;
      {
        obs::RequestScope rscope(unit->req);
        obs::Span span(obs::EventKind::kTaskRun, unit->id);
        load_program(unit->prog);
        eval_for_request(unit->req, client_.rank(), unit->prog, unit->payload);
      }
      end_task();
      engine_->unit_done(unit->req);
    } else {
      ++stats_.tasks;
      {
        obs::Span span(obs::EventKind::kTaskRun, unit->id);
        exec_action(unit->payload);
      }
      end_task();
    }
    drain_local();
    sweep_completed();
    if (busy_gauge != nullptr) {
      busy_total += ilps::wtime() - started;
      busy_gauge->set(busy_total);
    }
  }
  return engine_->pending_rules();
}

void Context::run_worker() {
  // Resolved once; the registry lookup takes a lock, the record does not.
  // task.seconds keeps both views: the exact (reservoir-capped) histogram
  // and the rolling window the live telemetry plane reads.
  obs::Histogram* task_seconds =
      obs::metrics_enabled() ? &obs::metrics().histogram("task.seconds") : nullptr;
  obs::WindowHistogram* task_seconds_window =
      obs::metrics_enabled() ? &obs::metrics().window_histogram("task.seconds") : nullptr;
  obs::Gauge* busy_gauge =
      obs::metrics_enabled()
          ? &obs::metrics().gauge("rank.busy_seconds.r" + std::to_string(client_.rank()))
          : nullptr;
  double busy_total = 0;
  while (auto unit = client_.get(adlb::kTypeWork)) {
    ++stats_.tasks;
    const double started = ilps::wtime();
    const bool serve = unit->req != 0;
    const bool settles = serve || client_.config().ft;
    const auto account_busy = [&] {
      if (busy_gauge != nullptr) {
        busy_total += ilps::wtime() - started;
        busy_gauge->set(busy_total);
      }
    };
    try {
      {
        obs::RequestScope rscope(serve ? unit->req : 0);
        obs::Span span(obs::EventKind::kTaskRun, unit->id);
        std::optional<ReqScope> scope;
        if (serve) {
          load_program(unit->prog);
          scope.emplace(*this, unit->req, unit->owner, unit->prog);
        }
        exec_action(unit->payload);
        // A write-behind op that fails surfaces at the next sync point.
        // Under ft and serve, make that point inside this try, so the
        // failure is this task's: retried under ft, failing only its own
        // request under serve.
        if (settles) client_.sync();
      }
      const double took = ilps::wtime() - started;
      if (task_seconds != nullptr) task_seconds->record(took);
      if (task_seconds_window != nullptr) task_seconds_window->record(took);
    } catch (const Error& e) {
      // A leaf-task failure is typed and attributed (rank, task id), not
      // a raw string on stdout. Under fault tolerance it goes back to the
      // server for retry; under serve it fails only its own request;
      // otherwise it fails the run as before.
      end_task();
      // Ops the task buffered before it threw are part of this failure:
      // settle them here, or their error would surface in a later task.
      if (settles) {
        try {
          client_.sync();
        } catch (const DataError&) {
        }
      }
      if (client_.config().ft) {
        client_.task_failed(*unit, e.what());
        account_busy();
        continue;
      }
      std::string message = "task <" + std::to_string(unit->id) + "> failed on rank " +
                            std::to_string(client_.rank()) + ": " + e.what();
      if (serve) {
        // A failed store is a data error here as in an engine rule body;
        // anything else the leaf raised is a task failure.
        const RequestErrorKind kind = classify_error(e) == RequestErrorKind::kData
                                          ? RequestErrorKind::kData
                                          : RequestErrorKind::kTask;
        send_serve_notice(unit->req, unit->owner,
                          "E" + std::to_string(static_cast<int>(kind)) + ":" + message);
        account_busy();
        continue;
      }
      throw TaskError(message);
    }
    end_task();
    if (serve) send_serve_notice(unit->req, unit->owner, "-");
    account_busy();
  }
}

}  // namespace ilps::turbine
