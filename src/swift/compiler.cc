#include "swift/compiler.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "analysis/analysis.h"
#include "common/strings.h"
#include "tcl/value.h"

namespace ilps::swift {

const std::string& runtime_prelude() {
  static const std::string kPrelude = R"TCL(
# ---- Swift runtime support (emitted by STC into every program) ----
proc swift:store_typed {type id value} {
  if {$type eq "integer"} { turbine::store_integer $id $value } elseif {$type eq "float"} { turbine::store_float $id $value } elseif {$type eq "string"} { turbine::store_string $id $value } elseif {$type eq "blob"} { turbine::store_blob $id $value } elseif {$type eq "void"} { turbine::store_void $id } else { error "swift:store_typed: bad type $type" }
}
proc swift:value_datum {type value} {
  set id [turbine::allocate $type]
  swift:store_typed $type $id $value
  return $id
}
proc swift:python {out code expr} {
  turbine::store_string $out [python $code $expr]
}
proc swift:r {out code expr} {
  turbine::store_string $out [R $code $expr]
}
proc swift:app {out args} {
  turbine::store_string $out [turbine::exec_app {*}$args]
}
proc swift:array_store {arr key value} {
  turbine::rule [list $key $value] [list swift:array_store_body $arr $key $value] type LOCAL
}
proc swift:array_store_body {arr key value} {
  lassign [turbine::multi_retrieve [list $key $value]] vkey vvalue
  turbine::container_insert $arr $vkey $vvalue
  turbine::write_incr $arr -1
}
proc swift:array_get {out arr key type} {
  turbine::rule [list $arr $key] [list swift:array_get_body $out $arr $key $type] type LOCAL
}
proc swift:array_get_body {out arr key type} {
  swift:store_typed $type $out [turbine::container_lookup $arr [turbine::retrieve $key]]
}
proc swift:array_size {out arr} {
  turbine::rule [list $arr] [list swift:array_size_body $out $arr] type LOCAL
}
proc swift:array_size_body {out arr} {
  turbine::store_integer $out [turbine::container_size $arr]
}
proc swift:alloc {type name line} {
  set id [turbine::allocate $type]
  turbine::declare_name $id $name $line
  return $id
}
# ---- end Swift runtime support ----
)TCL";
  return kPrelude;
}

namespace {

struct BuiltinSig {
  // Output type of the builtin (kVoid for statements like printf).
  Type out;
  // Fixed leading parameter types; kVariadic args after them accept any.
  std::vector<Type> fixed;
  bool variadic = false;
};

const std::map<std::string, BuiltinSig>& builtins() {
  static const std::map<std::string, BuiltinSig> kBuiltins = {
      {"printf", {Type::kVoid, {Type::kString}, true}},
      {"trace", {Type::kVoid, {}, true}},
      {"strcat", {Type::kString, {}, true}},
      {"sprintf", {Type::kString, {Type::kString}, true}},
      {"toint", {Type::kInt, {Type::kString}, false}},
      {"tofloat", {Type::kFloat, {Type::kString}, false}},
      {"tostring", {Type::kString, {Type::kInt}, false}},  // accepts any scalar
      {"python", {Type::kString, {Type::kString, Type::kString}, false}},
      {"r", {Type::kString, {Type::kString, Type::kString}, false}},
      {"sh", {Type::kString, {Type::kString}, true}},
  };
  return kBuiltins;
}


// Builtins that are operator nodes of an expression tree: computed on the
// engine from their arguments' values, with no task of their own.
bool fusible_builtin(const std::string& name) {
  return name == "strcat" || name == "sprintf" || name == "toint" || name == "tofloat" ||
         name == "tostring";
}

std::string quote(const std::string& s) { return tcl::list_quote(s); }

// The Turbine store command for a Swift type.
std::string store_command(Type t) {
  if (t == Type::kVoid) return "turbine::store_void";
  return std::string("turbine::store_") + turbine_type(t);
}

class Compiler {
 public:
  Compiler(Program prog, std::set<const Stmt*> single_write, std::string proc_ns)
      : prog_(std::move(prog)), single_write_(std::move(single_write)), ns_(std::move(proc_ns)) {}

  std::string run() {
    for (const auto& fn : prog_.functions) {
      if (functions_.count(fn.name) > 0 || builtins().count(fn.name) > 0) {
        throw SwiftError("function \"" + fn.name + "\" redefined (line " +
                         std::to_string(fn.line) + ")");
      }
      functions_[fn.name] = &fn;
    }
    for (const auto& fn : prog_.functions) {
      if (fn.is_leaf) {
        emit_leaf(fn);
      } else {
        emit_composite(fn);
      }
    }
    // Top-level statements become swift:main.
    Body main_body;
    scopes_.push_back({});
    for (const auto& stmt : prog_.main_statements) compile_stmt(*stmt, main_body);
    emit_scope_releases(main_body);
    scopes_.pop_back();
    std::ostringstream out;
    out << runtime_prelude() << "\n" << procs_.str() << "\nproc " << nsp("swift:main")
        << " {} {\n" << main_body.code.str() << "}\n";
    return out.str();
  }

 private:
  struct VarInfo {
    Type type;                   // for arrays: the element type
    Type key_type = Type::kInt;  // for arrays: the index type
    bool is_array = false;
    // Scalars: the Tcl variable of the same name holds the value itself
    // (is_value) or the id of the datum that `uid` identifies.
    bool is_value = false;
    int uid = -1;
  };
  struct Scope {
    std::map<std::string, VarInfo> vars;
    std::vector<std::string> arrays;  // arrays declared here (released at scope end)
  };

  // A compiled expression. A value is a Tcl word the engine already
  // holds: a compile-time literal, or the Tcl variable `var`. A future is
  // the Tcl variable `var` holding a datum id; `uid` names the datum for
  // closedness reasoning (aliases share it).
  struct Operand {
    bool is_value = false;
    std::string var;
    std::string literal;
    int uid = -1;
    Type type = Type::kVoid;
    std::string word() const { return var.empty() ? literal : "$" + var; }
  };

  // One emission context (a proc body): generated code, a temp counter,
  // and the scope-boundary bookkeeping for capture analysis.
  struct Body {
    std::ostringstream code;
    int temps = 0;
    size_t boundary = 0;               // scopes_ index where this body starts
    std::set<std::string>* captures = nullptr;
    // Arrays written by code in this body whose declaration is outside it:
    // the enclosing construct must hold a write reference across the
    // deferral (the STC write-refcount transfer rule).
    std::set<std::string>* array_writes = nullptr;
    // Futures known to be closed whenever this code runs, and the locals
    // that already hold some of their values.
    std::set<int> closed;
    std::map<int, std::string> fetched;
  };

  // Builtin-operator expression trees prepared for fusion: every leaf
  // that is not an operator compiled to an operand, and the futures
  // among them.
  struct Fused {
    std::vector<const Expr*> trees;
    std::vector<Type> natural;  // each tree's own type
    std::vector<Type> want;     // the type each result is delivered as
    std::map<const Expr*, Operand> leaves;
    std::map<const Expr*, std::string> ops;  // binary nodes: the Tcl operator
    std::vector<std::string> vars;           // Tcl variables the trees read
    std::vector<Operand> futures;            // distinct future leaves
  };
  // Consumes the words of a fused computation, emitting into a body.
  using Sink = std::function<void(Body&, const std::vector<std::string>&)>;

  [[noreturn]] void fail(int line, const std::string& why) {
    throw SwiftError(why + " (line " + std::to_string(line) + ")");
  }

  // ---- scope handling ----

  VarInfo& declare(int line, const std::string& name, Type type, bool is_array = false,
                   Type key_type = Type::kInt) {
    Scope& top = scopes_.back();
    if (top.vars.count(name) > 0) fail(line, "variable \"" + name + "\" already declared");
    top.vars[name] = VarInfo{type, key_type, is_array};
    if (is_array) top.arrays.push_back(name);
    return top.vars[name];
  }

  // Declares a scalar future whose datum is new.
  VarInfo& declare_future(int line, const std::string& name, Type type) {
    VarInfo& info = declare(line, name, type);
    info.uid = next_uid_++;
    return info;
  }

  VarInfo resolve(int line, const std::string& name, const Body& body) {
    for (size_t s = scopes_.size(); s-- > 0;) {
      auto it = scopes_[s].vars.find(name);
      if (it != scopes_[s].vars.end()) {
        if (s < body.boundary && body.captures != nullptr) body.captures->insert(name);
        return it->second;
      }
    }
    fail(line, "undefined variable \"" + name + "\"");
  }

  // Records that code in `body` defers a write to array `name`; the
  // information propagates to the construct that owns the declaration.
  void note_array_write(int line, const std::string& name, const Body& body) {
    for (size_t s = scopes_.size(); s-- > 0;) {
      if (scopes_[s].vars.count(name) > 0) {
        if (s < body.boundary && body.array_writes != nullptr) body.array_writes->insert(name);
        return;
      }
    }
    fail(line, "undefined array \"" + name + "\"");
  }

  // Releases the declaring scope's write hold on arrays declared in the
  // current (top) scope. Call just before popping a scope.
  void emit_scope_releases(Body& body) {
    for (const auto& name : scopes_.back().arrays) {
      body.code << "  turbine::write_incr $" << name << " -1\n";
    }
  }

  // A new anonymous future.
  Operand temp(Body& body, Type type) {
    Operand op;
    op.var = "_t" + std::to_string(body.temps++);
    op.uid = next_uid_++;
    op.type = type;
    body.code << "  set " << op.var << " [turbine::allocate " << turbine_type(type) << "]\n";
    return op;
  }

  // Evaluates `command` into a new Tcl local; returns the local's word.
  std::string emit_local(Body& body, const std::string& command) {
    return as_var(body, "[" + command + "]");
  }

  // `word` as a Tcl variable reference, setting a new local if needed.
  std::string as_var(Body& body, const std::string& word) {
    if (word[0] == '$') return word;
    std::string name = "_v" + std::to_string(body.temps++);
    body.code << "  set " << name << " " << word << "\n";
    return "$" + name;
  }

  // ---- closedness ----

  // Every future known closed once all of `uids` are: a datum written by
  // one rule closes only after the rule's inputs did.
  std::set<int> closure(std::set<int> uids) const {
    std::vector<int> work(uids.begin(), uids.end());
    while (!work.empty()) {
      int uid = work.back();
      work.pop_back();
      auto it = implies_.find(uid);
      if (it == implies_.end()) continue;
      for (int dep : it->second) {
        if (uids.insert(dep).second) work.push_back(dep);
      }
    }
    return uids;
  }

  // Records that future `uid` has a single writer that fires once every
  // future in `waited` is closed.
  void note_writer(int uid, const std::set<int>& waited) {
    if (uid >= 0 && !waited.empty()) implies_[uid] = closure(waited);
  }

  // What code that runs once `f`'s inputs are ready may assume closed.
  std::set<int> closed_when_ready(const Fused& f, const Body& body) const {
    std::set<int> uids;
    for (const auto& op : f.futures) uids.insert(op.uid);
    std::set<int> closed = closure(std::move(uids));
    closed.insert(body.closed.begin(), body.closed.end());
    return closed;
  }

  // ---- expression typing ----

  Type type_of(const Expr& e, const Body& body) {
    switch (e.kind) {
      case Expr::Kind::kIntLit: return Type::kInt;
      case Expr::Kind::kFloatLit: return Type::kFloat;
      case Expr::Kind::kStringLit: return Type::kString;
      case Expr::Kind::kBoolLit: return Type::kBoolean;
      case Expr::Kind::kVar: {
        // Resolving may add to the capture set; that is idempotent, so
        // repeated type queries are harmless.
        VarInfo info = resolve(e.line, e.name, body);
        if (info.is_array) fail(e.line, "array \"" + e.name + "\" used as a scalar value");
        return info.type;
      }
      case Expr::Kind::kIndex: {
        VarInfo info = resolve(e.line, e.name, body);
        if (!info.is_array) fail(e.line, "\"" + e.name + "\" is not an array");
        return info.type;
      }
      case Expr::Kind::kUnary:
        return e.op == "!" ? Type::kBoolean : type_of(*e.a, body);
      case Expr::Kind::kBinary: {
        Type a = type_of(*e.a, body);
        Type b = type_of(*e.b, body);
        if (e.op == "==" || e.op == "!=" || e.op == "<" || e.op == "<=" || e.op == ">" ||
            e.op == ">=" || e.op == "&&" || e.op == "||") {
          return Type::kBoolean;
        }
        if (a == Type::kString || b == Type::kString) return Type::kString;
        if (a == Type::kFloat || b == Type::kFloat) return Type::kFloat;
        return a;
      }
      case Expr::Kind::kCall: {
        if (e.name == "size") return Type::kInt;
        if (auto it = builtins().find(e.name); it != builtins().end()) return it->second.out;
        auto fit = functions_.find(e.name);
        if (fit == functions_.end()) fail(e.line, "call to undefined function \"" + e.name + "\"");
        if (fit->second->outputs.size() != 1) {
          fail(e.line, "function \"" + e.name + "\" does not return exactly one value");
        }
        return fit->second->outputs[0].type;
      }
    }
    fail(e.line, "internal: unknown expression kind");
  }

  static bool numeric(Type t) { return t == Type::kInt || t == Type::kFloat || t == Type::kBoolean; }

  static bool assignable(Type target, Type source) {
    if (target == source) return true;
    if (target == Type::kFloat && source == Type::kInt) return true;
    if (target == Type::kBoolean && source == Type::kInt) return true;
    if (target == Type::kInt && source == Type::kBoolean) return true;
    return false;
  }

  void check_assignable(int line, Type target, Type source) {
    if (!assignable(target, source)) {
      fail(line, std::string("cannot assign ") + type_name(source) + " to " + type_name(target));
    }
  }

  // Checks a binary operator's operand types; returns its Tcl operator
  // (string operators map to cat/streq/strne).
  std::string binary_op(const Expr& e, const Body& body) {
    Type at = type_of(*e.a, body);
    Type bt = type_of(*e.b, body);
    if (at == Type::kString || bt == Type::kString) {
      if (at != bt) fail(e.line, "string operator requires two strings");
      if (e.op == "+") return "cat";
      if (e.op == "==") return "streq";
      if (e.op == "!=") return "strne";
      fail(e.line, "operator " + e.op + " is not defined on strings");
    }
    if (!numeric(at) || !numeric(bt)) {
      fail(e.line, "operator " + e.op + " requires numeric operands");
    }
    if (e.op == "%" && (at == Type::kFloat || bt == Type::kFloat)) {
      fail(e.line, "%% requires integer operands");
    }
    return e.op;
  }

  void check_builtin_args(const Expr& e, const Body& body) {
    const BuiltinSig& sig = builtins().at(e.name);
    if (e.args.size() < sig.fixed.size() || (!sig.variadic && e.args.size() != sig.fixed.size())) {
      fail(e.line, "wrong number of arguments to " + e.name);
    }
    for (size_t i = 0; i < sig.fixed.size(); ++i) {
      Type at = type_of(*e.args[i], body);
      if (!assignable(sig.fixed[i], at) && !(sig.fixed[i] == Type::kInt)) {
        fail(e.args[i]->line, "argument " + std::to_string(i + 1) + " of " + e.name +
                                  " must be " + type_name(sig.fixed[i]));
      }
    }
  }

  // ---- expression compilation ----

  bool is_operator(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kIndex: return false;
      case Expr::Kind::kCall: return fusible_builtin(e.name);
      default: return true;
    }
  }

  Operand var_operand(const Expr& e, const Body& body) {
    VarInfo info = resolve(e.line, e.name, body);
    if (info.is_array) fail(e.line, "array \"" + e.name + "\" used as a scalar value");
    Operand op;
    op.is_value = info.is_value;
    op.var = e.name;
    op.uid = info.uid;
    op.type = info.type;
    return op;
  }

  // Compiles `e` to an operand: a value when every leaf is available on
  // the engine here, otherwise a future.
  Operand compile_operand(const Expr& e, Body& body) {
    Type t = type_of(e, body);
    if (t == Type::kVoid) fail(e.line, "void expression used as a value");
    if (e.kind == Expr::Kind::kVar) return var_operand(e, body);
    if (is_operator(e)) {
      Fused f = prepare({&e}, body);
      if (ready(f, body)) {
        std::string word = compute(f, body)[0];
        Operand op;
        op.is_value = true;
        if (word[0] == '$') {
          op.var = word.substr(1);
        } else {
          op.literal = word;
        }
        op.type = t;
        return op;
      }
      Operand out = temp(body, t);
      note_writer(out.uid, finish(f, body, "LOCAL", {out.var}, store_sink(out.var, t)));
      return out;
    }
    Operand out = temp(body, t);
    compile_into(out, t, e, body);
    return out;
  }

  // A datum id for `op`: futures as they are, values stored into a new
  // closed datum.
  std::string materialize(const Operand& op, Body& body) {
    if (!op.is_value) return op.var;
    std::string name = "_t" + std::to_string(body.temps++);
    body.code << "  set " << name << " [swift:value_datum " << turbine_type(op.type) << " "
              << op.word() << "]\n";
    return name;
  }

  // Compiles `e` storing its result into future `target` of type
  // `target_type`. Records the writer when the target has no other.
  void compile_into(const Operand& target, Type target_type, const Expr& e, Body& body) {
    Type et = type_of(e, body);
    check_assignable(e.line, target_type, et);
    if (e.kind == Expr::Kind::kCall && !fusible_builtin(e.name)) {
      note_writer(target.uid, compile_call(e, {target.var}, body));
      return;
    }
    if (e.kind == Expr::Kind::kIndex) {
      VarInfo ainfo = resolve(e.line, e.name, body);
      Type kt = type_of(*e.a, body);
      if (kt != ainfo.key_type) {
        fail(e.a->line, std::string("array index must be ") + type_name(ainfo.key_type));
      }
      std::string key = materialize(compile_operand(*e.a, body), body);
      body.code << "  swift:array_get $" << target.var << " $" << e.name << " $" << key << " "
                << turbine_type(target_type) << "\n";
      return;
    }
    Fused f = prepare({&e}, body);
    f.want[0] = target_type;
    note_writer(target.uid,
                finish(f, body, "LOCAL", {target.var}, store_sink(target.var, target_type)));
  }

  Sink store_sink(const std::string& target, Type type) {
    return [target, type](Body& t, const std::vector<std::string>& words) {
      t.code << "  " << store_command(type) << " $" << target;
      if (type != Type::kVoid) t.code << " " << words[0];
      t.code << "\n";
    };
  }

  // ---- fusion ----

  Fused prepare(const std::vector<const Expr*>& trees, Body& body) {
    Fused f;
    f.trees = trees;
    for (const Expr* e : trees) {
      f.natural.push_back(type_of(*e, body));
      gather(*e, body, f);
    }
    f.want = f.natural;
    return f;
  }

  // Type-checks the operator nodes of a tree and compiles its other
  // leaves, which emits their code (calls, array reads) into `body`.
  void gather(const Expr& e, Body& body, Fused& f) {
    switch (e.kind) {
      case Expr::Kind::kIntLit:
      case Expr::Kind::kFloatLit:
      case Expr::Kind::kStringLit:
      case Expr::Kind::kBoolLit:
        return;
      case Expr::Kind::kVar:
        add_leaf(e, var_operand(e, body), f);
        return;
      case Expr::Kind::kUnary:
        if (!numeric(type_of(*e.a, body))) {
          fail(e.line, "unary " + e.op + " requires a numeric operand");
        }
        gather(*e.a, body, f);
        return;
      case Expr::Kind::kBinary:
        f.ops[&e] = binary_op(e, body);
        gather(*e.a, body, f);
        gather(*e.b, body, f);
        return;
      case Expr::Kind::kCall:
        if (fusible_builtin(e.name)) {
          check_builtin_args(e, body);
          for (const auto& arg : e.args) gather(*arg, body, f);
          return;
        }
        break;
      case Expr::Kind::kIndex:
        break;
    }
    add_leaf(e, compile_operand(e, body), f);
  }

  static void add_leaf(const Expr& e, Operand op, Fused& f) {
    if (!op.var.empty() && std::find(f.vars.begin(), f.vars.end(), op.var) == f.vars.end()) {
      f.vars.push_back(op.var);
    }
    if (!op.is_value) {
      bool seen = false;
      for (const auto& fut : f.futures) seen = seen || fut.uid == op.uid;
      if (!seen) f.futures.push_back(op);
    }
    f.leaves[&e] = std::move(op);
  }

  // True when every future leaf of `f` is already closed in `body`.
  static bool ready(const Fused& f, const Body& body) {
    for (const auto& op : f.futures) {
      if (body.closed.count(op.uid) == 0) return false;
    }
    return true;
  }

  // Computes the trees of `f` and hands their words to `sink`: inline in
  // `body` when every future leaf is already closed there, otherwise in
  // ONE rule of `rule_type` waiting on the rest. `sink_vars` are the Tcl
  // variables the sink reads. Returns the futures the rule waits on.
  std::set<int> finish(const Fused& f, Body& body, const char* rule_type,
                       const std::vector<std::string>& sink_vars, const Sink& sink) {
    if (ready(f, body)) {
      sink(body, compute(f, body));
      return {};
    }
    std::set<int> waited;
    std::string inputs;
    for (const auto& op : f.futures) {
      if (body.closed.count(op.uid) > 0) continue;
      waited.insert(op.uid);
      inputs += " $" + op.var;
    }
    Body rule;
    rule.closed = closed_when_ready(f, body);
    sink(rule, compute(f, rule));
    std::vector<std::string> params = f.vars;
    for (const auto& v : sink_vars) {
      if (std::find(params.begin(), params.end(), v) == params.end()) params.push_back(v);
    }
    std::string proc = nsp("swift:rule_" + std::to_string(helper_counter_++));
    procs_ << "proc " << proc << " {" << str::join(params, " ") << "} {\n"
           << rule.code.str() << "}\n";
    body.code << "  turbine::rule [list" << inputs << "] [list " << proc;
    for (const auto& p : params) body.code << " $" << p;
    body.code << "] type " << rule_type << "\n";
    return waited;
  }

  // Emits the computation of `f`'s trees into `t`, whose futures are all
  // closed; returns one word per tree.
  std::vector<std::string> compute(const Fused& f, Body& t) {
    fetch(f.futures, t);
    std::vector<std::string> words;
    for (size_t i = 0; i < f.trees.size(); ++i) {
      std::string word = emit_tree(*f.trees[i], f, t);
      if (f.want[i] == Type::kFloat && f.natural[i] != Type::kFloat) {
        // int -> float promotion, as turbine::store_float would do.
        const Expr& e = *f.trees[i];
        word = e.kind == Expr::Kind::kIntLit
                   ? str::format_double(static_cast<double>(e.ival))
                   : emit_local(t, "expr {double(" + word + ")}");
      }
      words.push_back(std::move(word));
    }
    return words;
  }

  // Retrieves the closed futures among `futures` not yet held in `t`, in
  // one multi_retrieve for the non-blob ones.
  void fetch(const std::vector<Operand>& futures, Body& t) {
    std::vector<const Operand*> plain;
    for (const auto& op : futures) {
      if (t.fetched.count(op.uid) > 0) continue;
      if (op.type == Type::kBlob) {
        t.fetched[op.uid] = emit_local(t, "turbine::retrieve_blob $" + op.var);
      } else {
        plain.push_back(&op);
      }
    }
    if (plain.size() == 1) {
      t.fetched[plain[0]->uid] = emit_local(t, "turbine::retrieve $" + plain[0]->var);
    } else if (plain.size() > 1) {
      t.code << "  lassign [turbine::multi_retrieve [list";
      for (const Operand* op : plain) t.code << " $" << op->var;
      t.code << "]]";
      for (const Operand* op : plain) {
        std::string name = "_v" + std::to_string(t.temps++);
        t.code << " " << name;
        t.fetched[op->uid] = "$" + name;
      }
      t.code << "\n";
    }
  }

  // Emits the evaluation of tree `e` into `t`, intermediates as Tcl
  // locals, one command per operator so every operand is evaluated (and
  // may fail) exactly as a rule per operator would.
  std::string emit_tree(const Expr& e, const Fused& f, Body& t) {
    if (auto it = f.leaves.find(&e); it != f.leaves.end()) {
      const Operand& op = it->second;
      return op.is_value ? op.word() : t.fetched.at(op.uid);
    }
    switch (e.kind) {
      case Expr::Kind::kIntLit:
      case Expr::Kind::kBoolLit:
        return std::to_string(e.ival);
      case Expr::Kind::kFloatLit:
        return str::format_double(e.fval);
      case Expr::Kind::kStringLit:
        return quote(e.sval);
      case Expr::Kind::kUnary:
        return emit_local(t, "expr {" + e.op + emit_tree(*e.a, f, t) + "}");
      case Expr::Kind::kBinary: {
        std::string a = emit_tree(*e.a, f, t);
        std::string b = emit_tree(*e.b, f, t);
        const std::string& op = f.ops.at(&e);
        if (op == "cat") return emit_local(t, "string cat " + a + " " + b);
        if (op == "streq") return emit_local(t, "string equal " + a + " " + b);
        if (op == "strne") return emit_local(t, "expr {![string equal " + a + " " + b + "]}");
        return emit_local(t, "expr {" + a + " " + op + " " + b + "}");
      }
      case Expr::Kind::kCall: {
        std::vector<std::string> args;
        for (const auto& arg : e.args) args.push_back(emit_tree(*arg, f, t));
        if (e.name == "tostring") return args[0];
        if (e.name == "toint" || e.name == "tofloat") {
          // Unbraced, so the value is substituted as text: int( 42) works.
          return emit_local(t, std::string("expr ") + (e.name == "toint" ? "int(" : "double(") +
                                   as_var(t, args[0]) + ")");
        }
        if (e.name == "sprintf") return emit_local(t, "format " + str::join(args, " "));
        return args.empty() ? "{}" : emit_local(t, "string cat " + str::join(args, " "));
      }
      case Expr::Kind::kVar:
      case Expr::Kind::kIndex:
        break;
    }
    fail(e.line, "internal: unfused leaf");
  }

  // ---- calls ----

  // Compiles a call whose outputs go to the given target Tcl vars (ids).
  // Returns the futures the call's task waits on before it writes the
  // targets (empty when it may write them at any time).
  std::set<int> compile_call(const Expr& e, const std::vector<std::string>& targets, Body& body) {
    // -- size(A): array length once A is closed --
    if (e.name == "size") {
      if (e.args.size() != 1 || e.args[0]->kind != Expr::Kind::kVar) {
        fail(e.line, "size() takes one array variable");
      }
      VarInfo info = resolve(e.args[0]->line, e.args[0]->name, body);
      if (!info.is_array) fail(e.args[0]->line, "size() argument is not an array");
      body.code << "  swift:array_size $" << targets.at(0) << " $" << e.args[0]->name << "\n";
      return {};
    }
    // -- builtins --
    if (builtins().count(e.name) > 0) {
      check_builtin_args(e, body);
      if (e.name == "printf" || e.name == "trace") {
        std::vector<const Expr*> args;
        for (const auto& arg : e.args) args.push_back(arg.get());
        Fused f = prepare(args, body);
        std::string cmd = e.name;
        finish(f, body, "LOCAL", {}, [cmd](Body& t, const std::vector<std::string>& words) {
          t.code << "  " << cmd;
          for (const auto& w : words) t.code << " " << w;
          t.code << "\n";
        });
        return {};
      }
      if (fusible_builtin(e.name)) {
        // A discarded operator result: computed for its errors only.
        Fused f = prepare({&e}, body);
        finish(f, body, "LOCAL", {}, [](Body&, const std::vector<std::string>&) {});
        return {};
      }
      std::vector<std::pair<Operand, Type>> args;
      for (const auto& arg : e.args) args.emplace_back(compile_operand(*arg, body), Type::kString);
      const char* proc = e.name == "python" ? "swift:python"
                         : e.name == "r"    ? "swift:r"
                                            : "swift:app";
      return emit_work(proc, targets, args, body);
    }

    // -- user functions --
    auto fit = functions_.find(e.name);
    if (fit == functions_.end()) fail(e.line, "call to undefined function \"" + e.name + "\"");
    const FunctionDef& fn = *fit->second;
    if (e.args.size() != fn.inputs.size()) {
      fail(e.line, "function \"" + e.name + "\" expects " + std::to_string(fn.inputs.size()) +
                       " arguments, got " + std::to_string(e.args.size()));
    }
    if (targets.size() != fn.outputs.size()) {
      fail(e.line, "function \"" + e.name + "\" produces " + std::to_string(fn.outputs.size()) +
                       " values, " + std::to_string(targets.size()) + " expected");
    }
    std::vector<std::pair<Operand, Type>> args;
    for (size_t i = 0; i < e.args.size(); ++i) {
      Type at = type_of(*e.args[i], body);
      if (!assignable(fn.inputs[i].type, at)) {
        fail(e.args[i]->line, "argument \"" + fn.inputs[i].name + "\" of " + e.name +
                                  " must be " + type_name(fn.inputs[i].type) + ", got " +
                                  type_name(at));
      }
      args.emplace_back(compile_operand(*e.args[i], body), fn.inputs[i].type);
    }
    if (fn.is_leaf) return emit_work(nsp("u:" + fn.name), targets, args, body);
    // Composite: invoked directly; it only builds more dataflow, and takes
    // every argument as a future.
    std::string call = "  " + nsp("u:" + fn.name);
    for (const auto& t : targets) call += " $" + t;
    for (const auto& [op, type] : args) call += " $" + materialize(op, body);
    body.code << call << "\n";
    return {};
  }

  // A WORK rule running `proc` with the targets' ids and the arguments:
  // values spliced in as words, futures retrieved by the worker. Returns
  // the futures the rule waits on.
  std::set<int> emit_work(const std::string& proc, const std::vector<std::string>& targets,
                          const std::vector<std::pair<Operand, Type>>& args, Body& body) {
    // The action is built on the engine by `string cat` over pieces:
    // list-quoted words, and braced retrieve commands the worker runs.
    std::vector<std::string> pieces;
    std::string words = "[list " + proc;
    for (const auto& t : targets) words += " $" + t;
    std::set<int> waited;
    std::string inputs;
    for (const auto& [op, type] : args) {
      if (op.is_value) {
        words += " " + op.word();
        continue;
      }
      if (waited.insert(op.uid).second) inputs += " $" + op.var;
      pieces.push_back(words + "]");
      words = "[list";
      pieces.push_back(std::string(type == Type::kBlob ? "{ [turbine::retrieve_blob }"
                                                        : "{ [turbine::retrieve }") +
                       " $" + op.var + " {] }");
    }
    if (words != "[list") pieces.push_back(words + "]");
    std::string action =
        pieces.size() == 1 ? pieces[0] : "[string cat " + str::join(pieces, " ") + "]";
    body.code << "  turbine::rule [list" << inputs << "] " << action << " type WORK\n";
    return waited;
  }

  // ---- statements ----

  bool single_write(const Stmt& s) const { return single_write_.count(&s) > 0; }

  void compile_decl(const Stmt& s, Body& body) {
    if (s.is_array) {
      declare(s.line, s.name, s.type, /*is_array=*/true, s.key_type);
      // The container starts with one write reference — the declaring
      // scope's hold, released when the scope's emission ends.
      // swift:alloc registers the datum in the engine's symbol map so
      // stuck-future reports can name it.
      body.code << "  set " << s.name << " [swift:alloc container " << s.name << " " << s.line
                << "]\n";
      return;
    }
    if (s.value && single_write(s) && is_operator(*s.value)) {
      // The initializer is the only write: when the engine holds every
      // leaf, the variable is a Tcl local holding the value; a plain
      // future of the same Turbine type is aliased.
      Type et = type_of(*s.value, body);
      check_assignable(s.line, s.type, et);
      Fused f = prepare({s.value.get()}, body);
      f.want[0] = s.type;
      if (ready(f, body)) {
        std::string word = compute(f, body)[0];
        body.code << "  set " << s.name << " " << word << "\n";
        declare(s.line, s.name, s.type).is_value = true;
        return;
      }
      if (s.value->kind == Expr::Kind::kVar &&
          std::string(turbine_type(s.type)) == turbine_type(et)) {
        Operand src = f.leaves.at(s.value.get());
        body.code << "  set " << s.name << " $" << src.var << "\n";
        declare(s.line, s.name, s.type).uid = src.uid;
        return;
      }
      emit_alloc(s, body);
      Operand target = future_of(declare_future(s.line, s.name, s.type), s.name);
      note_writer(target.uid, finish(f, body, "LOCAL", {s.name}, store_sink(s.name, s.type)));
      return;
    }
    emit_alloc(s, body);
    Operand target = future_of(declare_future(s.line, s.name, s.type), s.name);
    if (!s.value) return;
    // With several writers, which one closes the datum is unknown, so no
    // closedness follows from this one.
    if (!single_write(s)) target.uid = -1;
    compile_into(target, s.type, *s.value, body);
  }

  void emit_alloc(const Stmt& s, Body& body) {
    body.code << "  set " << s.name << " [swift:alloc " << turbine_type(s.type) << " " << s.name
              << " " << s.line << "]\n";
  }

  static Operand future_of(const VarInfo& info, const std::string& name) {
    Operand op;
    op.var = name;
    op.uid = info.uid;
    op.type = info.type;
    return op;
  }

  // The future a statement assigns; single-write variables never are.
  Operand assign_target(int line, const std::string& name, const VarInfo& info) {
    if (info.is_array) fail(line, "cannot assign to array \"" + name + "\" as a whole");
    if (info.is_value) fail(line, "internal: assignment to single-write variable \"" + name + "\"");
    Operand op = future_of(info, name);
    op.uid = -1;  // possibly one of several writers
    return op;
  }

  void compile_stmt(const Stmt& s, Body& body) {
    switch (s.kind) {
      case Stmt::Kind::kDecl:
        compile_decl(s, body);
        return;
      case Stmt::Kind::kAssign: {
        VarInfo info = resolve(s.line, s.name, body);
        compile_into(assign_target(s.line, s.name, info), info.type, *s.value, body);
        return;
      }
      case Stmt::Kind::kMultiAssign: {
        const Expr& call = *s.value;
        auto fit = functions_.find(call.name);
        if (fit == functions_.end()) {
          fail(s.line, "multiple assignment requires a user function, \"" + call.name +
                           "\" is not one");
        }
        const FunctionDef& fn = *fit->second;
        if (fn.outputs.size() != s.names.size()) {
          fail(s.line, "function \"" + call.name + "\" produces " +
                           std::to_string(fn.outputs.size()) + " values, " +
                           std::to_string(s.names.size()) + " targets given");
        }
        std::vector<std::string> targets;
        for (size_t i = 0; i < s.names.size(); ++i) {
          VarInfo info = resolve(s.line, s.names[i], body);
          if (info.is_array) fail(s.line, "cannot multi-assign into an array");
          if (!assignable(info.type, fn.outputs[i].type)) {
            fail(s.line, "target \"" + s.names[i] + "\" has type " + type_name(info.type) +
                             " but output " + std::to_string(i + 1) + " of " + call.name +
                             " is " + type_name(fn.outputs[i].type));
          }
          targets.push_back(assign_target(s.line, s.names[i], info).var);
        }
        compile_call(call, targets, body);
        return;
      }
      case Stmt::Kind::kArrayAssign: {
        VarInfo info = resolve(s.line, s.name, body);
        if (!info.is_array) fail(s.line, "\"" + s.name + "\" is not an array");
        if (type_of(*s.index, body) != info.key_type) {
          fail(s.line, std::string("array index must be ") + type_name(info.key_type));
        }
        Type vt = type_of(*s.value, body);
        if (!assignable(info.type, vt)) {
          fail(s.line, std::string("cannot store ") + type_name(vt) + " into array of " +
                           type_name(info.type));
        }
        std::string key = materialize(compile_operand(*s.index, body), body);
        std::string value = materialize(compile_operand(*s.value, body), body);
        // Take a write hold now; swift:array_store releases it after the
        // deferred insert completes.
        body.code << "  turbine::write_incr $" << s.name << " 1\n";
        body.code << "  swift:array_store $" << s.name << " $" << key << " $" << value << "\n";
        note_array_write(s.line, s.name, body);
        return;
      }
      case Stmt::Kind::kExprStmt: {
        if (s.value->kind != Expr::Kind::kCall) {
          fail(s.line, "expression statement must be a function call");
        }
        const Expr& call = *s.value;
        // Void builtins need no targets; value-returning calls as
        // statements get discarded temporaries.
        std::vector<std::string> targets;
        if (auto fit = functions_.find(call.name); fit != functions_.end()) {
          for (const auto& p : fit->second->outputs) targets.push_back(temp(body, p.type).var);
        } else if (!fusible_builtin(call.name)) {
          Type out = type_of(call, body);
          if (out != Type::kVoid) targets.push_back(temp(body, out).var);
        }
        compile_call(call, targets, body);
        return;
      }
      case Stmt::Kind::kForeach:
        compile_foreach(s, body);
        return;
      case Stmt::Kind::kForeachArray:
        compile_foreach_array(s, body);
        return;
      case Stmt::Kind::kIf:
        compile_if(s, body);
        return;
    }
  }

  // A nested proc body whose code runs once `closed` futures are.
  static void open_body(Body& inner, size_t boundary, std::set<std::string>* captures,
                        std::set<std::string>* writes, std::set<int> closed) {
    inner.boundary = boundary;
    inner.captures = captures;
    inner.array_writes = writes;
    inner.closed = std::move(closed);
  }

  // Re-resolves captures against the enclosing body so they propagate
  // through nested constructs (outer procs must receive them too).
  std::vector<std::string> capture_list(int line, const std::set<std::string>& captures,
                                        const Body& body) {
    std::vector<std::string> out;
    for (const auto& c : captures) {
      resolve(line, c, body);
      out.push_back(c);
    }
    return out;
  }

  static std::string join_words(const std::vector<std::string>& vars, const char* prefix) {
    std::string out;
    for (const auto& v : vars) out += std::string(" ") + prefix + v;
    return out;
  }

  void compile_foreach(const Stmt& s, Body& body) {
    int n = helper_counter_++;
    std::string body_proc = nsp("swift:loop_body_" + std::to_string(n));
    std::string split_proc = nsp("swift:loop_split_" + std::to_string(n));

    // Range bounds: one fused computation, evaluated in the enclosing
    // context. Missing bounds default to literals.
    Expr zero;
    zero.kind = Expr::Kind::kIntLit;
    zero.line = s.line;
    Expr one = zero;
    one.ival = 1;
    std::vector<const Expr*> bounds = {s.from ? s.from.get() : &zero, s.to ? s.to.get() : &zero,
                                       s.step ? s.step.get() : &one};
    for (const Expr* e : bounds) {
      if (type_of(*e, body) != Type::kInt) fail(e->line, "foreach range bounds must be int");
    }
    Fused range = prepare(bounds, body);

    // Compile the loop body into its own proc, collecting captures and
    // deferred array writes. The loop variable arrives as a value.
    std::set<std::string> captures;
    std::set<std::string> writes;
    Body inner;
    open_body(inner, scopes_.size(), &captures, &writes, closed_when_ready(range, body));
    scopes_.push_back({});
    declare(s.line, s.name, Type::kInt).is_value = true;
    for (const auto& stmt : s.body) compile_stmt(*stmt, inner);
    emit_scope_releases(inner);
    scopes_.pop_back();

    std::vector<std::string> caps = capture_list(s.line, captures, body);
    std::string cap_params = join_words(caps, "");
    std::string cap_args = join_words(caps, "$");
    // Write-reference transfer: each loop-body instance holds one write
    // reference per written array, taken by the splitter before the body
    // is shipped; the splitter and the site each hold one across their
    // own deferral windows.
    std::string iter_holds;
    std::string iter_releases;
    for (const auto& w : writes) {
      iter_holds += "    turbine::write_incr $" + w + " 1\n";
      iter_releases += "  turbine::write_incr $" + w + " -1\n";
    }

    procs_ << "proc " << body_proc << " {" << s.name << cap_params << "} {\n"
           << inner.code.str() << iter_releases << "}\n";
    // The splitter's own locals start with ':', which no Swift identifier
    // can, so they never shadow a captured variable in the same frame.
    procs_ << "proc " << split_proc << " {:lo :hi :step" << cap_params << "} {\n"
           << "  if {$:step == 0} { error \"foreach: step must be nonzero\" }\n"
           << "  for {set :k $:lo} "
              "{($:step > 0 && $:k <= $:hi) || ($:step < 0 && $:k >= $:hi)} {incr :k $:step} {\n"
           << iter_holds
           << "    turbine::put_control [list " << body_proc << " $:k" << cap_args << "]\n"
           << "  }\n"
           << iter_releases << "}\n";

    for (const auto& w : writes) {
      body.code << "  turbine::write_incr $" << w << " 1\n";
      note_array_write(s.line, w, body);
    }
    finish(range, body, "CONTROL", caps,
           [split_proc, cap_args](Body& t, const std::vector<std::string>& words) {
             t.code << "  " << split_proc << " " << str::join(words, " ") << cap_args << "\n";
           });
  }

  void compile_foreach_array(const Stmt& s, Body& body) {
    if (s.value->kind != Expr::Kind::kVar) {
      fail(s.line, "foreach over an array requires an array variable");
    }
    VarInfo arr = resolve(s.value->line, s.value->name, body);
    if (!arr.is_array) fail(s.line, "\"" + s.value->name + "\" is not an array");
    const std::string& arr_var = s.value->name;

    int n = helper_counter_++;
    std::string body_proc = nsp("swift:arrloop_body_" + std::to_string(n));
    std::string split_proc = nsp("swift:arrloop_split_" + std::to_string(n));

    // The element and its key arrive as values.
    std::set<std::string> captures;
    std::set<std::string> writes;
    Body inner;
    open_body(inner, scopes_.size(), &captures, &writes, body.closed);
    scopes_.push_back({});
    declare(s.line, s.name, arr.type).is_value = true;
    std::string key_param = ":key";  // unread; no Swift name can clash
    if (!s.index_name.empty()) {
      declare(s.line, s.index_name, arr.key_type).is_value = true;
      key_param = s.index_name;
    }
    for (const auto& stmt : s.body) compile_stmt(*stmt, inner);
    emit_scope_releases(inner);
    scopes_.pop_back();

    std::vector<std::string> caps = capture_list(s.line, captures, body);
    std::string cap_params = join_words(caps, "");
    std::string cap_args = join_words(caps, "$");
    std::string iter_holds;
    std::string iter_releases;
    for (const auto& w : writes) {
      iter_holds += "    turbine::write_incr $" + w + " 1\n";
      iter_releases += "  turbine::write_incr $" + w + " -1\n";
    }

    procs_ << "proc " << body_proc << " {" << key_param << " " << s.name << cap_params
           << "} {\n" << inner.code.str() << iter_releases << "}\n";
    procs_ << "proc " << split_proc << " {:arr" << cap_params << "} {\n"
           << "  foreach {:k :v} [turbine::enumerate $:arr] {\n"
           << iter_holds
           << "    turbine::put_control [list " << body_proc << " $:k $:v" << cap_args << "]\n"
           << "  }\n"
           << iter_releases << "}\n";

    for (const auto& w : writes) {
      body.code << "  turbine::write_incr $" << w << " 1\n";
      note_array_write(s.line, w, body);
    }
    body.code << "  turbine::rule [list $" << arr_var << "] [list " << split_proc << " $"
              << arr_var << cap_args << "] type CONTROL\n";
  }

  void compile_if(const Stmt& s, Body& body) {
    Type ct = type_of(*s.value, body);
    if (!numeric(ct)) fail(s.line, "if condition must be boolean or integer");
    int n = helper_counter_++;
    std::string then_proc = nsp("swift:then_" + std::to_string(n));
    std::string else_proc = nsp("swift:else_" + std::to_string(n));

    // The condition is one fused computation; the branches run once it
    // is ready, so they know its inputs closed.
    Fused cond = prepare({s.value.get()}, body);
    std::set<int> closed = closed_when_ready(cond, body);

    std::set<std::string> captures;
    std::set<std::string> writes;
    Body then_body;
    open_body(then_body, scopes_.size(), &captures, &writes, closed);
    scopes_.push_back({});
    for (const auto& stmt : s.body) compile_stmt(*stmt, then_body);
    emit_scope_releases(then_body);
    scopes_.pop_back();

    Body else_body;
    open_body(else_body, scopes_.size(), &captures, &writes, closed);
    scopes_.push_back({});
    for (const auto& stmt : s.orelse) compile_stmt(*stmt, else_body);
    emit_scope_releases(else_body);
    scopes_.pop_back();

    std::vector<std::string> caps = capture_list(s.line, captures, body);
    std::string cap_params = str::join(caps, " ");
    std::string cap_args = join_words(caps, "$");
    std::string releases;
    for (const auto& w : writes) {
      releases += "  turbine::write_incr $" + w + " -1\n";
    }
    procs_ << "proc " << then_proc << " {" << cap_params << "} {\n"
           << then_body.code.str() << "}\n";
    procs_ << "proc " << else_proc << " {" << cap_params << "} {\n"
           << else_body.code.str() << "}\n";

    for (const auto& w : writes) {
      body.code << "  turbine::write_incr $" << w << " 1\n";
      note_array_write(s.line, w, body);
    }
    finish(cond, body, "CONTROL", caps,
           [then_proc, else_proc, cap_args, releases](Body& t,
                                                      const std::vector<std::string>& words) {
             t.code << "  if {" << words[0] << "} { " << then_proc << cap_args << " } else { "
                    << else_proc << cap_args << " }\n"
                    << releases;
           });
  }

  // ---- functions ----

  void emit_composite(const FunctionDef& fn) {
    Body body;
    body.boundary = scopes_.size() + 1;  // captures would be a bug here
    scopes_.push_back({});
    std::string params;
    for (const auto& p : fn.outputs) {
      declare_future(fn.line, p.name, p.type);
      params += " " + p.name;
    }
    for (const auto& p : fn.inputs) {
      declare_future(fn.line, p.name, p.type);
      params += " " + p.name;
    }
    for (const auto& stmt : fn.body) compile_stmt(*stmt, body);
    emit_scope_releases(body);
    scopes_.pop_back();
    procs_ << "proc " << nsp("u:" + fn.name) << " {" << str::trim(params) << "} {\n"
           << body.code.str() << "}\n";
  }

  // A leaf proc takes its outputs as datum ids and its inputs as values
  // (v_<name>); the WORK rule's action supplies them.
  void emit_leaf(const FunctionDef& fn) {
    std::string params;
    for (const auto& p : fn.outputs) params += " " + p.name;
    for (const auto& p : fn.inputs) params += " v_" + p.name;
    std::ostringstream proc;
    proc << "proc " << nsp("u:" + fn.name) << " {" << str::trim(params) << "} {\n";
    if (!fn.package.empty()) proc << "  package require " << fn.package << "\n";
    // Substitute the template: <<in>> -> ${v_in}, <<out>> -> v_out.
    std::string text = fn.template_text;
    for (const auto& p : fn.inputs) {
      text = str::replace_all(text, "<<" + p.name + ">>", "${v_" + p.name + "}");
    }
    for (const auto& p : fn.outputs) {
      text = str::replace_all(text, "<<" + p.name + ">>", "v_" + p.name);
    }
    if (text.find("<<") != std::string::npos) {
      fail(fn.line, "template of \"" + fn.name + "\" references an unknown parameter: " + text);
    }
    proc << "  " << text << "\n";
    for (const auto& p : fn.outputs) {
      if (p.type == Type::kVoid) {
        proc << "  turbine::store_void $" << p.name << "\n";
      } else {
        proc << "  swift:store_typed " << turbine_type(p.type) << " $" << p.name << " $v_"
             << p.name << "\n";
      }
    }
    proc << "}\n";
    procs_ << proc.str();
  }

  // Applies the per-program proc namespace to a generated name. Runtime
  // prelude procs (swift:store_typed, ...) are shared and stay unprefixed.
  std::string nsp(const std::string& name) const { return ns_.empty() ? name : ns_ + name; }

  Program prog_;
  std::set<const Stmt*> single_write_;
  std::string ns_;
  std::map<std::string, const FunctionDef*> functions_;
  std::vector<Scope> scopes_;
  std::ostringstream procs_;
  int helper_counter_ = 0;
  int next_uid_ = 0;
  std::map<int, std::set<int>> implies_;  // future -> futures closed before it
};

}  // namespace

std::string compile(const std::string& source) { return compile(source, {}); }

std::string compile(const std::string& source, const std::string& proc_ns) {
  Program prog = parse_swift(source);
  // swift-verify: reject guaranteed deadlocks / write-once violations
  // before generating any code (warnings are reported by `ilps --lint`).
  analysis::Report report = analysis::analyze(prog);
  if (report.has_errors()) {
    throw SwiftError("swift-verify: " + report.error_summary());
  }
  Compiler compiler(std::move(prog), std::move(report.single_write), proc_ns);
  return compiler.run();
}

}  // namespace ilps::swift
