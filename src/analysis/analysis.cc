#include "analysis/analysis.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace ilps::analysis {

namespace {

using swift::Expr;
using swift::FunctionDef;
using swift::Program;
using swift::Stmt;
using swift::StmtP;

// Write counts saturate here: 0 = never, 1 = once, 2 = more than once.
constexpr int kMany = 2;

int bump(int count) { return std::min(kMany, count + 1); }
int first_line(int a, int b) { return a != 0 ? a : b; }

struct VarDecl {
  std::string name;
  int line = 0;
  bool is_array = false;
  bool is_input = false;
  bool is_output = false;
  bool synthetic = false;  // loop variables: assigned by the runtime
  int input_index = -1;
  int loop_depth = 0;  // foreach nesting at the declaration site
  const Stmt* init_decl = nullptr;  // scalar declaration with an initializer
};

// The mutable dataflow facts; snapshot/merged around branches and loops.
struct VarState {
  int min_writes = 0;  // assignments on every path
  int max_writes = 0;  // assignments on some path
  bool read = false;
  bool dw_reported = false;
  int first_read_line = 0;
  int first_write_line = 0;
  // Input parameters the (single definite) assignment transitively
  // requires. Only trusted when deps_valid; an empty set is always safe
  // (the analysis under-approximates true requirements, see header).
  std::set<size_t> dep_inputs;
  bool deps_valid = false;
};

// What a composite (or leaf) function does to its outputs, as seen from a
// call site.
struct Summary {
  bool is_leaf = false;
  size_t n_inputs = 0;
  std::vector<int> out_min;
  std::vector<int> out_max;
  std::vector<std::set<size_t>> out_deps;  // input indices, true requirements
};

// One statement's contribution to the block-level wait graph: `writes`
// are scalars this statement definitely closes, `reads` are scalars that
// closure truly waits on. Arrays never appear (their closure goes through
// write-refcounts the analysis cannot bound).
struct Node {
  int line = 0;
  std::set<int> reads;
  std::set<int> writes;
};

void merge_into(std::set<int>& dst, const std::set<int>& src) {
  dst.insert(src.begin(), src.end());
}

class Analyzer {
 public:
  explicit Analyzer(const Program& prog) : prog_(prog) {
    for (const auto& fn : prog.functions) functions_.emplace(fn.name, &fn);
  }

  Report run();

  const FunctionDef* function(const std::string& name) const {
    auto it = functions_.find(name);
    return it == functions_.end() ? nullptr : it->second;
  }

  Summary summary(const std::string& name);

  void diag(Severity sev, DiagKind kind, int line, std::string var, std::string message) {
    diagnostics_.push_back({sev, kind, line, std::move(var), std::move(message)});
  }

  void note_single_write(const Stmt* decl) { single_write_.insert(decl); }

 private:
  const Program& prog_;
  std::map<std::string, const FunctionDef*> functions_;
  std::map<std::string, Summary> summaries_;
  std::set<std::string> in_progress_;
  std::vector<Diagnostic> diagnostics_;
  std::set<const Stmt*> single_write_;
};

// Per-function (or main) dataflow walk. Declarations accumulate in
// decls_/state_ for the whole context; the scope stack only affects name
// resolution, so branch-local variables keep their facts for the
// end-of-context checks.
class Context {
 public:
  Context(Analyzer& an, std::string where) : an_(an), where_(std::move(where)) {
    scopes_.push_back({});
  }

  void enter_function(const FunctionDef& fn) {
    for (const auto& p : fn.outputs) {
      int idx = declare(p.name, fn.line, /*is_array=*/false);
      if (idx >= 0) decls_[static_cast<size_t>(idx)].is_output = true;
    }
    int in_k = 0;
    for (const auto& p : fn.inputs) {
      int idx = declare(p.name, fn.line, /*is_array=*/false);
      if (idx < 0) continue;
      decls_[static_cast<size_t>(idx)].is_input = true;
      decls_[static_cast<size_t>(idx)].input_index = in_k++;
      // The caller provides and (eventually) closes inputs.
      state_[static_cast<size_t>(idx)].min_writes = 1;
      state_[static_cast<size_t>(idx)].max_writes = 1;
    }
  }

  void analyze_block(const std::vector<StmtP>& stmts);
  void finish();
  Summary extract_summary(const FunctionDef& fn) const;

 private:
  // ---- variable table ----

  int declare(const std::string& name, int line, bool is_array, bool synthetic = false) {
    int idx = static_cast<int>(decls_.size());
    VarDecl d;
    d.name = name;
    d.line = line;
    d.is_array = is_array;
    d.synthetic = synthetic;
    d.loop_depth = loop_depth_;
    decls_.push_back(std::move(d));
    state_.emplace_back();
    scopes_.back()[name] = idx;  // shadowing: innermost wins, compiler rejects same-scope dups
    return idx;
  }

  int lookup(const std::string& name) const {
    for (size_t s = scopes_.size(); s-- > 0;) {
      auto it = scopes_[s].find(name);
      if (it != scopes_[s].end()) return it->second;
    }
    return -1;
  }

  void mark_read(int idx, int line) {
    VarState& st = state_[static_cast<size_t>(idx)];
    st.read = true;
    if (st.first_read_line == 0) st.first_read_line = line;
  }

  // Maps a wait set (var indices) to the input parameters those waits
  // truly require.
  std::set<size_t> input_deps_of(const std::set<int>& waits) const {
    std::set<size_t> out;
    for (int w : waits) {
      const VarDecl& d = decls_[static_cast<size_t>(w)];
      const VarState& st = state_[static_cast<size_t>(w)];
      if (d.is_input) {
        out.insert(static_cast<size_t>(d.input_index));
      } else if (st.deps_valid) {
        out.insert(st.dep_inputs.begin(), st.dep_inputs.end());
      }
    }
    return out;
  }

  void diag(Severity sev, DiagKind kind, int line, const std::string& var, std::string msg) {
    an_.diag(sev, kind, line, var, std::move(msg) + where_);
  }

  // ---- writes ----

  // Records an assignment to `idx`. `definite` = the statement, when it
  // executes, is guaranteed to store; `possible` = it can store at all
  // (false when a composite never assigns that output). Conditional
  // execution is cond_depth_'s job, resolved by the branch merges.
  void apply_write(int idx, int line, const std::set<int>& waits, bool definite,
                   bool possible) {
    if (!possible) return;
    VarDecl& d = decls_[static_cast<size_t>(idx)];
    VarState& st = state_[static_cast<size_t>(idx)];
    if (d.is_array) {  // container insert: counts only feed warnings
      if (cond_depth_ == 0 && definite) st.min_writes = bump(st.min_writes);
      st.max_writes = bump(st.max_writes);
      if (st.first_write_line == 0) st.first_write_line = line;
      return;
    }
    if (d.is_input) {
      // Writing a parameter stores into the caller's datum; whether that
      // collides depends on the caller, so this cannot be a hard error.
      diag(Severity::kWarning, DiagKind::kMaybeDoubleWrite, line, d.name,
           "input parameter \"" + d.name + "\" is assigned (line " + std::to_string(line) +
               "); a write-once violation if the caller also assigns it");
    } else if (definite && cond_depth_ == 0 && st.min_writes >= 1) {
      if (!st.dw_reported) {
        st.dw_reported = true;
        diag(Severity::kError, DiagKind::kDoubleWrite, line, d.name,
             "variable \"" + d.name + "\" is assigned more than once (lines " +
                 std::to_string(st.first_write_line) + " and " + std::to_string(line) +
                 "); futures are single-assignment");
      }
    } else if (st.max_writes >= 1 && !st.dw_reported) {
      diag(Severity::kWarning, DiagKind::kMaybeDoubleWrite, line, d.name,
           "variable \"" + d.name + "\" may be assigned more than once (lines " +
               std::to_string(st.first_write_line) + " and " + std::to_string(line) + ")");
    } else if (d.loop_depth < loop_depth_ && !d.synthetic) {
      diag(Severity::kWarning, DiagKind::kMaybeDoubleWrite, line, d.name,
           "variable \"" + d.name + "\" (declared outside the loop at line " +
               std::to_string(d.line) + ") is assigned inside a foreach body (line " +
               std::to_string(line) + "); every iteration assigns it again");
    }
    bool first_ever = st.max_writes == 0;
    if (definite) st.min_writes = bump(st.min_writes);
    st.max_writes = bump(st.max_writes);
    if (st.first_write_line == 0) st.first_write_line = line;
    if (first_ever && definite) {
      st.dep_inputs = input_deps_of(waits);
      st.deps_valid = true;
    } else {
      st.deps_valid = false;
    }
  }

  // ---- expressions ----

  // Marks every variable in `e` as read; returns the scalar vars the
  // computed value truly waits on (dependency-accurate through composite
  // calls: an under-approximation, so wait-cycle edges are never false).
  std::set<int> walk_expr(const Expr& e) {
    std::set<int> waits;
    switch (e.kind) {
      case Expr::Kind::kIntLit:
      case Expr::Kind::kFloatLit:
      case Expr::Kind::kStringLit:
      case Expr::Kind::kBoolLit:
        break;
      case Expr::Kind::kVar: {
        int idx = lookup(e.name);
        if (idx >= 0) {
          mark_read(idx, e.line);
          if (!decls_[static_cast<size_t>(idx)].is_array) waits.insert(idx);
        }
        break;
      }
      case Expr::Kind::kIndex: {
        int idx = lookup(e.name);
        if (idx >= 0) mark_read(idx, e.line);  // container read: no wait edge
        if (e.a) merge_into(waits, walk_expr(*e.a));
        break;
      }
      case Expr::Kind::kUnary:
        if (e.a) merge_into(waits, walk_expr(*e.a));
        break;
      case Expr::Kind::kBinary:
        if (e.a) merge_into(waits, walk_expr(*e.a));
        if (e.b) merge_into(waits, walk_expr(*e.b));
        break;
      case Expr::Kind::kCall: {
        std::vector<std::set<int>> arg_waits;
        arg_waits.reserve(e.args.size());
        for (const auto& arg : e.args) arg_waits.push_back(walk_expr(*arg));
        const FunctionDef* fn = an_.function(e.name);
        if (fn != nullptr && !fn->is_leaf && fn->outputs.size() == 1) {
          // The value waits only on the inputs the callee's output needs.
          Summary sum = an_.summary(e.name);
          if (!sum.out_deps.empty()) {
            for (size_t k : sum.out_deps[0]) {
              if (k < arg_waits.size()) merge_into(waits, arg_waits[k]);
            }
          }
        } else {
          // Leafs and builtins wait on every argument.
          for (const auto& aw : arg_waits) merge_into(waits, aw);
        }
        break;
      }
    }
    return waits;
  }

  // ---- statements ----

  // A scalar assignment from an arbitrary value expression.
  void assign_value(int idx, int line, const Expr& value, std::vector<Node>& nodes) {
    const FunctionDef* fn =
        value.kind == Expr::Kind::kCall ? an_.function(value.name) : nullptr;
    if (fn != nullptr) {
      apply_user_call(value, *fn, {idx}, line, nodes);
      return;
    }
    std::set<int> waits = walk_expr(value);
    apply_write(idx, line, waits, /*definite=*/true, /*possible=*/true);
    if (!decls_[static_cast<size_t>(idx)].is_array) {
      nodes.push_back({line, std::move(waits), {idx}});
    }
  }

  // A statement-level call to a user function; targets[k] is the resolved
  // variable index of output k, or -1 when discarded/unresolvable.
  void apply_user_call(const Expr& call, const FunctionDef& fn, std::vector<int> targets,
                       int line, std::vector<Node>& nodes) {
    std::vector<std::set<int>> arg_waits;
    arg_waits.reserve(call.args.size());
    for (const auto& arg : call.args) arg_waits.push_back(walk_expr(*arg));
    if (call.args.size() != fn.inputs.size() || targets.size() != fn.outputs.size()) {
      return;  // arity mismatch: the compiler reports it
    }
    Summary sum = an_.summary(fn.name);
    for (size_t k = 0; k < targets.size(); ++k) {
      int idx = targets[k];
      if (idx < 0 || decls_[static_cast<size_t>(idx)].is_array) continue;
      std::set<int> waits;
      if (sum.is_leaf) {
        for (const auto& aw : arg_waits) merge_into(waits, aw);
      } else if (k < sum.out_deps.size()) {
        for (size_t j : sum.out_deps[k]) {
          if (j < arg_waits.size()) merge_into(waits, arg_waits[j]);
        }
      }
      bool definite = k < sum.out_min.size() && sum.out_min[k] > 0;
      bool possible = k < sum.out_max.size() && sum.out_max[k] > 0;
      apply_write(idx, line, waits, definite, possible);
      if (definite) nodes.push_back({line, std::move(waits), {idx}});
    }
  }

  void analyze_stmt(const Stmt& s, std::vector<Node>& nodes);

  // ---- branch/loop state merging ----

  void merge_loop(const std::vector<VarState>& base) {
    for (size_t i = 0; i < base.size(); ++i) {
      VarState& st = state_[i];
      // The body may run zero times: only "may write" survives.
      st.min_writes = base[i].min_writes;
      if (st.max_writes > base[i].max_writes) st.deps_valid = false;
    }
  }

  void merge_if(int line, const std::set<int>& cond_waits,
                const std::vector<VarState>& base, const std::vector<VarState>& then_state,
                Node& node) {
    std::set<size_t> cond_deps = input_deps_of(cond_waits);
    for (size_t i = 0; i < base.size(); ++i) {
      const VarState& a = then_state[i];
      const VarState& b = state_[i];  // else branch's final state
      VarState m;
      m.min_writes = std::min(a.min_writes, b.min_writes);
      m.max_writes = std::max(a.max_writes, b.max_writes);
      m.read = a.read || b.read;
      m.dw_reported = a.dw_reported || b.dw_reported;
      m.first_read_line = first_line(a.first_read_line, b.first_read_line);
      m.first_write_line = first_line(a.first_write_line, b.first_write_line);
      const VarDecl& d = decls_[i];
      if (m.min_writes > base[i].min_writes && !d.is_array) {
        // Both branches assign: the if as a whole definitely closes it,
        // and firing either branch truly requires the condition.
        if (!d.synthetic && !d.is_input) node.writes.insert(static_cast<int>(i));
        m.dep_inputs = cond_deps;
        m.deps_valid = base[i].max_writes == 0;
        if (cond_depth_ == 0 && m.min_writes >= 2 && !m.dw_reported && !d.is_input) {
          m.dw_reported = true;
          diag(Severity::kError, DiagKind::kDoubleWrite, line, d.name,
               "variable \"" + d.name + "\" is assigned on every path more than once (line " +
                   std::to_string(line) + "); futures are single-assignment");
        }
      } else if (m.max_writes > base[i].max_writes) {
        m.deps_valid = false;  // a conditional write joined the picture
      } else {
        m.dep_inputs = base[i].dep_inputs;
        m.deps_valid = base[i].deps_valid;
      }
      state_[i] = std::move(m);
    }
  }

  // ---- wait cycles ----

  void check_cycles(const std::vector<Node>& nodes);

  Analyzer& an_;
  std::string where_;  // "" for main, " in function \"f\"" otherwise

  std::vector<VarDecl> decls_;
  std::vector<VarState> state_;
  std::vector<std::map<std::string, int>> scopes_;
  int cond_depth_ = 0;
  int loop_depth_ = 0;
};

void Context::analyze_block(const std::vector<StmtP>& stmts) {
  std::vector<Node> nodes;
  for (const auto& sp : stmts) {
    if (sp) analyze_stmt(*sp, nodes);
  }
  check_cycles(nodes);
}

void Context::analyze_stmt(const Stmt& s, std::vector<Node>& nodes) {
  switch (s.kind) {
    case Stmt::Kind::kDecl: {
      int idx = declare(s.name, s.line, s.is_array);
      if (s.value && !s.is_array) {
        decls_[static_cast<size_t>(idx)].init_decl = &s;
        assign_value(idx, s.line, *s.value, nodes);
      }
      return;
    }
    case Stmt::Kind::kAssign: {
      int idx = lookup(s.name);
      if (idx < 0 || decls_[static_cast<size_t>(idx)].is_array) {
        if (s.value) walk_expr(*s.value);  // compiler reports the real problem
        return;
      }
      if (s.value) assign_value(idx, s.line, *s.value, nodes);
      return;
    }
    case Stmt::Kind::kMultiAssign: {
      if (!s.value || s.value->kind != Expr::Kind::kCall) return;
      const FunctionDef* fn = an_.function(s.value->name);
      if (fn == nullptr) {
        walk_expr(*s.value);
        return;
      }
      std::vector<int> targets;
      targets.reserve(s.names.size());
      for (const auto& name : s.names) {
        int idx = lookup(name);
        targets.push_back(idx >= 0 && !decls_[static_cast<size_t>(idx)].is_array ? idx : -1);
      }
      apply_user_call(*s.value, *fn, std::move(targets), s.line, nodes);
      return;
    }
    case Stmt::Kind::kArrayAssign: {
      std::set<int> waits;
      if (s.index) merge_into(waits, walk_expr(*s.index));
      if (s.value) merge_into(waits, walk_expr(*s.value));
      int idx = lookup(s.name);
      if (idx >= 0 && decls_[static_cast<size_t>(idx)].is_array) {
        apply_write(idx, s.line, waits, /*definite=*/true, /*possible=*/true);
      }
      return;
    }
    case Stmt::Kind::kExprStmt: {
      if (!s.value || s.value->kind != Expr::Kind::kCall) return;
      const Expr& call = *s.value;
      const FunctionDef* fn = an_.function(call.name);
      if (fn == nullptr) {
        walk_expr(call);  // builtin (printf, trace, ...) or undefined
        return;
      }
      if (fn->is_leaf && !fn->outputs.empty()) {
        bool any_void = false;
        for (const auto& p : fn->outputs) any_void = any_void || p.type == swift::Type::kVoid;
        if (!any_void) {
          diag(Severity::kWarning, DiagKind::kUnusedValue, s.line, call.name,
               "every output of leaf task \"" + call.name + "\" is discarded (line " +
                   std::to_string(s.line) + "); the task still runs");
        }
      }
      apply_user_call(call, *fn, std::vector<int>(fn->outputs.size(), -1), s.line, nodes);
      return;
    }
    case Stmt::Kind::kForeach: {
      Node node;
      node.line = s.line;
      // The split rule waits only on the range bounds.
      for (const auto& bound : {s.from, s.to, s.step}) {
        if (bound) merge_into(node.reads, walk_expr(*bound));
      }
      std::vector<VarState> base = state_;
      ++cond_depth_;
      ++loop_depth_;
      scopes_.push_back({});
      int lv = declare(s.name, s.line, /*is_array=*/false, /*synthetic=*/true);
      state_[static_cast<size_t>(lv)].min_writes = 1;
      state_[static_cast<size_t>(lv)].max_writes = 1;
      analyze_block(s.body);
      scopes_.pop_back();
      --loop_depth_;
      --cond_depth_;
      merge_loop(base);
      nodes.push_back(std::move(node));
      return;
    }
    case Stmt::Kind::kForeachArray: {
      if (s.value && s.value->kind == Expr::Kind::kVar) {
        int arr = lookup(s.value->name);
        if (arr >= 0) mark_read(arr, s.value->line);  // split waits on the container
      } else if (s.value) {
        walk_expr(*s.value);
      }
      std::vector<VarState> base = state_;
      ++cond_depth_;
      ++loop_depth_;
      scopes_.push_back({});
      int vv = declare(s.name, s.line, /*is_array=*/false, /*synthetic=*/true);
      state_[static_cast<size_t>(vv)].min_writes = 1;
      state_[static_cast<size_t>(vv)].max_writes = 1;
      if (!s.index_name.empty()) {
        int iv = declare(s.index_name, s.line, /*is_array=*/false, /*synthetic=*/true);
        state_[static_cast<size_t>(iv)].min_writes = 1;
        state_[static_cast<size_t>(iv)].max_writes = 1;
      }
      analyze_block(s.body);
      scopes_.pop_back();
      --loop_depth_;
      --cond_depth_;
      merge_loop(base);
      return;
    }
    case Stmt::Kind::kIf: {
      Node node;
      node.line = s.line;
      std::set<int> cond_waits;
      if (s.value) cond_waits = walk_expr(*s.value);
      node.reads = cond_waits;
      std::vector<VarState> base = state_;
      ++cond_depth_;
      scopes_.push_back({});
      analyze_block(s.body);
      scopes_.pop_back();
      std::vector<VarState> then_state = state_;
      // Reset the shared prefix for the else walk; branch-local slots
      // beyond base keep their final (then) facts, the else branch cannot
      // touch them.
      for (size_t i = 0; i < base.size(); ++i) state_[i] = base[i];
      scopes_.push_back({});
      analyze_block(s.orelse);
      scopes_.pop_back();
      --cond_depth_;
      merge_if(s.line, cond_waits, base, then_state, node);
      nodes.push_back(std::move(node));
      return;
    }
  }
}

void Context::check_cycles(const std::vector<Node>& nodes) {
  // Definite writer per var (the first claim wins; double writes are
  // already their own error).
  std::map<int, int> writer;
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int v : nodes[i].writes) writer.emplace(v, static_cast<int>(i));
  }
  if (writer.empty()) return;
  const int n = static_cast<int>(nodes.size());
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int v : nodes[static_cast<size_t>(i)].reads) {
      auto it = writer.find(v);
      if (it != writer.end()) adj[static_cast<size_t>(i)].push_back(it->second);
    }
  }

  // Tarjan SCC (blocks are small; recursion depth is bounded by them).
  std::vector<int> index(static_cast<size_t>(n), -1);
  std::vector<int> low(static_cast<size_t>(n), 0);
  std::vector<bool> on_stack(static_cast<size_t>(n), false);
  std::vector<int> stack;
  int counter = 0;

  auto strongconnect = [&](auto&& self, int v) -> void {
    index[static_cast<size_t>(v)] = low[static_cast<size_t>(v)] = counter++;
    stack.push_back(v);
    on_stack[static_cast<size_t>(v)] = true;
    for (int w : adj[static_cast<size_t>(v)]) {
      if (index[static_cast<size_t>(w)] < 0) {
        self(self, w);
        low[static_cast<size_t>(v)] =
            std::min(low[static_cast<size_t>(v)], low[static_cast<size_t>(w)]);
      } else if (on_stack[static_cast<size_t>(w)]) {
        low[static_cast<size_t>(v)] =
            std::min(low[static_cast<size_t>(v)], index[static_cast<size_t>(w)]);
      }
    }
    if (low[static_cast<size_t>(v)] != index[static_cast<size_t>(v)]) return;
    std::set<int> scc;
    while (true) {
      int w = stack.back();
      stack.pop_back();
      on_stack[static_cast<size_t>(w)] = false;
      scc.insert(w);
      if (w == v) break;
    }
    bool self_loop = false;
    for (int w : adj[static_cast<size_t>(v)]) self_loop = self_loop || w == v;
    if (scc.size() < 2 && !self_loop) return;

    std::set<int> lines;
    std::set<std::string> vars;
    for (int m : scc) {
      lines.insert(nodes[static_cast<size_t>(m)].line);
      for (int var : nodes[static_cast<size_t>(m)].reads) {
        auto it = writer.find(var);
        if (it != writer.end() && scc.count(it->second) > 0) {
          vars.insert(decls_[static_cast<size_t>(var)].name);
        }
      }
    }
    std::ostringstream msg;
    msg << "wait cycle: statement" << (lines.size() > 1 ? "s" : "") << " at line"
        << (lines.size() > 1 ? "s " : " ");
    bool first = true;
    for (int line : lines) {
      msg << (first ? "" : ", ") << line;
      first = false;
    }
    msg << " wait on each other's outputs (";
    first = true;
    for (const auto& name : vars) {
      msg << (first ? "" : ", ") << name;
      first = false;
    }
    msg << "); no rule can fire first";
    diag(Severity::kError, DiagKind::kWaitCycle, *lines.begin(),
         vars.empty() ? std::string() : *vars.begin(), msg.str());
  };
  for (int v = 0; v < n; ++v) {
    if (index[static_cast<size_t>(v)] < 0) strongconnect(strongconnect, v);
  }
}

void Context::finish() {
  for (size_t i = 0; i < decls_.size(); ++i) {
    const VarDecl& d = decls_[i];
    const VarState& st = state_[i];
    if (d.init_decl != nullptr && st.max_writes <= 1) an_.note_single_write(d.init_decl);
    if (d.synthetic || d.is_input) continue;
    if (d.is_output) {
      if (st.max_writes == 0) {
        diag(Severity::kError, DiagKind::kUnassignedRead, d.line, d.name,
             "output \"" + d.name + "\" is never assigned (declared line " +
                 std::to_string(d.line) + "); every caller deadlocks");
      } else if (st.min_writes == 0) {
        diag(Severity::kWarning, DiagKind::kUnassignedRead, d.line, d.name,
             "output \"" + d.name + "\" may not be assigned on every path (declared line " +
                 std::to_string(d.line) + ")");
      }
      continue;
    }
    if (st.read && st.max_writes == 0) {
      if (d.is_array) {
        diag(Severity::kWarning, DiagKind::kUnassignedRead, st.first_read_line, d.name,
             "array \"" + d.name + "\" is read (line " + std::to_string(st.first_read_line) +
                 ") but never written; it is always empty");
      } else {
        diag(Severity::kError, DiagKind::kUnassignedRead, st.first_read_line, d.name,
             "variable \"" + d.name + "\" is read (line " +
                 std::to_string(st.first_read_line) + ") but never assigned (declared line " +
                 std::to_string(d.line) + "); a guaranteed deadlock");
      }
    } else if (!st.read) {
      diag(Severity::kWarning, DiagKind::kUnusedValue, d.line, d.name,
           (d.is_array ? "array \"" : "variable \"") + d.name + "\" (line " +
               std::to_string(d.line) + ") is never read");
    }
  }
}

Summary Context::extract_summary(const FunctionDef& fn) const {
  Summary s;
  s.n_inputs = fn.inputs.size();
  s.out_min.reserve(fn.outputs.size());
  for (size_t k = 0; k < fn.outputs.size() && k < decls_.size(); ++k) {
    const VarState& st = state_[k];  // outputs are the first declarations
    s.out_min.push_back(st.min_writes);
    s.out_max.push_back(st.max_writes);
    s.out_deps.push_back(st.deps_valid ? st.dep_inputs : std::set<size_t>{});
  }
  return s;
}

Summary Analyzer::summary(const std::string& name) {
  if (auto it = summaries_.find(name); it != summaries_.end()) return it->second;
  const FunctionDef* fn = function(name);
  if (fn == nullptr) return {};
  if (fn->is_leaf) {
    Summary s;
    s.is_leaf = true;
    s.n_inputs = fn->inputs.size();
    std::set<size_t> all_inputs;
    for (size_t j = 0; j < fn->inputs.size(); ++j) all_inputs.insert(j);
    s.out_min.assign(fn->outputs.size(), 1);
    s.out_max.assign(fn->outputs.size(), 1);
    s.out_deps.assign(fn->outputs.size(), all_inputs);  // one WORK rule, all inputs
    summaries_.emplace(name, s);
    return s;
  }
  if (!in_progress_.insert(name).second) {
    // Recursive call: an optimistic, never-memoized placeholder — may
    // assign (no false unassigned-read), never definitely (no false
    // double-write), claims no deps (no false cycle edge).
    Summary s;
    s.n_inputs = fn->inputs.size();
    s.out_min.assign(fn->outputs.size(), 0);
    s.out_max.assign(fn->outputs.size(), kMany);
    s.out_deps.assign(fn->outputs.size(), {});
    return s;
  }
  Context ctx(*this, " in function \"" + name + "\"");
  ctx.enter_function(*fn);
  ctx.analyze_block(fn->body);
  ctx.finish();
  Summary s = ctx.extract_summary(*fn);
  in_progress_.erase(name);
  summaries_.emplace(name, s);
  return s;
}

Report Analyzer::run() {
  // Analyze every composite exactly once (summary() memoizes), then main.
  for (const auto& fn : prog_.functions) {
    if (!fn.is_leaf) (void)summary(fn.name);
  }
  Context main_ctx(*this, "");
  main_ctx.analyze_block(prog_.main_statements);
  main_ctx.finish();

  // A maybe-double warning is noise once the same variable has a hard
  // double-write error.
  std::set<std::string> dw_errors;
  for (const auto& d : diagnostics_) {
    if (d.kind == DiagKind::kDoubleWrite) dw_errors.insert(d.var);
  }
  Report report;
  report.single_write = std::move(single_write_);
  for (auto& d : diagnostics_) {
    if (d.kind == DiagKind::kMaybeDoubleWrite && dw_errors.count(d.var) > 0) continue;
    report.diagnostics.push_back(std::move(d));
  }
  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) { return a.line < b.line; });
  return report;
}

}  // namespace

bool Report::has_errors() const { return error_count() > 0; }

size_t Report::error_count() const {
  size_t n = 0;
  for (const auto& d : diagnostics) n += d.severity == Severity::kError ? 1 : 0;
  return n;
}

std::string Report::to_string() const {
  std::string out;
  for (const auto& d : diagnostics) {
    out += d.severity == Severity::kError ? "error: " : "warning: ";
    out += d.message;
    out += '\n';
  }
  return out;
}

std::string Report::error_summary() const {
  std::string out;
  for (const auto& d : diagnostics) {
    if (d.severity != Severity::kError) continue;
    if (!out.empty()) out += "\n  ";
    out += d.message;
  }
  return out;
}

Report analyze(const swift::Program& program) { return Analyzer(program).run(); }

}  // namespace ilps::analysis
