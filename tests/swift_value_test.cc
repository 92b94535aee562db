// STC value pass: literals, loop indices and single-write scalars stay
// engine-local, and operator trees fire as one rule. Checked three ways:
// random programs against a C++ reference evaluator, round-trip budgets
// on the paper's Fig. 1 loop, and error parity for failures that move from
// a rule body into straight-line engine code.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "runtime/runner.h"
#include "serve/serve.h"
#include "swift/compiler.h"
#include "tcl/interp.h"

namespace ilps::swift {
namespace {

runtime::Config world() {
  runtime::Config cfg;
  cfg.engines = 1;
  cfg.workers = 2;
  cfg.servers = 1;
  return cfg;
}

// ---- differential property test ----
//
// A generated program is a small AST rendered to Swift source. The same
// AST is evaluated here, sequentially: every variable is written once
// (late-assigned ones get their value at declaration time, where their
// expression's inputs are already known), so sequential order computes
// exactly what dataflow order does.

enum class T { kInt, kFloat, kStr, kBool };

struct Val {
  T t = T::kInt;
  int64_t i = 0;
  double f = 0;
  std::string s;
};

// What printf's %d / %s print for a value.
std::string show(const Val& v) {
  switch (v.t) {
    case T::kInt:
    case T::kBool: return std::to_string(v.i);
    case T::kFloat: return str::format_double(v.f);
    case T::kStr: return v.s;
  }
  return {};
}

struct Ex;
using ExP = std::shared_ptr<Ex>;

struct Ex {
  enum K { kLit, kVar, kBin, kNeg, kNot, kCall } k = kLit;
  T t = T::kInt;
  Val lit;
  std::string name;  // kVar: variable; kCall: function
  std::string op;    // kBin
  std::vector<ExP> a;
};

struct St;
using StP = std::shared_ptr<St>;

struct St {
  enum K { kDecl, kDeclLate, kAssign, kPrintf, kIf, kForeach } k = kDecl;
  T t = T::kInt;
  std::string name;       // declared / assigned variable, loop index
  ExP e;                  // initializer, assigned value, condition
  std::string label;      // kPrintf
  std::vector<ExP> args;  // kPrintf
  std::vector<StP> body, orelse;
  ExP lo, hi;             // kForeach
  // kIf: a variable declared before the if, assigned in both branches.
  std::string joined;
  ExP then_value, else_value;
};

int64_t floor_div(int64_t a, int64_t b) {
  int64_t q = a / b;
  if (a % b != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t floor_mod(int64_t a, int64_t b) {
  int64_t r = a % b;
  if (r != 0 && ((r < 0) != (b < 0))) r += b;
  return r;
}

double as_double(const Val& v) { return v.t == T::kFloat ? v.f : static_cast<double>(v.i); }

Val make_bool(bool b) {
  Val v;
  v.t = T::kBool;
  v.i = b ? 1 : 0;
  return v;
}

using Env = std::map<std::string, Val>;

Val eval(const Ex& e, const Env& env) {
  switch (e.k) {
    case Ex::kLit: return e.lit;
    case Ex::kVar: return env.at(e.name);
    case Ex::kNeg: {
      Val v = eval(*e.a[0], env);
      if (v.t == T::kFloat) {
        v.f = -v.f;
      } else {
        v.i = -v.i;
      }
      return v;
    }
    case Ex::kNot: return make_bool(eval(*e.a[0], env).i == 0);
    case Ex::kBin: {
      Val a = eval(*e.a[0], env);
      Val b = eval(*e.a[1], env);
      const std::string& op = e.op;
      if (a.t == T::kStr) {
        if (op == "+") {
          Val v;
          v.t = T::kStr;
          v.s = a.s + b.s;
          return v;
        }
        return make_bool((a.s == b.s) == (op == "=="));
      }
      if (op == "&&") return make_bool(a.i != 0 && b.i != 0);
      if (op == "||") return make_bool(a.i != 0 || b.i != 0);
      if (a.t == T::kFloat || b.t == T::kFloat) {
        double x = as_double(a), y = as_double(b);
        if (op == "<") return make_bool(x < y);
        if (op == "<=") return make_bool(x <= y);
        if (op == ">") return make_bool(x > y);
        if (op == ">=") return make_bool(x >= y);
        if (op == "==") return make_bool(x == y);
        if (op == "!=") return make_bool(x != y);
        Val v;
        v.t = T::kFloat;
        v.f = op == "+" ? x + y : op == "-" ? x - y : op == "*" ? x * y : x / y;
        return v;
      }
      int64_t x = a.i, y = b.i;
      if (op == "<") return make_bool(x < y);
      if (op == "<=") return make_bool(x <= y);
      if (op == ">") return make_bool(x > y);
      if (op == ">=") return make_bool(x >= y);
      if (op == "==") return make_bool(x == y);
      if (op == "!=") return make_bool(x != y);
      Val v;
      v.t = T::kInt;
      v.i = op == "+"   ? x + y
            : op == "-" ? x - y
            : op == "*" ? x * y
            : op == "/" ? floor_div(x, y)
                        : floor_mod(x, y);
      return v;
    }
    case Ex::kCall: {
      std::vector<Val> args;
      for (const auto& arg : e.a) args.push_back(eval(*arg, env));
      Val v;
      v.t = e.t;
      if (e.name == "lid") {
        v.i = args[0].i;
      } else if (e.name == "twice") {
        v.i = 2 * args[0].i;
      } else if (e.name == "fid" || e.name == "tofloat") {
        v.f = e.name == "fid" ? as_double(args[0]) : std::stod(args[0].s);
      } else if (e.name == "toint") {
        v.i = std::stoll(args[0].s);
      } else if (e.name == "sid") {
        v.s = args[0].s;
      } else if (e.name == "tostring") {
        v.s = show(args[0]);
      } else if (e.name == "strcat") {
        for (const auto& arg : args) v.s += show(arg);
      } else if (e.name == "sprintf") {
        v.s = show(args[1]) + "|" + show(args[2]);
      }
      return v;
    }
  }
  return {};
}

std::string swift_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string render(const Ex& e) {
  switch (e.k) {
    case Ex::kLit:
      switch (e.lit.t) {
        case T::kInt: return std::to_string(e.lit.i);
        case T::kBool: return e.lit.i != 0 ? "true" : "false";
        case T::kFloat: return str::format_double(e.lit.f);
        case T::kStr: return swift_string(e.lit.s);
      }
      break;
    case Ex::kVar: return e.name;
    case Ex::kNeg: return "(- " + render(*e.a[0]) + ")";
    case Ex::kNot: return "(! " + render(*e.a[0]) + ")";
    case Ex::kBin: return "(" + render(*e.a[0]) + " " + e.op + " " + render(*e.a[1]) + ")";
    case Ex::kCall: {
      std::string out = e.name + "(";
      for (size_t i = 0; i < e.a.size(); ++i) out += (i ? ", " : "") + render(*e.a[i]);
      return out + ")";
    }
  }
  return {};
}

const char* type_word(T t) {
  switch (t) {
    case T::kInt: return "int";
    case T::kFloat: return "float";
    case T::kStr: return "string";
    case T::kBool: return "boolean";
  }
  return "";
}

// Strings with every character Tcl quoting cares about.
const std::vector<std::string>& strings() {
  static const std::vector<std::string> kStrings = {
      "plain", "a b", "[x]", "$y", "{z}", "back\\slash", "q\"uote", "two\nlines", "",
      "mix [$ {}] \\ \" end", "}{", "[", "$", "\\", "{", "a;b"};
  return kStrings;
}

// Tags every expression node with its static type (the generator fills
// only literals and calls).
T settle(Ex& e, const std::map<std::string, T>& types) {
  switch (e.k) {
    case Ex::kLit: e.t = e.lit.t; break;
    case Ex::kVar: e.t = types.at(e.name); break;
    case Ex::kNeg: e.t = settle(*e.a[0], types); break;
    case Ex::kNot: settle(*e.a[0], types); e.t = T::kBool; break;
    case Ex::kBin: {
      T a = settle(*e.a[0], types);
      T b = settle(*e.a[1], types);
      static const std::vector<std::string> kBool = {"<", "<=", ">", ">=", "==", "!=", "&&", "||"};
      if (std::find(kBool.begin(), kBool.end(), e.op) != kBool.end()) {
        e.t = T::kBool;
      } else if (a == T::kStr) {
        e.t = T::kStr;
      } else {
        e.t = a == T::kFloat || b == T::kFloat ? T::kFloat : T::kInt;
      }
      break;
    }
    case Ex::kCall:
      for (auto& arg : e.a) settle(*arg, types);
      break;
  }
  return e.t;
}

void settle_block(std::vector<StP>& stmts, std::map<std::string, T> types) {
  for (auto& s : stmts) {
    switch (s->k) {
      case St::kDecl:
      case St::kDeclLate:
        settle(*s->e, types);
        types[s->name] = s->t;
        break;
      case St::kAssign:
        break;
      case St::kPrintf:
        for (auto& a : s->args) settle(*a, types);
        break;
      case St::kIf:
        settle(*s->e, types);
        if (!s->joined.empty()) {
          settle(*s->then_value, types);
          settle(*s->else_value, types);
        }
        settle_block(s->body, types);
        settle_block(s->orelse, types);
        if (!s->joined.empty()) types[s->joined] = T::kInt;
        break;
      case St::kForeach: {
        settle(*s->lo, types);
        settle(*s->hi, types);
        auto inner = types;
        inner[s->name] = T::kInt;
        settle_block(s->body, inner);
        break;
      }
    }
  }
}

class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}

  // A program: fixed function definitions, then a random main block.
  std::string program(std::vector<StP>& main) {
    scopes_.assign(1, {});
    main = block(3 + static_cast<int>(rng_.next_below(6)), 0);
    settle_block(main, {});
    std::ostringstream src;
    src << "(int o) lid (int i) [ \"set <<o>> <<i>>\" ];\n"
        << "(float o) fid (float x) [ \"set <<o>> <<x>>\" ];\n"
        << "(string o) sid (string s) [ \"set <<o>> <<s>>\" ];\n"
        << "(int r) twice (int a) { r = a + a; }\n";
    for (const auto& s : main) render_stmt(*s, src, "");
    return src.str();
  }

 private:
  struct Var {
    std::string name;
    T t;
  };

  uint64_t pick(uint64_t n) { return rng_.next_below(n); }
  bool coin(uint64_t n = 2) { return pick(n) == 0; }

  std::vector<StP> block(int n, int depth) {
    std::vector<StP> out;
    std::vector<StP> late;  // assignments of late-declared variables
    for (int k = 0; k < n; ++k) {
      uint64_t r = pick(depth < 2 ? 10 : 7);
      if (r <= 2) {
        out.push_back(decl(false));
      } else if (r == 3) {
        out.push_back(decl(true));
        auto assign = std::make_shared<St>();
        assign->k = St::kAssign;
        assign->name = out.back()->name;
        assign->e = out.back()->e;
        late.push_back(assign);
      } else if (r <= 6) {
        out.push_back(print());
      } else if (r <= 8) {
        out.push_back(if_stmt(depth));
      } else {
        out.push_back(foreach(depth));
      }
    }
    // Late assignments come last: readers above wait on them.
    out.insert(out.end(), late.begin(), late.end());
    return out;
  }

  StP decl(bool late) {
    auto s = std::make_shared<St>();
    s->k = late ? St::kDeclLate : St::kDecl;
    static const T kTypes[] = {T::kInt, T::kInt, T::kFloat, T::kStr, T::kBool};
    s->t = kTypes[pick(5)];
    s->name = "v" + std::to_string(next_var_++);
    if (s->t == T::kFloat && coin(3)) {
      // int -> float promotion: `float y = 3;` prints 3.0.
      s->e = expr(T::kInt, 2);
      if (s->e->k == Ex::kCall) s->e = bin("+", s->e, lit_int(0));
    } else {
      s->e = expr(s->t, 2);
    }
    scopes_.back().push_back({s->name, s->t});
    return s;
  }

  StP print() {
    auto s = std::make_shared<St>();
    s->k = St::kPrintf;
    s->label = "L" + std::to_string(next_label_++);
    int n = 1 + static_cast<int>(pick(3));
    static const T kTypes[] = {T::kInt, T::kFloat, T::kStr, T::kBool};
    for (int k = 0; k < n; ++k) s->args.push_back(expr(kTypes[pick(4)], 2));
    return s;
  }

  StP if_stmt(int depth) {
    auto s = std::make_shared<St>();
    s->k = St::kIf;
    s->e = expr(T::kBool, 2);
    if (coin(3)) s->e = bin(">", call("lid", T::kInt, {expr(T::kInt, 1)}), lit_int(5));
    if (coin()) {
      // A variable each branch assigns once, read after the if.
      s->joined = "v" + std::to_string(next_var_++);
      s->then_value = expr(T::kInt, 1);
      s->else_value = expr(T::kInt, 1);
    }
    scopes_.emplace_back();
    s->body = block(1 + static_cast<int>(pick(2)), depth + 1);
    scopes_.back() = {};
    s->orelse = block(static_cast<int>(pick(2)), depth + 1);
    scopes_.pop_back();
    if (!s->joined.empty()) scopes_.back().push_back({s->joined, T::kInt});
    return s;
  }

  StP foreach(int depth) {
    auto s = std::make_shared<St>();
    s->k = St::kForeach;
    s->name = "i" + std::to_string(next_var_++);
    s->lo = lit_int(static_cast<int64_t>(pick(3)));
    s->hi = lit_int(static_cast<int64_t>(pick(4)));
    if (coin(3)) s->hi = call("lid", T::kInt, {s->hi});  // a future bound
    scopes_.emplace_back();
    scopes_.back().push_back({s->name, T::kInt});
    s->body = block(1 + static_cast<int>(pick(3)), depth + 1);
    scopes_.pop_back();
    return s;
  }

  std::vector<Var> visible(T t) const {
    std::vector<Var> out;
    for (const auto& scope : scopes_) {
      for (const auto& v : scope) {
        if (v.t == t) out.push_back(v);
      }
    }
    return out;
  }

  static ExP lit_int(int64_t v) {
    auto e = std::make_shared<Ex>();
    e->lit.t = T::kInt;
    e->lit.i = v;
    return e;
  }

  static ExP bin(const std::string& op, ExP a, ExP b) {
    auto e = std::make_shared<Ex>();
    e->k = Ex::kBin;
    e->op = op;
    e->a = {std::move(a), std::move(b)};
    return e;
  }

  static ExP call(const std::string& name, T t, std::vector<ExP> args) {
    auto e = std::make_shared<Ex>();
    e->k = Ex::kCall;
    e->t = t;
    e->name = name;
    e->a = std::move(args);
    return e;
  }

  ExP var_or_lit(T t) {
    std::vector<Var> vars = visible(t);
    if (!vars.empty() && coin()) {
      auto e = std::make_shared<Ex>();
      e->k = Ex::kVar;
      e->t = t;
      e->name = vars[pick(vars.size())].name;
      return e;
    }
    auto e = std::make_shared<Ex>();
    e->lit.t = t;
    switch (t) {
      case T::kInt: e->lit.i = static_cast<int64_t>(pick(31)); break;
      case T::kBool: e->lit.i = coin() ? 1 : 0; break;
      case T::kFloat: {
        static const double kFloats[] = {0.5, 1.25, 2.0, 3.75, 0.1, 0.2, 10.0};
        e->lit.f = kFloats[pick(7)];
        break;
      }
      case T::kStr: e->lit.s = strings()[pick(strings().size())]; break;
    }
    return e;
  }

  ExP expr(T t, int depth) {
    if (depth == 0 || coin(3)) return var_or_lit(t);
    switch (t) {
      case T::kInt: {
        switch (pick(8)) {
          case 0: return bin("+", expr(T::kInt, depth - 1), expr(T::kInt, depth - 1));
          case 1: return bin("-", expr(T::kInt, depth - 1), expr(T::kInt, depth - 1));
          case 2: return bin("*", expr(T::kInt, depth - 1), expr(T::kInt, depth - 1));
          case 3: {
            ExP d = lit_int(1 + static_cast<int64_t>(pick(9)));
            if (coin(4)) {
              auto neg = std::make_shared<Ex>();
              neg->k = Ex::kNeg;
              neg->a = {d};
              d = neg;
            }
            return bin(coin() ? "/" : "%", expr(T::kInt, depth - 1), d);
          }
          case 4: {
            auto e = std::make_shared<Ex>();
            e->k = Ex::kNeg;
            e->a = {expr(T::kInt, depth - 1)};
            return e;
          }
          case 5: return call("lid", T::kInt, {expr(T::kInt, depth - 1)});
          case 6: return call("twice", T::kInt, {expr(T::kInt, depth - 1)});
          default: {
            static const char* kInts[] = {"42", "-7", "0"};
            auto s = std::make_shared<Ex>();
            s->lit.t = T::kStr;
            s->lit.s = kInts[pick(3)];
            return call("toint", T::kInt, {s});
          }
        }
      }
      case T::kFloat: {
        switch (pick(5)) {
          case 0: return bin("+", expr(T::kFloat, depth - 1), expr(T::kInt, depth - 1));
          case 1: return bin("*", expr(T::kFloat, depth - 1), expr(T::kFloat, depth - 1));
          case 2: return bin("-", expr(T::kInt, depth - 1), expr(T::kFloat, depth - 1));
          case 3: return call("fid", T::kFloat, {expr(coin() ? T::kFloat : T::kInt, depth - 1)});
          default: {
            static const char* kFloatText[] = {"2.5", "-0.75", "3"};
            auto s = std::make_shared<Ex>();
            s->lit.t = T::kStr;
            s->lit.s = kFloatText[pick(3)];
            return call("tofloat", T::kFloat, {s});
          }
        }
      }
      case T::kStr: {
        switch (pick(5)) {
          case 0: return bin("+", expr(T::kStr, depth - 1), expr(T::kStr, depth - 1));
          case 1:
            return call("strcat", T::kStr,
                        {expr(T::kStr, depth - 1), expr(T::kInt, depth - 1),
                         expr(T::kFloat, depth - 1)});
          case 2: {
            auto fmt = std::make_shared<Ex>();
            fmt->lit.t = T::kStr;
            fmt->lit.s = "%d|%s";
            return call("sprintf", T::kStr,
                        {fmt, expr(T::kInt, depth - 1), expr(T::kStr, depth - 1)});
          }
          case 3: return call("sid", T::kStr, {expr(T::kStr, depth - 1)});
          default:
            return call("tostring", T::kStr, {expr(coin() ? T::kInt : T::kFloat, depth - 1)});
        }
      }
      case T::kBool: {
        static const char* kCmp[] = {"<", "<=", ">", ">=", "==", "!="};
        switch (pick(5)) {
          case 0:
          case 1: return bin(kCmp[pick(6)], expr(T::kInt, depth - 1), expr(T::kInt, depth - 1));
          case 2: return bin(coin() ? "==" : "!=", expr(T::kStr, depth - 1),
                             expr(T::kStr, depth - 1));
          case 3: return bin(coin() ? "&&" : "||", expr(T::kBool, depth - 1),
                             expr(T::kBool, depth - 1));
          default: {
            auto e = std::make_shared<Ex>();
            e->k = Ex::kNot;
            e->a = {expr(T::kBool, depth - 1)};
            return e;
          }
        }
      }
    }
    return var_or_lit(t);
  }

  void render_stmt(const St& s, std::ostringstream& out, const std::string& indent) {
    switch (s.k) {
      case St::kDecl:
        out << indent << type_word(s.t) << " " << s.name << " = " << render(*s.e) << ";\n";
        return;
      case St::kDeclLate:
        out << indent << type_word(s.t) << " " << s.name << ";\n";
        return;
      case St::kAssign:
        out << indent << s.name << " = " << render(*s.e) << ";\n";
        return;
      case St::kPrintf: {
        std::string fmt = s.label;
        for (const auto& a : s.args) fmt += a->t == T::kInt || a->t == T::kBool ? " %d" : " %s";
        out << indent << "printf(" << swift_string(fmt);
        for (const auto& a : s.args) out << ", " << render(*a);
        out << ");\n";
        return;
      }
      case St::kIf:
        if (!s.joined.empty()) out << indent << "int " << s.joined << ";\n";
        out << indent << "if (" << render(*s.e) << ") {\n";
        if (!s.joined.empty()) {
          out << indent << "  " << s.joined << " = " << render(*s.then_value) << ";\n";
        }
        for (const auto& b : s.body) render_stmt(*b, out, indent + "  ");
        out << indent << "} else {\n";
        if (!s.joined.empty()) {
          out << indent << "  " << s.joined << " = " << render(*s.else_value) << ";\n";
        }
        for (const auto& b : s.orelse) render_stmt(*b, out, indent + "  ");
        out << indent << "}\n";
        return;
      case St::kForeach:
        out << indent << "foreach " << s.name << " in [" << render(*s.lo) << ":" << render(*s.hi)
            << "] {\n";
        for (const auto& b : s.body) render_stmt(*b, out, indent + "  ");
        out << indent << "}\n";
        return;
    }
  }

  Rng rng_;
  std::vector<std::vector<Var>> scopes_;
  int next_var_ = 0;
  int next_label_ = 0;
};

// Runs a block in the reference semantics, appending printed lines.
void run_block(const std::vector<StP>& stmts, Env env, std::vector<std::string>& lines) {
  for (const auto& s : stmts) {
    switch (s->k) {
      case St::kDecl:
      case St::kDeclLate: {
        Val v = eval(*s->e, env);
        if (s->t == T::kFloat && v.t != T::kFloat) {
          v.f = static_cast<double>(v.i);
          v.t = T::kFloat;
        }
        v.t = s->t;
        env[s->name] = v;
        break;
      }
      case St::kAssign:
        break;
      case St::kPrintf: {
        std::string text = s->label;
        for (const auto& a : s->args) text += " " + show(eval(*a, env));
        std::istringstream split(text);
        for (std::string line; std::getline(split, line);) lines.push_back(line);
        break;
      }
      case St::kIf: {
        bool taken = eval(*s->e, env).i != 0;
        run_block(taken ? s->body : s->orelse, env, lines);
        if (!s->joined.empty()) {
          env[s->joined] = eval(taken ? *s->then_value : *s->else_value, env);
        }
        break;
      }
      case St::kForeach: {
        int64_t lo = eval(*s->lo, env).i, hi = eval(*s->hi, env).i;
        for (int64_t i = lo; i <= hi; ++i) {
          Env inner = env;
          inner[s->name] = Val{T::kInt, i, 0, {}};
          run_block(s->body, inner, lines);
        }
        break;
      }
    }
  }
}

class ValueDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueDifferential, ProgramsPrintWhatTheReferencePrints) {
  constexpr int kPrograms = 25;
  for (int round = 0; round < kPrograms; ++round) {
    Gen gen(GetParam() * 1000 + static_cast<uint64_t>(round));
    std::vector<StP> main;
    std::string source = gen.program(main);
    std::vector<std::string> expected;
    run_block(main, {}, expected);
    auto result = runtime::run_program(world(), compile(source));
    std::vector<std::string> lines = result.lines;
    std::sort(lines.begin(), lines.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(lines, expected) << source;
    EXPECT_EQ(result.unfired_rules, 0u) << source;
  }
}

// 8 seeds x 25 programs = 200 programs.
INSTANTIATE_TEST_SUITE_P(Seeds, ValueDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---- foreach captures ----
//
// A loop's splitter proc runs in one Tcl frame with the Swift variables
// the loop body captures, so no capture may be named like one of the
// splitter's own locals (range loops: lo hi step k; array loops: arr k v).
// Each name is captured by a plain loop and by a nested one, and the
// output is checked against the reference evaluator.

StP int_decl(const std::string& name, int64_t value) {
  auto s = std::make_shared<St>();
  s->k = St::kDecl;
  s->name = name;
  s->e = std::make_shared<Ex>();
  s->e->lit.i = value;
  return s;
}

StP int_print(const std::string& label, const std::vector<std::string>& vars) {
  auto s = std::make_shared<St>();
  s->k = St::kPrintf;
  s->label = label;
  for (const auto& v : vars) {
    auto e = std::make_shared<Ex>();
    e->k = Ex::kVar;
    e->name = v;
    s->args.push_back(e);
  }
  return s;
}

StP range_loop(const std::string& index, int64_t lo, int64_t hi, std::vector<StP> body) {
  auto s = std::make_shared<St>();
  s->k = St::kForeach;
  s->name = index;
  s->lo = int_decl("", lo)->e;
  s->hi = int_decl("", hi)->e;
  s->body = std::move(body);
  return s;
}

// Renders the statement kinds the capture programs use.
void render_capture_stmt(const St& s, std::ostringstream& out) {
  switch (s.k) {
    case St::kDecl:
      out << "int " << s.name << " = " << render(*s.e) << ";\n";
      return;
    case St::kPrintf: {
      std::string fmt = s.label;
      for (size_t i = 0; i < s.args.size(); ++i) fmt += " %d";
      out << "printf(" << swift_string(fmt);
      for (const auto& a : s.args) out << ", " << render(*a);
      out << ");\n";
      return;
    }
    case St::kForeach:
      out << "foreach " << s.name << " in [" << render(*s.lo) << ":" << render(*s.hi) << "] {\n";
      for (const auto& b : s.body) render_capture_stmt(*b, out);
      out << "}\n";
      return;
    default:
      FAIL() << "unsupported statement";
  }
}

TEST(ValueCaptures, CapturesNamedLikeSplitterLocalsKeepTheirValues) {
  for (const std::string name : {"lo", "hi", "step", "k", "arr", "v"}) {
    const std::vector<StP> main = {
        int_decl(name, 5),
        range_loop("i", 0, 3, {int_print("L", {"i", name})}),
        range_loop("i", 0, 1, {range_loop("j", 1, 2, {int_print("N", {"i", "j", name})})}),
    };
    std::ostringstream source;
    for (const auto& s : main) render_capture_stmt(*s, source);
    std::vector<std::string> expected;
    run_block(main, {}, expected);
    ASSERT_EQ(expected.size(), 8u);
    auto result = runtime::run_program(world(), compile(source.str()));
    std::vector<std::string> lines = result.lines;
    std::sort(lines.begin(), lines.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(lines, expected) << source.str();
  }
}

TEST(ValueCaptures, ArrayLoopCapturesNamedLikeSplitterLocalsKeepTheirValues) {
  auto result = runtime::run_program(world(), compile(R"(
    int arr = 7; int k = 8; int v = 9; int lo = 1;
    int A[]; A[0] = 10; A[1] = 20;
    foreach x, j in A {
      printf("j=%d x=%d arr=%d k=%d v=%d", j, x, arr, k, v);
      foreach i in [lo:2] { printf("j=%d i=%d k=%d", j, i, k); }
    }
  )"));
  std::vector<std::string> lines = result.lines;
  std::sort(lines.begin(), lines.end());
  const std::vector<std::string> expected = {
      "j=0 i=1 k=8", "j=0 i=2 k=8", "j=0 x=10 arr=7 k=8 v=9",
      "j=1 i=1 k=8", "j=1 i=2 k=8", "j=1 x=20 arr=7 k=8 v=9"};
  EXPECT_EQ(lines, expected) << result.output();
}

TEST(ValueLowering, PromotedFloatsPrintAsFloats) {
  auto result = runtime::run_program(world(), compile(R"(
    float y = 3;
    foreach i in [2:2] {
      float z = i;
      printf("%s %s", y, z);
    }
    trace(y);
  )"));
  EXPECT_TRUE(result.contains("3.0 2.0")) << result.output();
  EXPECT_TRUE(result.contains("trace: 3.0")) << result.output();
}

// ---- round-trip budgets ----

const char* kFig1 = R"(
  (int o) f (int i) [ "set <<o>> [ expr <<i>> * <<i>> ]" ];
  (int o) g (int t) [ "set <<o>> [ expr <<t>> % 3 ]" ];
  foreach i in [1000:1127] {
    int t = f(i);
    int gt = g(t);
    if (gt == 0) { printf("g(%d) == 0", t); }
  }
)";

TEST(ValueBudget, Fig1PipelineStaysWithinRoundTripBudget) {
  constexpr uint64_t kPipelines = 128;
  auto result = runtime::run_program(world(), compile(kFig1));
  size_t expected = 0;
  for (int64_t i = 1000; i < 1128; ++i) expected += (i * i) % 3 == 0 ? 1 : 0;
  EXPECT_EQ(result.lines.size(), expected);
  EXPECT_LE(result.server_stats.data_ops, 10 * kPipelines);
  EXPECT_LE(result.engine_stats.rules_created, 3 * kPipelines);
  EXPECT_EQ(result.unfired_rules, 0u);
}

// The engine registers rules write-behind and takes each rule input's
// value from its close notification, so the fig1 pipeline's rule bodies
// make (almost) no blocking data RPC on the engine: the `if` reads gt and
// the taken branch reads t from the datum cache.
TEST(ValueBudget, Fig1EngineMakesAlmostNoBlockingDataRpcs) {
  constexpr uint64_t kPipelines = 128;
  runtime::Config cfg = world();
  cfg.data_cache_mb = 64;
  auto result = runtime::run_program(cfg, compile(kFig1));
  EXPECT_EQ(result.unfired_rules, 0u);
  EXPECT_GT(result.engine_stats.subscribes, 0u);
  EXPECT_LE(result.engine_stats.sync_data_rpcs, kPipelines / 2);
  // The workers still read their inputs through the RPC (every g(t)).
  EXPECT_GE(result.pipeline_stats.sync_rpcs, result.engine_stats.sync_data_rpcs + kPipelines);
}

TEST(ValueBudget, AllLiteralProgramCreatesNoRulesAndNoData) {
  auto result = runtime::run_program(world(), compile(R"(printf("%d", 3 + 4 * 2);)"));
  ASSERT_EQ(result.lines.size(), 1u);
  EXPECT_EQ(result.lines[0], "11");
  EXPECT_EQ(result.engine_stats.rules_created, 0u);
  EXPECT_EQ(result.server_stats.data_ops, 0u);
}

std::string twice_written(int c) {
  return "int c = toint(\"" + std::to_string(c) +
         "\");\nint x = 1;\nif (c == 1) { x = 2; }\nprintf(\"x=%d\", x);\n";
}

TEST(ValueBudget, ScalarWrittenTwiceStaysAFuture) {
  // x has a second write on one path, so it keeps its datum ...
  EXPECT_NE(compile(twice_written(1)).find("swift:alloc integer x"), std::string::npos);
  auto result = runtime::run_program(world(), compile(twice_written(0)));
  EXPECT_TRUE(result.contains("x=1")) << result.output();
  // ... and the datum still refuses the second store.
  EXPECT_THROW(runtime::run_program(world(), compile(twice_written(1))), DataError);
}

// ---- error parity ----

const char* kDivideByZero = "int x = 7 / 0;\nprintf(\"%d\", x);\n";

TEST(ValueErrors, DivideByZeroFailsTheRunAsAScriptError) {
  try {
    runtime::run_program(world(), compile(kDivideByZero));
    FAIL() << "expected a script error";
  } catch (const tcl::TclError& e) {
    EXPECT_NE(std::string(e.what()).find("divide by zero"), std::string::npos) << e.what();
  }
}

TEST(ValueErrors, DivideByZeroFailsTheServeRequestAsAScriptError) {
  serve::ServeConfig cfg;
  cfg.runtime = world();
  serve::Service service(cfg);
  service.enter();
  serve::RequestResult r = service.submit(kDivideByZero).wait();
  service.shutdown();
  EXPECT_EQ(r.kind, turbine::RequestErrorKind::kScript);
  EXPECT_NE(r.error.find("divide by zero"), std::string::npos) << r.error;
}

TEST(ValueErrors, DivideByZeroExitsTheCliWithStatusOne) {
  const std::string path = ::testing::TempDir() + "/divide_by_zero.swift";
  std::ofstream(path) << kDivideByZero;
  int status = std::system((std::string(ILPS_CLI) + " " + path + " 2>/dev/null").c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

}  // namespace
}  // namespace ilps::swift
