// MiniTcl — an embeddable Tcl-subset interpreter.
//
// MiniTcl plays the role CPython's Tcl plays in Swift/T: it is the target
// representation of the Swift compiler (STC emits MiniTcl "Turbine code"),
// the glue through which native code is reached (BindGen registers C++
// commands), and a leaf-task language in its own right. The properties the
// paper needs from Tcl hold here too: programs are plain text that can be
// shipped through ADLB and evaluated on any rank, and C/C++ functions are
// registered as commands with a small API (mirroring Tcl_CreateObjCommand).
//
// Supported language: command/word parsing with {braces}, "quotes",
// [command substitution], $var and ${var} and $arr(elem) substitution,
// backslash escapes, {*} expansion, comments; procs with defaults and
// `args`; upvar/uplevel/global; arrays; dicts (list representation); the
// expr sublanguage; ~70 built-in commands (see builtins_*.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "tcl/value.h"

namespace ilps::tcl {

class Interp;
struct CompiledUnit;
struct CompiledCommand;
struct CompiledWord;
struct CompiledPart;
struct ExprIr;

// A command implementation. args[0] is the command name, as in Tcl.
using CommandFn = std::function<std::string(Interp&, std::vector<std::string>&)>;

// (TclError lives in tcl/value.h so the value layer can throw it too.)

// Non-error control flow, caught by loops / proc calls / catch.
struct BreakSignal {};
struct ContinueSignal {};
struct ReturnSignal {
  std::string value;
};

// Result codes reported by `catch`, matching Tcl's numbering.
enum : int { kTclOk = 0, kTclErrorCode = 1, kTclReturn = 2, kTclBreak = 3, kTclContinue = 4 };

class Interp {
 public:
  Interp();
  ~Interp();

  Interp(const Interp&) = delete;
  Interp& operator=(const Interp&) = delete;

  // Evaluates a script in the current frame and returns the result of the
  // last command. Throws TclError (and lets Break/Continue/Return signals
  // escape, as Tcl does for a top-level break).
  std::string eval(std::string_view script);

  // Performs $-, bracket- and backslash-substitution on `text` without
  // treating it as a command (Tcl's `subst`).
  std::string subst(std::string_view text);

  // Evaluates the expr sublanguage.
  std::string expr(std::string_view expression);
  bool expr_bool(std::string_view expression);

  // ---- Commands ----
  void register_command(const std::string& name, CommandFn fn);
  bool has_command(const std::string& name) const;
  void remove_command(const std::string& name);
  std::vector<std::string> command_names() const;
  // Invokes a command with already-substituted words.
  std::string invoke(std::vector<std::string>& words);

  // ---- Variables ----
  // Names may be plain ("x"), or array references ("a(elem)").
  void set_var(const std::string& name, std::string value);
  std::string get_var(const std::string& name);  // throws TclError if unset
  std::optional<std::string> get_var_opt(const std::string& name);
  bool var_exists(const std::string& name);
  bool unset_var(const std::string& name);  // true if it existed
  // Links `local_name` in the current frame to `other_name` in the frame
  // `levels_up` frames up the call chain (upvar). levels_up == -1 means the
  // global frame.
  void link_var(int levels_up, const std::string& other_name, const std::string& local_name);

  // ---- Arrays (for the `array` command) ----
  bool array_exists(const std::string& name);
  std::vector<std::pair<std::string, std::string>> array_entries(const std::string& name);
  void array_set_entries(const std::string& name,
                         const std::vector<std::pair<std::string, std::string>>& entries);

  // ---- Frames ----
  // Current logical call depth (0 at global scope).
  int frame_level() const;
  // Names of scalar/array variables visible in the current frame.
  std::vector<std::string> var_names() const;
  // Evaluates `script` with the frame `levels_up` up the chain active
  // (uplevel). levels_up == -1 means global.
  std::string eval_up(int levels_up, std::string_view script);

  // ---- Procs ----
  struct ProcInfo {
    std::vector<std::pair<std::string, std::optional<std::string>>> params;
    std::string body;
  };
  void define_proc(const std::string& name, ProcInfo proc);
  const ProcInfo* find_proc(const std::string& name) const;
  std::vector<std::string> proc_names() const;

  // ---- Packages ----
  // `package provide` / `package ifneeded` registry.
  void package_provide(const std::string& name, const std::string& version);
  void package_ifneeded(const std::string& name, const std::string& version,
                        const std::string& script);
  // Returns the provided version, running the ifneeded script or the
  // package-unknown handler if necessary. Throws TclError if unavailable.
  std::string package_require(const std::string& name);
  std::optional<std::string> package_provided(const std::string& name) const;
  std::vector<std::string> package_names() const;
  // Called when a required package has no ifneeded script. The handler
  // should locate and evaluate the package's index/load scripts (the pkg
  // module installs one that searches an ILPS_TCLLIBPATH-style path).
  using PackageUnknownFn = std::function<bool(Interp&, const std::string& name)>;
  void set_package_unknown(PackageUnknownFn fn);

  // ---- source ----
  // Resolver mapping a path to script text. The default reads the real
  // filesystem; the pkg module installs resolvers backed by the PFS model
  // or a static package image.
  using SourceResolver = std::function<std::optional<std::string>(const std::string& path)>;
  void set_source_resolver(SourceResolver fn);
  const SourceResolver& source_resolver() const { return source_resolver_; }

  // ---- Output ----
  // `puts` sink; defaults to stdout. Tests capture output here.
  using PutsFn = std::function<void(std::string_view text, bool newline)>;
  void set_puts_handler(PutsFn fn);
  void do_puts(std::string_view text, bool newline);

  // ---- Compiled execution (the bytecode layer; see docs/interp.md) ----
  // Compilation is a pure rank-local cache: only source text ever crosses
  // ranks. compile() builds a unit of pre-resolved command/argument thunks;
  // exec() runs one with observable behavior identical to eval() of the
  // unit's source (results, errors, commands_evaluated deltas). Constructs
  // the compiler cannot prove equivalent become the unit's raw-source
  // `tail`, which exec hands back to eval() — the general path stays
  // authoritative.
  struct CompileStats {
    uint64_t hits = 0;      // cached-unit reuses (proc bodies, action cache)
    uint64_t misses = 0;    // units compiled
    uint64_t bailouts = 0;  // raw-source tail evaluations at exec time

    static constexpr StatField<CompileStats> kFields[] = {
        {"tcl.compile_hits", &CompileStats::hits},
        {"tcl.compile_misses", &CompileStats::misses},
        {"tcl.compile_bailouts", &CompileStats::bailouts},
    };
    CompileStats& operator+=(const CompileStats& o) { return add_stats(*this, o); }
  };
  // Defaults to on; ILPS_TCL_COMPILE=0 in the environment restores the
  // pure-interpreter path bit-for-bit.
  bool compile_enabled() const { return compile_enabled_; }
  void set_compile_enabled(bool on) { compile_enabled_ = on; }
  CompileStats& compile_stats() { return compile_stats_; }
  const CompileStats& compile_stats() const { return compile_stats_; }
  // Never throws on malformed source (parse errors surface at exec time,
  // exactly where eval() would raise them). Counts one compile miss.
  std::shared_ptr<const CompiledUnit> compile(std::string_view source);
  // Executes a unit in the current frame. Throws like eval().
  std::string exec(const CompiledUnit& unit);

  // ---- Introspection / instrumentation ----
  uint64_t commands_evaluated() const { return commands_evaluated_; }
  Rng& rng() { return rng_; }

 private:
  friend class ExprParser;
  friend class ExprIrEval;  // compiled-expression evaluator (expr.cc)
  struct Frame;
  struct Var;
  class VarStore;

  // A proc's definition, shared so an in-flight body survives
  // redefinition/removal of the proc and so the lazily compiled body is
  // dropped naturally when the proc is redefined.
  struct ProcData {
    ProcInfo info;
    std::shared_ptr<const CompiledUnit> compiled;  // built on first call
  };

  // Cached resolution of an interned command name, valid while the epoch
  // matches (register_command / remove_command / define_proc bump it).
  struct ResolveEntry {
    uint64_t epoch = 0;  // 0 = never resolved; live epochs start at 1
    enum class Kind : uint8_t { kBuiltin, kProc, kMissing } kind = Kind::kMissing;
    const CommandFn* fn = nullptr;
    const std::shared_ptr<ProcData>* proc = nullptr;
  };

  // Core script evaluator: parses and runs commands in s starting at i;
  // stops at end of input or at an unescaped `terminator` (']' for command
  // substitution), consuming it.
  std::string eval_until(std::string_view s, size_t& i, char terminator);

  // Word parsing helpers (see interp.cc).
  std::string parse_dollar(std::string_view s, size_t& i);
  std::string parse_bracket(std::string_view s, size_t& i);

  // Variable plumbing.
  // Reads a variable straight into a classified Value without the
  // intermediate string copy (the compiled-expression $var fast path).
  Value read_var_value(const std::string& name);
  Var* lookup(const std::string& base, bool create);
  static std::pair<std::string, std::optional<std::string>> split_name(const std::string& name);
  size_t frame_up(int levels_up) const;

  void push_frame();
  void pop_frame();
  std::string call_proc(const std::string& name, ProcData& proc, std::vector<std::string>& words);

  // Compiled-unit executor (compile.cc).
  std::string exec_body(const CompiledUnit& unit);
  std::string exec_command(const CompiledCommand& cmd, bool* invoked);
  std::string exec_generic(const CompiledCommand& cmd, bool* invoked);
  std::string exec_expr_template(const CompiledCommand& cmd);
  bool exec_cond(const ExprIr& ir);
  std::string exec_part(const CompiledPart& part);
  std::string word_value(const CompiledWord& word);
  void append_word(const CompiledWord& word, std::vector<std::string>& out);
  const ResolveEntry& resolve_symbol(uint32_t sym);
  void note_mutation(const std::string& name);

  std::vector<std::unique_ptr<Frame>> frames_;
  size_t active_ = 0;
  std::map<std::string, CommandFn> commands_;
  std::map<std::string, std::shared_ptr<ProcData>> procs_;
  std::map<std::string, std::string> provided_;
  std::map<std::string, std::pair<std::string, std::string>> ifneeded_;  // name -> (version, script)
  PackageUnknownFn package_unknown_;
  SourceResolver source_resolver_;
  PutsFn puts_;
  uint64_t commands_evaluated_ = 0;
  int depth_ = 0;
  Rng rng_{0x1234567};

  // Bytecode-layer state.
  bool compile_enabled_ = true;
  bool specials_retouched_ = false;  // a specialized builtin was re-registered
  uint64_t mutation_epoch_ = 1;      // bumped on any command/proc mutation
  CompileStats compile_stats_;
  SymbolTable symbols_;
  std::vector<ResolveEntry> resolve_cache_;  // indexed by symbol id
};

// Registers the built-in command set into an interp; called by the
// constructor. Split across builtins_*.cc by topic.
void register_core_builtins(Interp& interp);
void register_list_builtins(Interp& interp);
void register_string_builtins(Interp& interp);
void register_misc_builtins(Interp& interp);

// Argument-count helper for command implementations: throws the standard
// Tcl usage error unless min <= args.size()-1 <= max (max < 0 = unbounded).
void check_arity(const std::vector<std::string>& args, int min, int max, const char* usage);

}  // namespace ilps::tcl
