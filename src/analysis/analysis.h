// swift-verify: static dataflow verification over the Swift AST.
//
// Runs between parse and compile (and standalone via `ilps --lint`). The
// execution model makes these properties statically checkable (Armstrong
// et al., "Compiler Techniques for Massively Scalable Implicit Task
// Parallelism"): every variable is a single-assignment future, so a
// def/use graph over the AST predicts deadlocks before any rank spins up.
//
// Diagnostics (docs/analysis.md):
//   - unassigned-read  (error):   a future read on some path but assigned
//                                 on none — every rule waiting on it is a
//                                 guaranteed deadlock.
//   - double-write     (error):   a future assigned more than once on
//                                 every path — a guaranteed write-once
//                                 violation (runtime double-store).
//   - wait-cycle       (error):   statements in one block that wait on
//                                 each other's outputs (SCC over the
//                                 block's dependency graph).
//   - maybe-double-write (warning): assigned more than once on some path.
//   - unused-value     (warning): a variable never read, or a leaf task
//                                 whose every output is discarded.
//
// The analysis is sound for acceptance: it never reports an *error* for a
// program the runtime completes. `foreach` bodies may run zero times and
// `if` branches are merged min/max, so conditional writes count toward
// "may be assigned" but never toward "definitely assigned"; container
// (array) dataflow goes through deferred write-refcounts the analysis
// cannot bound, so arrays are excluded from the error classes and only
// produce warnings. Whatever slips through is caught at run time by the
// engine's stuck-future report (see turbine::Engine::stuck_report).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "swift/ast.h"

namespace ilps::analysis {

enum class Severity { kError, kWarning };

enum class DiagKind {
  kUnassignedRead,    // read but never assigned on any path
  kDoubleWrite,       // definitely assigned more than once
  kMaybeDoubleWrite,  // assigned more than once on some path
  kWaitCycle,         // statements wait on each other's outputs
  kUnusedValue,       // assignment or leaf result never consumed
};

struct Diagnostic {
  Severity severity = Severity::kError;
  DiagKind kind = DiagKind::kUnassignedRead;
  int line = 0;          // primary source line
  std::string var;       // offending variable, if there is one
  std::string message;   // human-readable, includes line references
};

struct Report {
  std::vector<Diagnostic> diagnostics;  // sorted by line

  // Scalar declarations whose initializer is their only write, on every
  // path, in main and every composite body. The compiler's value pass
  // may keep these engine-local (see swift/compiler.h).
  std::set<const swift::Stmt*> single_write;

  bool has_errors() const;
  size_t error_count() const;

  // Every diagnostic, one per line, prefixed "error: " / "warning: ".
  std::string to_string() const;
  // The errors alone, formatted for a thrown SwiftError.
  std::string error_summary() const;
};

// Analyzes a parsed program: main statements plus every function body,
// interprocedural through composite calls. Never throws on analyzable
// input; malformed constructs (undefined variables, type errors) are left
// for the compiler to report and simply skipped here.
Report analyze(const swift::Program& program);

}  // namespace ilps::analysis
