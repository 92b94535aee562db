// STC — the Swift-to-Turbine compiler.
//
// Translates Swift source into a MiniTcl program for runtime::run_program:
// a fixed runtime prelude (swift:* helper procs), one `u:<name>` proc per
// user function, numbered helper procs for loop bodies and if branches,
// and a `proc swift:main` holding the top-level statements.
//
// The compilation model matches the paper's description of Swift/T, with
// STC's value pass (Armstrong et al., SC 2014): every expression compiles
// to a *value* (a Tcl word the engine already holds) or a *future* (a
// Turbine datum id). Literals, foreach indices, and scalars whose
// declaration initializer is their only write (analysis::Report::
// single_write) are values when every input is; such a variable is a Tcl
// local of the same name. Other variables are futures, held by id in a
// Tcl variable of the same name. A tree of builtin operators compiles to
// ONE rule that waits on the tree's unclosed future leaves and computes
// the whole tree in its body (no rule at all when there are none); the
// compiler tracks which futures a rule's inputs imply closed, so code
// that runs after them reads those directly. Leaf calls become WORK rules
// whose action carries value arguments as words and retrieves future
// ones on the worker, then runs the user's Tcl template / Python / R /
// shell fragment and stores outputs. A value becomes a datum only where a
// future is required: composite-call arguments, array keys and elements.
// `foreach` splits into control tasks shipped through ADLB so loop bodies
// spread over engines; `if` on a future becomes a control task released
// by the condition's inputs.
#pragma once

#include <string>

#include "swift/ast.h"

namespace ilps::swift {

// Compiles Swift source to a runnable Turbine program. Throws SwiftError
// on syntax or type errors.
std::string compile(const std::string& source);

// Same, but prefixes every generated proc name (`u:<fn>`, `swift:main`,
// numbered loop/if helpers) with `proc_ns` so several compiled programs
// can coexist in one resident interpreter (src/serve compile-once cache).
// The entry proc becomes `<proc_ns>swift:main`; the shared runtime
// prelude stays unprefixed. An empty `proc_ns` is the plain compile.
std::string compile(const std::string& source, const std::string& proc_ns);

// The fixed runtime-support prelude included in every compiled program.
const std::string& runtime_prelude();

}  // namespace ilps::swift
