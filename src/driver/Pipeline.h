//===- driver/Pipeline.h - One monitor compilation, front to back -*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place a monitor source becomes Σ and an artifact: parse → sema
/// → solver rig → placement → emit. The CLI, `cache warm`, expressod, the
/// expresso-diff fuzz rig and the bench harness all compile through a
/// Compilation and keep only their own policy around its two steps (two,
/// because the daemon leases its job budget between them).
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_DRIVER_PIPELINE_H
#define EXPRESSO_DRIVER_PIPELINE_H

#include "codegen/Codegen.h"
#include "solver/SolverRig.h"
#include "support/Diagnostics.h"

#include <functional>

namespace expresso {
namespace obs {
class Tracer;
}
namespace driver {

/// The persistent store for a backend profile, or null (memo-only). Called
/// only for an available backend: an unbuildable one never opens a store.
using StoreOpener =
    std::function<std::shared_ptr<persist::QueryStore>(const std::string &)>;

enum class PlaceStatus { Ok, SolverUnavailable, Cancelled };

/// One monitor's compilation. Every step records its spans on the tracer
/// given at construction (null disables).
class Compilation {
public:
  explicit Compilation(obs::Tracer *Trace = nullptr) : Trace(Trace) {}

  /// Parses and checks \p Source. False, with the errors in diagnostics(),
  /// when either fails; parsed() says which.
  bool frontend(const std::string &Source);
  std::string diagnostics() const { return Diags.str(); }
  bool parsed() const { return M != nullptr; }

  /// Builds the solver rig of \p Kind, with the store from \p OpenStore
  /// behind the memo unless its profile names another backend, and runs
  /// placement with per-worker backends of the same kind. Cancelled leaves
  /// a partial result(). Requires a successful frontend().
  PlaceStatus place(solver::SolverKind Kind, core::PlacementOptions Opts,
                    const StoreOpener &OpenStore = nullptr);

  /// The \p Kind artifact of a completed place().
  std::string emit(codegen::EmitKind Kind) const;

  solver::SolverRig &rig() { return Rig; }
  const core::PlacementResult &result() const { return Result; }

private:
  obs::Tracer *Trace;
  DiagnosticEngine Diags;
  logic::TermContext C;
  std::unique_ptr<frontend::Monitor> M;
  std::unique_ptr<frontend::SemaInfo> Sema;
  solver::SolverRig Rig;
  core::PlacementResult Result;
};

/// A --jobs value: a positive count, or "auto" for one per core; 0 when
/// invalid.
unsigned parseJobs(const char *Value);

/// Parses Argv[I] if it is a placement flag of the CLI and the benches
/// (--no-invariant, --no-commutativity, --no-lazy-broadcast, --no-cache,
/// --incremental[=]on|off, --jobs[=]N|auto); false otherwise. A bad value
/// leaves \p Opts alone and sets \p Error.
bool parsePlacementFlag(int Argc, char **Argv, int &I,
                        core::PlacementOptions &Opts, std::string &Error);

} // namespace driver
} // namespace expresso

#endif // EXPRESSO_DRIVER_PIPELINE_H
