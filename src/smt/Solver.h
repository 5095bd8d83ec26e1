//===- smt/Solver.h - Solver interface for race queries ---------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver abstraction the detectors program against. Two backends:
///
///  * createIdlSolver() — the in-tree CDCL(T) solver (Sat.h + DiffLogic.h),
///    always available; the default.
///  * createZ3Solver()  — Z3 via its C++ API, mirroring the paper's use of
///    Z3/Yices with Integer Difference Logic; available when the build
///    found Z3 (returns nullptr otherwise). Used for cross-validation.
///
/// A successful solve returns a model assigning each order variable an
/// integer position; sorting events by position yields the reordered trace
/// that witnesses the race (Theorem 3's construction).
///
/// The solvers count nothing themselves: each call hands back what it did
/// as a SolveWork record, and the window driver folds the records of a run
/// into its DetectionStats, the run's one emission
/// (docs/OBSERVABILITY.md).
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SMT_SOLVER_H
#define RVP_SMT_SOLVER_H

#include "smt/Formula.h"
#include "smt/Sat.h"
#include "support/Timer.h"

#include <memory>
#include <unordered_map>

namespace rvp {

/// Maps order variables to integer positions; only variables occurring in
/// the solved formula are present.
using OrderModel = std::unordered_map<OrderVar, int64_t>;

/// The work of solver calls: one call's as a backend returns it, or the
/// sum of many.
struct SolveWork {
  /// In-tree CDCL(T) searches, and the ones that were session queries.
  uint64_t Searches = 0, SessionSearches = 0;
  /// The searches' own counters (the SatSolver resets them per search).
  uint64_t Decisions = 0, Propagations = 0, Conflicts = 0, Restarts = 0;
  /// Session queries refuted at the assumption level.
  uint64_t AssumptionConflicts = 0;
  /// Session queries, and one-shot Z3 solves.
  uint64_t SessionQueries = 0, Z3Calls = 0;

  SolveWork &operator+=(const SolveWork &Other);
  /// Records \p Sat's last search as this call's one search.
  void recordSearch(const SatSolver &Sat, bool InSession);
};

class SmtSolver {
public:
  virtual ~SmtSolver();

  /// Decides satisfiability of \p Root (built in \p FB). On Sat, fills
  /// \p ModelOut (if non-null). Returns Unknown when \p Limit expires
  /// first — the per-COP budget of Section 4. \p Work (if non-null)
  /// receives this call's work.
  virtual SatResult solve(const FormulaBuilder &FB, NodeRef Root,
                          Deadline Limit, OrderModel *ModelOut,
                          SolveWork *Work = nullptr) = 0;

  virtual const char *name() const = 0;
};

/// The in-tree CDCL + order-theory solver.
std::unique_ptr<SmtSolver> createIdlSolver();

/// The Z3 backend; nullptr when the build has no Z3.
std::unique_ptr<SmtSolver> createZ3Solver();

/// Names a backend: "idl" or "z3". Returns nullptr for unknown/unavailable.
std::unique_ptr<SmtSolver> createSolverByName(const std::string &Name);

/// An incremental solving session: one persistent solver whose clause
/// database, learned clauses, variable activities, and theory state
/// survive across queries (MiniSat-style assumption solving; the Z3
/// backend mirrors it with check_sat_assuming). The detectors open one
/// session per window (per worker) and decide every surviving COP through
/// it; see docs/INCREMENTAL_SOLVING.md.
///
/// Every call must pass the SAME FormulaBuilder: the session caches the
/// encoding by node reference, so the builder's hash-consing is what makes
/// subformulas shared across queries encode only once.
class SmtSession {
public:
  virtual ~SmtSession();

  /// Decides \p Root under a fresh selector literal s (adds s -> Root,
  /// solves under assumption s, retires s afterwards), so every clause
  /// learned while answering is implied by the session's definitional
  /// clauses alone and transfers to later queries. \p Limit is this
  /// query's own budget — callers construct a fresh Deadline per COP
  /// (Section 4). On Sat, \p ModelOut (if non-null) receives order
  /// positions; note they depend on session history, unlike the one-shot
  /// solver's (the detectors solve witnesses one-shot for byte-identical
  /// reports). \p Work (if non-null) receives this query's work.
  virtual SatResult query(const FormulaBuilder &FB, NodeRef Root,
                          Deadline Limit, OrderModel *ModelOut,
                          SolveWork *Work = nullptr) = 0;

  /// True once the session detected internal corruption — a failed
  /// clause-database allocation, a backend exception, or an injected
  /// `session.corrupt` fault. A poisoned session only ever answers
  /// Unknown; callers should quarantine it and rebuild or fall back to
  /// one-shot solving (src/detect/Resilience.h implements that policy).
  virtual bool poisoned() const = 0;

  virtual const char *name() const = 0;
};

/// An incremental session on the in-tree CDCL(T) solver.
std::unique_ptr<SmtSession> createIdlSession();

/// An incremental session on Z3; nullptr when the build has no Z3.
std::unique_ptr<SmtSession> createZ3Session();

/// Names a backend: "idl" or "z3". Returns nullptr for unknown/unavailable.
std::unique_ptr<SmtSession> createSessionByName(const std::string &Name);

/// True when the build carries the Z3 backend (compile-time fact; the
/// `z3.unavailable` fault site can still make the factories fail at
/// runtime to exercise the z3 -> idl fallback).
bool z3Available();

} // namespace rvp

#endif // RVP_SMT_SOLVER_H
