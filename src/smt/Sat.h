//===- smt/Sat.h - CDCL SAT solver with theory hook -------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver: two-watched-literal
/// propagation, VSIDS branching with phase saving, 1UIP clause learning,
/// and Luby restarts. A Theory client can veto assignments (DPLL(T) with
/// lazy explanation); the difference-logic theory in DiffLogic.h plugs in
/// here to form the integer-difference-logic solver the paper's encoding
/// needs.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SMT_SAT_H
#define RVP_SMT_SAT_H

#include "support/MemStats.h"
#include "support/Timer.h"

#include <cstdint>
#include <vector>

namespace rvp {

using Var = uint32_t;

/// A literal in MiniSat encoding: 2*var + (negated ? 1 : 0).
struct Lit {
  uint32_t X = UINT32_MAX;

  static Lit pos(Var V) { return {2 * V}; }
  static Lit neg(Var V) { return {2 * V + 1}; }

  Var var() const { return X >> 1; }
  bool sign() const { return X & 1; } ///< true iff negated
  Lit operator~() const { return {X ^ 1}; }
  bool operator==(const Lit &O) const { return X == O.X; }
  bool operator!=(const Lit &O) const { return X != O.X; }
  bool valid() const { return X != UINT32_MAX; }
};

enum class SatResult { Sat, Unsat, Unknown };

/// Theory client interface. The solver streams literal assignments in
/// trail order; the theory may reject one by returning false and filling
/// \p Conflict with a clause that is false under the current assignment
/// (the negation of an inconsistent subset of asserted literals, including
/// the literal being asserted).
class Theory {
public:
  virtual ~Theory();

  /// Called for every literal the solver assigns (in trail order).
  /// Returning false signals a theory conflict.
  virtual bool assertLit(Lit L, std::vector<Lit> &Conflict) = 0;

  /// Called for every literal the solver unassigns, in reverse trail
  /// order; exactly matches previous successful assertLit calls.
  virtual void undoLit(Lit L) = 0;
};

/// The CDCL solver. Usage: newVar() / addClause() any number of times,
/// then solve(). After a Sat answer the assignment (and the theory state
/// behind it) stays live for model queries; call backtrackToRoot() before
/// adding more clauses, or let the next solve() reset implicitly.
class SatSolver {
public:
  explicit SatSolver(Theory *TheoryClient = nullptr)
      : TheoryClient(TheoryClient) {}

  Var newVar();
  uint32_t numVars() const { return static_cast<uint32_t>(Assigns.size()); }

  /// Adds a clause; returns false if the solver is already unsatisfiable.
  bool addClause(std::vector<Lit> Lits);

  /// Decides satisfiability; Deadline limits wall-clock time (Unknown on
  /// expiry — the paper gives each COP a fixed budget, Section 4).
  SatResult solve(Deadline Limit = Deadline());

  /// MiniSat-style incremental query: decides satisfiability under the
  /// conjunction of \p Assumed, planted as pseudo-decisions before any
  /// real branching. The clause database — original and learned clauses,
  /// activities, saved phases — persists across calls, so a sequence of
  /// related queries shares all derived lemmas (every learned clause is
  /// implied by the database alone, never by the assumptions, which enter
  /// learned clauses only in negated guard position).
  ///
  /// An Unsat answer caused by the assumptions does NOT poison the solver:
  /// failedAssumptions() then names an inconsistent subset and later calls
  /// (with other assumptions, or none) still work. Only a conflict at
  /// decision level 0 — independent of any assumption — makes the solver
  /// permanently unsatisfiable.
  ///
  /// With a decision \p Scope the search branches only on the listed
  /// variables and answers Sat once all of them are assigned; any other
  /// variable gets a value only by propagation. Contract: this is sound
  /// only when every clause outside the scope is a positive-polarity
  /// definition (a gate implies a function of its children), a retired
  /// guard (satisfied at level 0), or a lemma implied by them, and the
  /// theory extends any consistent partial assignment (an acyclic order
  /// has a linear extension). Then a conflict-free assignment of the scope
  /// extends to a full model (docs/INCREMENTAL_SOLVING.md). Without a
  /// scope every variable is decided.
  SatResult solve(const std::vector<Lit> &Assumed,
                  Deadline Limit = Deadline(),
                  const std::vector<Var> *Scope = nullptr);

  /// After solve(assumptions) returned Unsat because of the assumptions,
  /// an inconsistent subset of them (the final conflict, including the
  /// assumption that failed); empty when the clause database itself is
  /// unsatisfiable.
  const std::vector<Lit> &failedAssumptions() const { return FinalConflict; }

  /// Model access: reads the live assignment, so only meaningful after
  /// solve() returned Sat and before the next backtrackToRoot(). A
  /// variable outside a scoped solve's scope may read false unassigned.
  bool modelValue(Var V) const { return Assigns[V] == 1; }

  /// Undoes all decisions (required before addClause() after a solve()).
  void backtrackToRoot() { backtrack(0); }

  // Statistics (reset by solve()).
  uint64_t numConflicts() const { return Conflicts; }
  uint64_t numDecisions() const { return Decisions; }
  uint64_t numPropagations() const { return Propagations; }
  uint64_t numRestarts() const { return Restarts; }
  /// Queries of this solve() refuted by the planted assumptions.
  uint64_t numAssumptionConflicts() const { return AssumptionConflicts; }
  /// Learned clauses currently retained in the database; persists across
  /// solve() calls (reduceDb drops the least active half when large).
  uint64_t numLearnedClauses() const;

  /// True once a clause-database allocation failed (today only via the
  /// `satdb.alloc` fault site; a real bad_alloc would land here too). The
  /// solver is sick, not unsat: solve() answers Unknown so callers take
  /// their degradation path instead of trusting a truncated database.
  bool allocFailed() const { return AllocFailed; }

private:
  using ClauseRef = uint32_t;
  static constexpr ClauseRef NoReason = UINT32_MAX;
  /// Sentinel reason for the "theory conflict clause" path.
  static constexpr ClauseRef TheoryLocked = UINT32_MAX - 1;

  struct Clause {
    std::vector<Lit> Lits;
    bool Learned = false;
    double Activity = 0;
  };

  struct Watcher {
    ClauseRef Ref;
    Lit Blocker;
  };

  // Assignment state. Value: 0 = false, 1 = true, 2 = unassigned.
  static constexpr uint8_t ValueUnassigned = 2;
  uint8_t litValue(Lit L) const {
    uint8_t V = Assigns[L.var()];
    return V == ValueUnassigned ? ValueUnassigned : V ^ (L.sign() ? 1 : 0);
  }

  bool enqueue(Lit L, ClauseRef Reason);
  ClauseRef propagate();
  void analyze(ClauseRef ConflictRef, const std::vector<Lit> &TheoryConflict,
               std::vector<Lit> &Learned, uint32_t &BacktrackLevel);
  /// Fills FinalConflict with the subset of planted assumptions whose
  /// conjunction the clause database refutes; \p FailedAssumption is the
  /// one found false when it was about to be planted.
  void analyzeFinal(Lit FailedAssumption);
  void backtrack(uint32_t Level);
  bool inScope(Var V) const { return !Scoped || ScopeStamp[V] == ScopeEpoch; }
  /// Puts \p V back into the branching heap if the search may decide it.
  void requeue(Var V) {
    if (HeapPos[V] == UINT32_MAX && Assigns[V] == ValueUnassigned)
      heapInsert(V);
  }
  Lit pickBranchLit();
  void bumpVar(Var V);
  void bumpClause(Clause &C);
  void decayActivities();
  void reduceDb();
  ClauseRef attachClause(std::vector<Lit> Lits, bool Learned);
  uint32_t level(Var V) const { return Levels[V]; }
  uint32_t currentLevel() const {
    return static_cast<uint32_t>(TrailLimits.size());
  }

  // Heap operations for VSIDS.
  void heapInsert(Var V);
  void heapUp(uint32_t Pos);
  void heapDown(uint32_t Pos);
  Var heapPop();
  bool heapEmpty() const { return Heap.empty(); }

  Theory *TheoryClient;

  /// mem.clauses_* accounting of the clause database; charged per attached
  /// clause, discharged when reduceDb() compacts (support/MemStats.h).
  MemCharge Mem{MemPool::Clauses};

  std::vector<Clause> Clauses;
  std::vector<std::vector<Watcher>> Watches; // indexed by Lit.X
  std::vector<uint8_t> Assigns;              // per var
  std::vector<uint8_t> Phase;                // saved phases
  std::vector<uint32_t> Levels;              // per var
  std::vector<ClauseRef> Reasons;            // per var
  std::vector<Lit> Trail;
  std::vector<uint32_t> TrailLimits;
  uint32_t PropagateHead = 0;
  uint32_t TheoryHead = 0; ///< trail prefix already pushed to the theory

  std::vector<double> Activity;
  std::vector<uint32_t> HeapPos; // UINT32_MAX if not in heap
  std::vector<Var> Heap;
  double VarInc = 1.0;
  double ClauseInc = 1.0;

  /// The decision scope of the solve() in progress: a variable is in it
  /// when its stamp equals ScopeEpoch, or always when !Scoped.
  std::vector<uint32_t> ScopeStamp;
  uint32_t ScopeEpoch = 0;
  bool Scoped = false;

  bool Unsatisfiable = false;
  bool AllocFailed = false;

  /// Assumption literals of the solve() in progress, planted in order as
  /// pseudo-decisions at levels 1..Assumptions.size().
  std::vector<Lit> Assumptions;
  /// The failed assumption subset of the last Unsat-under-assumptions.
  std::vector<Lit> FinalConflict;

  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t AssumptionConflicts = 0;

  // Scratch buffers for analyze().
  std::vector<uint8_t> Seen;
};

} // namespace rvp

#endif // RVP_SMT_SAT_H
