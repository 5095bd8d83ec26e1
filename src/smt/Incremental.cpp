//===- smt/Incremental.cpp - Incremental CDCL(T) session ------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The assumption-based incremental solving path (docs/INCREMENTAL_SOLVING
/// .md): one SatSolver + DiffLogicTheory pair lives for the whole session.
/// Each query guards its root with a fresh selector variable s,
///
///   (~s \/ root)   +   solve under assumption {s}   +   unit ~s after,
///
/// so the clause database only ever contains definitional clauses, guarded
/// roots, and lemmas derived from them — all globally valid — and every
/// learned clause transfers to the next query. The theory backtracks
/// across queries through the ordinary undoLit stream: edges asserted at
/// decision levels are popped when solve() unwinds, while level-0 facts
/// persist.
///
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"
#include "smt/Tseitin.h"

#include "support/FaultInjector.h"

using namespace rvp;

SmtSession::~SmtSession() = default;

namespace {

class IdlSession : public SmtSession {
public:
  IdlSession() : Sat(&Theory), Encoder(Sat, Theory) {}

  SatResult query(const FormulaBuilder &FB, NodeRef Root, Deadline Limit,
                  OrderModel *ModelOut, SolveWork *Work) override {
    SolveWork Query{.SessionQueries = 1};
    SatResult Result = queryImpl(FB, Root, Limit, ModelOut, Query);
    if (Work)
      *Work = Query;
    return Result;
  }

  bool poisoned() const override { return Poisoned; }

private:
  /// Fills \p Work's search counters when the query searched (not when
  /// it was decided without searching: constant root, poisoned core).
  SatResult queryImpl(const FormulaBuilder &FB, NodeRef Root,
                      Deadline Limit, OrderModel *ModelOut, SolveWork &Work) {
    if (FaultInjector::shouldFail(faults::SessionCorrupt))
      Poisoned = true;
    if (Poisoned)
      return SatResult::Unknown;
    if (CoreUnsat)
      return SatResult::Unsat;
    const FormulaNode &N = FB.node(Root);
    if (N.Kind == FormulaKind::True) {
      if (ModelOut)
        ModelOut->clear();
      return SatResult::Sat;
    }
    if (N.Kind == FormulaKind::False)
      return SatResult::Unsat;
    if (FaultInjector::shouldFail(faults::SolverTimeout))
      return SatResult::Unknown; // injected budget expiry

    Sat.backtrackToRoot();
    Lit RootLit = Encoder.encode(FB, Root);
    Var Selector = Sat.newVar();
    if (!Sat.addClause({Lit::neg(Selector), RootLit})) {
      CoreUnsat = true;
      return SatResult::Unsat;
    }

    // Branch only on this query's cone: the variables earlier queries
    // created outside it get values by propagation alone (Sat.h states
    // why that is sound for this encoding).
    Encoder.coneVars(FB, Root, Cone);
    SatResult Result = Sat.solve({Lit::pos(Selector)}, Limit, &Cone);
    Work.recordSearch(Sat, /*InSession=*/true);
    // The model lives in the theory's current trail; read it before the
    // backtrack below unwinds those edges.
    if (Result == SatResult::Sat && ModelOut)
      Encoder.readModel(*ModelOut);

    // Retire the selector: the permanent unit ~s satisfies the guarded
    // root and every learned clause mentioning the selector, so later
    // queries never revisit this one's pin.
    Sat.backtrackToRoot();
    if (!Sat.addClause({Lit::neg(Selector)}))
      CoreUnsat = true;
    // A failed clause-database allocation leaves the database truncated;
    // nothing this session answers from here on can be trusted.
    if (Sat.allocFailed())
      Poisoned = true;
    return Result;
  }

  DiffLogicTheory Theory;
  SatSolver Sat;
  TseitinEncoder Encoder;
  std::vector<Var> Cone; ///< the current query's cone, reused per query
  bool CoreUnsat = false;
  bool Poisoned = false;
};

} // namespace

std::unique_ptr<SmtSession> rvp::createIdlSession() {
  return std::make_unique<IdlSession>();
}
