//===- smt/IdlSolver.cpp - CDCL(T) solver for order formulas --------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Ties the pieces together: Tseitin-encodes an order formula into CNF
/// (positive polarity only — the formula language has no negation), binds
/// atom literals to ordering edges in the difference-logic theory, and runs
/// the CDCL solver. The model is read off the theory's topological order.
/// The encoding itself lives in Tseitin.h, shared with the incremental
/// session (Incremental.cpp).
///
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"
#include "smt/Tseitin.h"

#include "support/FaultInjector.h"

using namespace rvp;

SmtSolver::~SmtSolver() = default;

SolveWork &SolveWork::operator+=(const SolveWork &Other) {
  Searches += Other.Searches;
  SessionSearches += Other.SessionSearches;
  Decisions += Other.Decisions;
  Propagations += Other.Propagations;
  Conflicts += Other.Conflicts;
  Restarts += Other.Restarts;
  AssumptionConflicts += Other.AssumptionConflicts;
  SessionQueries += Other.SessionQueries;
  Z3Calls += Other.Z3Calls;
  return *this;
}

void SolveWork::recordSearch(const SatSolver &Sat, bool InSession) {
  Searches = 1;
  SessionSearches = InSession;
  Decisions = Sat.numDecisions();
  Propagations = Sat.numPropagations();
  Conflicts = Sat.numConflicts();
  Restarts = Sat.numRestarts();
  AssumptionConflicts = Sat.numAssumptionConflicts();
}

namespace {

class IdlSolver : public SmtSolver {
public:
  SatResult solve(const FormulaBuilder &FB, NodeRef Root, Deadline Limit,
                  OrderModel *ModelOut, SolveWork *Work) override {
    const FormulaNode &RootNode = FB.node(Root);
    if (RootNode.Kind == FormulaKind::True)
      return SatResult::Sat; // no constraints; ModelOut stays empty
    if (RootNode.Kind == FormulaKind::False)
      return SatResult::Unsat;
    if (FaultInjector::shouldFail(faults::SolverTimeout))
      return SatResult::Unknown; // injected budget expiry

    DiffLogicTheory Theory;
    SatSolver Sat(&Theory);
    TseitinEncoder Encoder(Sat, Theory);
    Lit RootLit = Encoder.encode(FB, Root);

    SatResult Result =
        Sat.addClause({RootLit}) ? Sat.solve(Limit) : SatResult::Unsat;
    if (Work)
      Work->recordSearch(Sat, /*InSession=*/false);
    if (Result == SatResult::Sat && ModelOut)
      Encoder.readModel(*ModelOut);
    return Result;
  }

  const char *name() const override { return "idl"; }
};

} // namespace

std::unique_ptr<SmtSolver> rvp::createIdlSolver() {
  return std::make_unique<IdlSolver>();
}

std::unique_ptr<SmtSolver> rvp::createSolverByName(const std::string &Name) {
  if (Name == "idl" || Name.empty())
    return createIdlSolver();
  if (Name == "z3") {
    if (FaultInjector::shouldFail(faults::Z3Unavailable))
      return nullptr; // injected backend outage; callers fall back to idl
    return createZ3Solver();
  }
  return nullptr;
}
