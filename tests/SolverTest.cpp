//===- tests/SolverTest.cpp - IDL solver + Z3 cross-validation -------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"
#include "smt/Tseitin.h"

#include "support/Random.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace rvp;

namespace {

/// Evaluates a formula under an order model (atoms become integer
/// comparisons). Missing variables make the atom false.
bool evaluate(const FormulaBuilder &FB, NodeRef Root,
              const OrderModel &Model) {
  const FormulaNode &N = FB.node(Root);
  switch (N.Kind) {
  case FormulaKind::True:
    return true;
  case FormulaKind::False:
    return false;
  case FormulaKind::Atom: {
    auto A = Model.find(N.VarA);
    auto B = Model.find(N.VarB);
    if (A == Model.end() || B == Model.end())
      return false;
    return A->second < B->second;
  }
  case FormulaKind::BoolVar:
    // Order models carry no boolean assignments; these tests do not build
    // boolean variables.
    return false;
  case FormulaKind::And:
    for (const NodeRef *C = FB.childBegin(Root), *E = FB.childEnd(Root);
         C != E; ++C)
      if (!evaluate(FB, *C, Model))
        return false;
    return true;
  case FormulaKind::Or:
    for (const NodeRef *C = FB.childBegin(Root), *E = FB.childEnd(Root);
         C != E; ++C)
      if (evaluate(FB, *C, Model))
        return true;
    return false;
  }
  return false;
}

/// Builds a random order formula over \p NumVars variables.
NodeRef randomFormula(FormulaBuilder &FB, Rng &R, uint32_t NumVars,
                      uint32_t Depth) {
  if (Depth == 0 || R.chance(1, 3)) {
    OrderVar A = static_cast<OrderVar>(R.below(NumVars));
    OrderVar B = static_cast<OrderVar>(R.below(NumVars));
    if (A == B)
      B = (B + 1) % NumVars;
    return FB.mkAtom(A, B);
  }
  uint32_t Width = 2 + static_cast<uint32_t>(R.below(3));
  std::vector<NodeRef> Kids;
  for (uint32_t I = 0; I < Width; ++I)
    Kids.push_back(randomFormula(FB, R, NumVars, Depth - 1));
  return R.chance(1, 2) ? FB.mkAnd(std::move(Kids))
                        : FB.mkOr(std::move(Kids));
}

} // namespace

TEST(IdlSolver, TrivialConstants) {
  FormulaBuilder FB;
  auto S = createIdlSolver();
  EXPECT_EQ(S->solve(FB, FB.mkTrue(), Deadline(), nullptr), SatResult::Sat);
  EXPECT_EQ(S->solve(FB, FB.mkFalse(), Deadline(), nullptr),
            SatResult::Unsat);
}

TEST(IdlSolver, SingleAtomSat) {
  FormulaBuilder FB;
  auto S = createIdlSolver();
  OrderModel Model;
  NodeRef F = FB.mkAtom(1, 2);
  ASSERT_EQ(S->solve(FB, F, Deadline(), &Model), SatResult::Sat);
  EXPECT_LT(Model.at(1), Model.at(2));
}

TEST(IdlSolver, CycleUnsat) {
  FormulaBuilder FB;
  auto S = createIdlSolver();
  NodeRef F = FB.mkAnd({FB.mkAtom(1, 2), FB.mkAtom(2, 3), FB.mkAtom(3, 1)});
  EXPECT_EQ(S->solve(FB, F, Deadline(), nullptr), SatResult::Unsat);
}

TEST(IdlSolver, DisjunctionPicksConsistentBranch) {
  FormulaBuilder FB;
  auto S = createIdlSolver();
  // 1<2 & 2<3 & (3<1 | 1<3): only the second disjunct works.
  NodeRef F = FB.mkAnd({FB.mkAtom(1, 2), FB.mkAtom(2, 3),
                        FB.mkOr({FB.mkAtom(3, 1), FB.mkAtom(1, 3)})});
  OrderModel Model;
  ASSERT_EQ(S->solve(FB, F, Deadline(), &Model), SatResult::Sat);
  EXPECT_TRUE(evaluate(FB, F, Model));
}

TEST(IdlSolver, LockStyleDisjunctionBothOrders) {
  FormulaBuilder FB;
  auto S = createIdlSolver();
  // Classic lock constraint shape: (r1<a2 | r2<a1).
  NodeRef F = FB.mkOr({FB.mkAtom(2, 3), FB.mkAtom(4, 1)});
  OrderModel Model;
  ASSERT_EQ(S->solve(FB, F, Deadline(), &Model), SatResult::Sat);
  EXPECT_TRUE(evaluate(FB, F, Model));
}

TEST(IdlSolver, DeepConjunctionChain) {
  FormulaBuilder FB;
  auto S = createIdlSolver();
  std::vector<NodeRef> Atoms;
  for (OrderVar I = 0; I < 500; ++I)
    Atoms.push_back(FB.mkAtom(I, I + 1));
  OrderModel Model;
  ASSERT_EQ(S->solve(FB, FB.mkAnd(Atoms), Deadline(), &Model),
            SatResult::Sat);
  for (OrderVar I = 0; I < 500; ++I)
    EXPECT_LT(Model.at(I), Model.at(I + 1));
}

TEST(IdlSolver, ChainPlusBackEdgeUnsat) {
  FormulaBuilder FB;
  auto S = createIdlSolver();
  std::vector<NodeRef> Atoms;
  for (OrderVar I = 0; I < 200; ++I)
    Atoms.push_back(FB.mkAtom(I, I + 1));
  Atoms.push_back(FB.mkAtom(200, 0));
  EXPECT_EQ(S->solve(FB, FB.mkAnd(Atoms), Deadline(), nullptr),
            SatResult::Unsat);
}

TEST(IdlSolver, ModelSatisfiesFormula) {
  Rng R(2024);
  for (int Round = 0; Round < 20; ++Round) {
    FormulaBuilder FB;
    NodeRef F = randomFormula(FB, R, 8, 3);
    auto S = createIdlSolver();
    OrderModel Model;
    SatResult Result = S->solve(FB, F, Deadline(), &Model);
    if (Result == SatResult::Sat && FB.node(F).Kind != FormulaKind::True) {
      EXPECT_TRUE(evaluate(FB, F, Model)) << FB.toString(F);
    }
  }
}

// Cross-validation sweep: the in-tree CDCL(T) solver and Z3 must agree on
// satisfiability of random order formulas.
class SolverCrossTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverCrossTest, IdlAgreesWithZ3) {
  auto Z3 = createZ3Solver();
  if (!Z3)
    GTEST_SKIP() << "Z3 backend not built";
  Rng R(GetParam());
  FormulaBuilder FB;
  NodeRef F = randomFormula(FB, R, 6 + R.below(6), 3);
  auto Idl = createIdlSolver();
  OrderModel IdlModel, Z3Model;
  SatResult IdlResult = Idl->solve(FB, F, Deadline(), &IdlModel);
  SatResult Z3Result = Z3->solve(FB, F, Deadline(), &Z3Model);
  ASSERT_NE(IdlResult, SatResult::Unknown);
  ASSERT_NE(Z3Result, SatResult::Unknown);
  EXPECT_EQ(IdlResult, Z3Result) << "seed " << GetParam() << "\n"
                                 << FB.toString(F);
  if (IdlResult == SatResult::Sat && FB.node(F).Kind != FormulaKind::True) {
    EXPECT_TRUE(evaluate(FB, F, IdlModel));
    EXPECT_TRUE(evaluate(FB, F, Z3Model));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverCrossTest,
                         ::testing::Range<uint64_t>(0, 50));

namespace {

/// \p Work's search counters against \p Sat's.
void expectSearchOf(const SolveWork &Work, const SatSolver &Sat) {
  EXPECT_EQ(Work.Searches, 1u);
  EXPECT_EQ(Work.Decisions, Sat.numDecisions());
  EXPECT_EQ(Work.Propagations, Sat.numPropagations());
  EXPECT_EQ(Work.Conflicts, Sat.numConflicts());
  EXPECT_EQ(Work.Restarts, Sat.numRestarts());
}

} // namespace

TEST(Solver, BareSolveRegistersNoMetric) {
  // The solvers return their work and count nothing themselves, even with
  // telemetry on: the window driver does the counting. The records must
  // match a SatSolver that does the same work by hand.
  Telemetry::setEnabled(true);
  Telemetry::instance().reset();
  const std::string Before = MetricsRegistry::global().snapshot().renderTable();

  Rng R(5);
  FormulaBuilder FB;
  NodeRef F = FB.mkAnd({randomFormula(FB, R, 8, 4), randomFormula(FB, R, 8, 4),
                        randomFormula(FB, R, 8, 4)});
  SolveWork OneShot;
  SatResult Result = createIdlSolver()->solve(FB, F, Deadline(), nullptr,
                                              &OneShot);
  SolveWork Query;
  SatResult QueryResult =
      createIdlSession()->query(FB, F, Deadline(), nullptr, &Query);

  const std::string After = MetricsRegistry::global().snapshot().renderTable();
  Telemetry::instance().reset();
  Telemetry::setEnabled(false);
  EXPECT_EQ(After, Before);

  DiffLogicTheory Theory;
  SatSolver Sat(&Theory);
  TseitinEncoder Encoder(Sat, Theory);
  ASSERT_TRUE(Sat.addClause({Encoder.encode(FB, F)}));
  EXPECT_EQ(Sat.solve(Deadline()), Result);
  EXPECT_GT(Sat.numDecisions(), 0u) << "a search that decides something";
  expectSearchOf(OneShot, Sat);
  EXPECT_EQ(OneShot.SessionSearches, 0u);
  EXPECT_EQ(OneShot.SessionQueries, 0u);
  EXPECT_EQ(OneShot.Z3Calls, 0u);

  DiffLogicTheory SessionTheory;
  SatSolver SessionSat(&SessionTheory);
  TseitinEncoder SessionEncoder(SessionSat, SessionTheory);
  Lit Root = SessionEncoder.encode(FB, F);
  Var Selector = SessionSat.newVar();
  ASSERT_TRUE(SessionSat.addClause({Lit::neg(Selector), Root}));
  EXPECT_EQ(SessionSat.solve({Lit::pos(Selector)}, Deadline()), QueryResult);
  expectSearchOf(Query, SessionSat);
  EXPECT_EQ(Query.SessionSearches, 1u);
  EXPECT_EQ(Query.AssumptionConflicts, SessionSat.numAssumptionConflicts());
  EXPECT_EQ(Query.SessionQueries, 1u);
  EXPECT_EQ(Query.Z3Calls, 0u);
}

TEST(SolverFactory, ByName) {
  EXPECT_NE(createSolverByName("idl"), nullptr);
  EXPECT_NE(createSolverByName(""), nullptr);
  EXPECT_EQ(createSolverByName("nonsense"), nullptr);
}

// ----------------------------------------------- incremental sessions

TEST(IdlSession, AgreesWithOneShotAcrossQueries) {
  // One session answering a stream of random queries over a shared
  // builder must match a fresh one-shot solver on every single query —
  // regardless of what earlier queries learned or how they ended.
  Rng R(7);
  for (int Round = 0; Round < 10; ++Round) {
    FormulaBuilder FB;
    auto Session = createIdlSession();
    ASSERT_NE(Session, nullptr);
    for (int Query = 0; Query < 8; ++Query) {
      NodeRef F = randomFormula(FB, R, 8, 3);
      OrderModel Model;
      SatResult Got = Session->query(FB, F, Deadline(), &Model);
      auto OneShot = createIdlSolver();
      SatResult Want = OneShot->solve(FB, F, Deadline(), nullptr);
      ASSERT_EQ(Got, Want) << "round " << Round << " query " << Query
                           << "\n"
                           << FB.toString(F);
      if (Got == SatResult::Sat && FB.node(F).Kind != FormulaKind::True) {
        EXPECT_TRUE(evaluate(FB, F, Model)) << FB.toString(F);
      }
    }
  }
}

TEST(IdlSession, TheoryBacktracksBetweenQueries) {
  // Query 1 pins a<b, query 2 pins b<a: the theory state asserted for the
  // first query must fully unwind, or the second would be wrongly unsat.
  FormulaBuilder FB;
  auto Session = createIdlSession();
  NodeRef AB = FB.mkAtom(0, 1);
  NodeRef BA = FB.mkAtom(1, 0);
  EXPECT_EQ(Session->query(FB, AB, Deadline(), nullptr), SatResult::Sat);
  EXPECT_EQ(Session->query(FB, BA, Deadline(), nullptr), SatResult::Sat);
  // And the conjunction is still correctly refuted afterwards.
  NodeRef Both = FB.mkAnd({AB, BA});
  EXPECT_EQ(Session->query(FB, Both, Deadline(), nullptr),
            SatResult::Unsat);
  // An unsat query leaves the session healthy for the next sat one.
  EXPECT_EQ(Session->query(FB, AB, Deadline(), nullptr), SatResult::Sat);
}

TEST(IdlSession, ModelReadAfterEarlierFailedQuery) {
  FormulaBuilder FB;
  auto Session = createIdlSession();
  NodeRef Cycle =
      FB.mkAnd({FB.mkAtom(0, 1), FB.mkAtom(1, 2), FB.mkAtom(2, 0)});
  EXPECT_EQ(Session->query(FB, Cycle, Deadline(), nullptr),
            SatResult::Unsat);
  NodeRef Chain = FB.mkAnd({FB.mkAtom(0, 1), FB.mkAtom(1, 2)});
  OrderModel Model;
  ASSERT_EQ(Session->query(FB, Chain, Deadline(), &Model), SatResult::Sat);
  EXPECT_TRUE(evaluate(FB, Chain, Model));
}

TEST(IdlSession, ExpiredQueryDeadlineDoesNotStarveNextQuery) {
  // A query given an already-expired budget answers Unknown (or solves
  // within its zero budget); either way the NEXT query must still get its
  // own fresh budget and answer.
  Rng R(99);
  FormulaBuilder FB;
  auto Session = createIdlSession();
  NodeRef Hard = randomFormula(FB, R, 10, 4);
  (void)Session->query(FB, Hard, Deadline::after(0), nullptr);
  NodeRef Easy = FB.mkAtom(0, 1);
  EXPECT_EQ(Session->query(FB, Easy, Deadline::after(60), nullptr),
            SatResult::Sat);
}

TEST(IdlSession, QueryDecidesOnlyItsCone) {
  // 64 earlier queries leave their atoms and gates unassigned in the
  // session. A query over K fresh atoms must branch on its own cone only:
  // at most one decision per atom, plus the planted assumption.
  FormulaBuilder FB;
  auto Session = createIdlSession();
  OrderVar Next = 0;
  auto FreshOr = [&](uint32_t Atoms) {
    std::vector<NodeRef> Kids;
    for (uint32_t I = 0; I < Atoms; ++I, Next += 2)
      Kids.push_back(FB.mkAtom(Next, Next + 1));
    return FB.mkOr(std::move(Kids));
  };
  for (int Query = 0; Query < 64; ++Query)
    ASSERT_EQ(Session->query(FB, FreshOr(4), Deadline(), nullptr),
              SatResult::Sat);
  constexpr uint32_t K = 8;
  SolveWork Work;
  ASSERT_EQ(Session->query(FB, FreshOr(K), Deadline(), nullptr, &Work),
            SatResult::Sat);
  EXPECT_EQ(Work.Searches, 1u);
  EXPECT_LE(Work.Decisions, K + 1);
}

TEST(IdlSession, OverlappingConesAgreeWithOneShot) {
  // Queries combine members of one pool of subformulas, so their cones
  // overlap: a variable one query left outside its cone (popped off the
  // branching heap) is in a later query's cone, and clauses learned for
  // one query can name variables outside the next one's. Deciding only
  // the cone must still give the one-shot answer, and every Sat model
  // must satisfy the query.
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    Rng R(Seed);
    FormulaBuilder FB;
    std::vector<NodeRef> Pool;
    for (int I = 0; I < 12; ++I)
      Pool.push_back(randomFormula(FB, R, 8, 3));
    auto Session = createIdlSession();
    for (int Query = 0; Query < 40; ++Query) {
      std::vector<NodeRef> Kids;
      for (uint64_t I = 0, N = 2 + R.below(2); I < N; ++I)
        Kids.push_back(Pool[R.below(Pool.size())]);
      NodeRef F = R.chance(2, 3) ? FB.mkAnd(std::move(Kids))
                                 : FB.mkOr(std::move(Kids));
      OrderModel Model;
      SatResult Got = Session->query(FB, F, Deadline(), &Model);
      SatResult Want = createIdlSolver()->solve(FB, F, Deadline(), nullptr);
      ASSERT_EQ(Got, Want) << "seed " << Seed << " query " << Query << "\n"
                           << FB.toString(F);
      if (Got == SatResult::Sat && FB.node(F).Kind != FormulaKind::True) {
        EXPECT_TRUE(evaluate(FB, F, Model))
            << "seed " << Seed << " query " << Query << "\n"
            << FB.toString(F);
      }
    }
  }
}

TEST(Z3Session, AgreesWithIdlSession) {
  auto Z3 = createZ3Session();
  if (!Z3)
    GTEST_SKIP() << "Z3 backend not built";
  Rng R(21);
  FormulaBuilder FB;
  auto Idl = createIdlSession();
  for (int Query = 0; Query < 12; ++Query) {
    NodeRef F = randomFormula(FB, R, 8, 3);
    OrderModel IdlModel, Z3Model;
    SatResult IdlResult = Idl->query(FB, F, Deadline(), &IdlModel);
    SatResult Z3Result = Z3->query(FB, F, Deadline(), &Z3Model);
    ASSERT_NE(IdlResult, SatResult::Unknown);
    ASSERT_NE(Z3Result, SatResult::Unknown);
    EXPECT_EQ(IdlResult, Z3Result) << "query " << Query << "\n"
                                   << FB.toString(F);
    if (IdlResult == SatResult::Sat &&
        FB.node(F).Kind != FormulaKind::True) {
      EXPECT_TRUE(evaluate(FB, F, IdlModel));
      EXPECT_TRUE(evaluate(FB, F, Z3Model));
    }
  }
}

TEST(SessionFactory, ByName) {
  EXPECT_NE(createSessionByName("idl"), nullptr);
  EXPECT_NE(createSessionByName(""), nullptr);
  EXPECT_EQ(createSessionByName("nonsense"), nullptr);
}
