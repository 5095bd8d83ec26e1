//===- bench/bench_solver.cpp - Solver microbenchmarks -----------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Scaling of the in-tree CDCL(T) order solver against the Z3 oracle on
/// the formula families the race encoder produces: long
/// must-happen-before chains, chains with a contradicting back edge
/// (UNSAT), quadratic lock-ordering disjunctions, and random order
/// formulas. The Z3 rows skip in a build without Z3.
///
//===----------------------------------------------------------------------===//

#include "smt/Z3Solver.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

using namespace rvp;

namespace {

using SolverFactory = std::unique_ptr<SmtSolver> (*)();
using SessionFactory = std::unique_ptr<SmtSession> (*)();

NodeRef chainFormula(FormulaBuilder &FB, uint32_t Length, bool Unsat) {
  std::vector<NodeRef> Atoms;
  for (OrderVar I = 0; I < Length; ++I)
    Atoms.push_back(FB.mkAtom(I, I + 1));
  if (Unsat)
    Atoms.push_back(FB.mkAtom(Length, 0));
  return FB.mkAnd(std::move(Atoms));
}

/// N critical-section pairs: the paper's quadratic lock constraints.
NodeRef lockFormula(FormulaBuilder &FB, uint32_t Sections,
                    OrderVar Base = 0) {
  // Section i occupies order variables Base + [4i, 4i+1] (acquire,
  // release).
  auto At = [Base](uint32_t Offset) { return Base + Offset; };
  std::vector<NodeRef> Conj;
  for (uint32_t I = 0; I < Sections; ++I) {
    Conj.push_back(FB.mkAtom(At(4 * I), At(4 * I + 1)));
    for (uint32_t J = 0; J < I; ++J)
      Conj.push_back(FB.mkOr2(FB.mkAtom(At(4 * J + 1), At(4 * I)),
                              FB.mkAtom(At(4 * I + 1), At(4 * J))));
  }
  return FB.mkAnd(std::move(Conj));
}

NodeRef randomFormula(FormulaBuilder &FB, Rng &R, uint32_t NumVars,
                      uint32_t Depth) {
  if (Depth == 0 || R.chance(1, 3)) {
    OrderVar A = static_cast<OrderVar>(R.below(NumVars));
    OrderVar B = static_cast<OrderVar>(R.below(NumVars));
    if (A == B)
      B = (B + 1) % NumVars;
    return FB.mkAtom(A, B);
  }
  std::vector<NodeRef> Kids;
  for (uint32_t I = 0; I < 2 + R.below(3); ++I)
    Kids.push_back(randomFormula(FB, R, NumVars, Depth - 1));
  return R.chance(1, 2) ? FB.mkAnd(std::move(Kids))
                        : FB.mkOr(std::move(Kids));
}

void runSolver(benchmark::State &State, SolverFactory Create,
               NodeRef (*Build)(FormulaBuilder &, uint32_t),
               uint32_t Size) {
  auto Solver = Create();
  if (!Solver) {
    State.SkipWithError("Z3 not built");
    return;
  }
  FormulaBuilder FB;
  NodeRef Root = Build(FB, Size);
  for (auto _ : State) {
    SatResult R = Solver->solve(FB, Root, Deadline(), nullptr);
    benchmark::DoNotOptimize(R);
  }
}

NodeRef buildChainSat(FormulaBuilder &FB, uint32_t N) {
  return chainFormula(FB, N, false);
}
NodeRef buildChainUnsat(FormulaBuilder &FB, uint32_t N) {
  return chainFormula(FB, N, true);
}
NodeRef buildLocks(FormulaBuilder &FB, uint32_t N) {
  return lockFormula(FB, N);
}

void BM_IdlChainSat(benchmark::State &State) {
  runSolver(State, createIdlSolver, buildChainSat,
            static_cast<uint32_t>(State.range(0)));
}
void BM_Z3ChainSat(benchmark::State &State) {
  runSolver(State, createZ3Solver, buildChainSat,
            static_cast<uint32_t>(State.range(0)));
}
void BM_IdlChainUnsat(benchmark::State &State) {
  runSolver(State, createIdlSolver, buildChainUnsat,
            static_cast<uint32_t>(State.range(0)));
}
void BM_Z3ChainUnsat(benchmark::State &State) {
  runSolver(State, createZ3Solver, buildChainUnsat,
            static_cast<uint32_t>(State.range(0)));
}
void BM_IdlLockDisjunctions(benchmark::State &State) {
  runSolver(State, createIdlSolver, buildLocks,
            static_cast<uint32_t>(State.range(0)));
}
void BM_Z3LockDisjunctions(benchmark::State &State) {
  runSolver(State, createZ3Solver, buildLocks,
            static_cast<uint32_t>(State.range(0)));
}

void BM_IdlRandom(benchmark::State &State) {
  auto Solver = createIdlSolver();
  Rng R(99);
  FormulaBuilder FB;
  NodeRef Root = randomFormula(FB, R, static_cast<uint32_t>(State.range(0)),
                               4);
  for (auto _ : State) {
    SatResult Result = Solver->solve(FB, Root, Deadline(), nullptr);
    benchmark::DoNotOptimize(Result);
  }
}

// ----------------------------------------------- incremental session A/B

/// One COP-style query against a shared window: the quadratic lock core
/// over \p Sections critical sections conjoined with a pair-specific
/// order atom. Even queries ask for an orderable pair (SAT); odd queries
/// ask for the back edge inside a section (UNSAT) — roughly the mix the
/// detectors see after the quick check.
NodeRef windowQuery(FormulaBuilder &FB, uint32_t Sections, uint32_t Q) {
  NodeRef Core = lockFormula(FB, Sections);
  uint32_t I = Q % Sections;
  if (Q % 2 == 0)
    return FB.mkAnd2(Core, FB.mkAtom(4 * I + 1, 4 * ((I + 1) % Sections)));
  return FB.mkAnd2(Core, FB.mkAtom(4 * I + 1, 4 * I));
}

constexpr uint32_t WindowQueries = 64;

/// The legacy per-COP path: every query re-encodes the window core into a
/// fresh builder and constructs a fresh solver.
void runOneShotWindow(benchmark::State &State, SolverFactory Create) {
  if (!Create()) {
    State.SkipWithError("Z3 not built");
    return;
  }
  uint32_t Sections = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    for (uint32_t Q = 0; Q < WindowQueries; ++Q) {
      FormulaBuilder FB;
      NodeRef Root = windowQuery(FB, Sections, Q);
      auto Solver = Create();
      SatResult R = Solver->solve(FB, Root, Deadline(), nullptr);
      benchmark::DoNotOptimize(R);
    }
  }
  State.counters["queries"] = WindowQueries;
}

/// The incremental path: one session and one hash-consed builder per
/// window; the core encodes once and learned clauses carry across queries.
void runSessionWindow(benchmark::State &State, SessionFactory Create) {
  if (!Create()) {
    State.SkipWithError("Z3 not built");
    return;
  }
  uint32_t Sections = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    FormulaBuilder FB;
    auto Session = Create();
    for (uint32_t Q = 0; Q < WindowQueries; ++Q) {
      NodeRef Root = windowQuery(FB, Sections, Q);
      SatResult R = Session->query(FB, Root, Deadline(), nullptr);
      benchmark::DoNotOptimize(R);
    }
  }
  State.counters["queries"] = WindowQueries;
}

/// A session whose queries share nothing: query q is an 8-section lock
/// formula over its own order variables, so its cone is only its own
/// atoms and gates. Arg = queries per session; `per_query` is the time of
/// one query, which stays flat as the session grows only when a query
/// decides its cone alone (BM_IdlSessionWindow's queries share one core,
/// so every cone there is the whole session).
void BM_IdlSessionDisjointCones(benchmark::State &State) {
  constexpr uint32_t Sections = 8;
  auto Queries = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    FormulaBuilder FB;
    auto Session = createIdlSession();
    for (uint32_t Q = 0; Q < Queries; ++Q) {
      NodeRef Root = lockFormula(FB, Sections, 4 * Sections * Q);
      SatResult R = Session->query(FB, Root, Deadline(), nullptr);
      benchmark::DoNotOptimize(R);
    }
  }
  State.counters["per_query"] = benchmark::Counter(
      Queries, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}

void BM_IdlOneShotWindow(benchmark::State &State) {
  runOneShotWindow(State, createIdlSolver);
}
void BM_IdlSessionWindow(benchmark::State &State) {
  runSessionWindow(State, createIdlSession);
}
void BM_Z3OneShotWindow(benchmark::State &State) {
  runOneShotWindow(State, createZ3Solver);
}
void BM_Z3SessionWindow(benchmark::State &State) {
  runSessionWindow(State, createZ3Session);
}

} // namespace

BENCHMARK(BM_IdlChainSat)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Z3ChainSat)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_IdlChainUnsat)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Z3ChainUnsat)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_IdlLockDisjunctions)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_Z3LockDisjunctions)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_IdlRandom)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_IdlOneShotWindow)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IdlSessionWindow)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IdlSessionDisjointCones)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Z3OneShotWindow)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Z3SessionWindow)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
