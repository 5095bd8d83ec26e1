//===- tests/ThreadPoolTest.cpp - Shared-queue pool + parallel solving ----===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The pool itself (parallelFor coverage, runner slots, exception
/// propagation, shutdown draining), concurrent use of independent solver
/// instances, and end-to-end determinism: every detector must produce the
/// same reports and summary statistics with Jobs=4 as with the sequential
/// Jobs=1 path.
///
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "detect/Atomicity.h"
#include "detect/Deadlock.h"
#include "detect/Detect.h"
#include "smt/Solver.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace rvp;

TEST(ThreadPool, SubmitRunsOnPoolThreads) {
  std::thread::id Tid;
  {
    ThreadPool Pool(2);
    EXPECT_EQ(Pool.numWorkers(), 2u);
    Pool.submit([&Tid] { Tid = std::this_thread::get_id(); });
  } // joining the workers publishes Tid
  EXPECT_NE(Tid, std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool Pool(4);
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(0, N, [&](size_t I, unsigned) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ParallelForEmptyAndSingleRange) {
  ThreadPool Pool(2);
  std::atomic<int> Calls{0};
  Pool.parallelFor(5, 5, [&](size_t, unsigned) { ++Calls; });
  EXPECT_EQ(Calls.load(), 0);
  Pool.parallelFor(7, 8, [&](size_t I, unsigned Slot) {
    EXPECT_EQ(I, 7u);
    EXPECT_EQ(Slot, 0u);
    ++Calls;
  });
  EXPECT_EQ(Calls.load(), 1);
}

TEST(ThreadPool, ParallelForSlotsAreExclusive) {
  // Every slot is below numWorkers(), and no two bodies running at the
  // same time share one: a slot can index per-runner state unlocked.
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Busy(Pool.numWorkers());
  std::atomic<int> Done{0};
  std::atomic<bool> InRange{true};
  std::atomic<bool> Exclusive{true};
  Pool.parallelFor(0, 256, [&](size_t, unsigned Slot) {
    if (Slot >= Pool.numWorkers()) {
      InRange = false;
      return;
    }
    if (Busy[Slot].fetch_add(1) != 0)
      Exclusive = false;
    std::this_thread::yield();
    Busy[Slot].fetch_sub(1);
    Done.fetch_add(1);
  });
  EXPECT_TRUE(InRange.load());
  EXPECT_TRUE(Exclusive.load());
  EXPECT_EQ(Done.load(), 256);
}

TEST(ThreadPool, SubmitThrowLeavesPoolUsable) {
  // One worker: it must survive the throwing task to run the rest.
  std::atomic<int> Calls{0};
  {
    ThreadPool Pool(1);
    Pool.submit([] { throw std::runtime_error("task failed"); });
    Pool.submit([&Calls] { ++Calls; });
    Pool.parallelFor(0, 8, [&](size_t, unsigned) { ++Calls; });
  }
  EXPECT_EQ(Calls.load(), 9);
}

TEST(ThreadPool, ParallelForRethrowsAndCompletes) {
  ThreadPool Pool(4);
  constexpr size_t N = 64;
  std::vector<std::atomic<int>> Hits(N);
  EXPECT_THROW(Pool.parallelFor(0, N,
                                [&](size_t I, unsigned) {
                                  Hits[I].fetch_add(1);
                                  if (I == 13)
                                    throw std::runtime_error("body failed");
                                }),
               std::runtime_error);
  // The barrier still waited for every index.
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ShutdownDrainsQueue) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I < 50; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
    // Destructor must run every queued task before joining.
  }
  EXPECT_EQ(Ran.load(), 50);
}

// Satellite: two solver instances used from different threads at once must
// not interfere (no shared static scratch state in Sat/IdlSolver).
TEST(ThreadPool, ConcurrentSolverInstancesAreIndependent) {
  ThreadPool Pool(2);
  auto SolveChain = [](uint32_t Vars) {
    // O0 < O1 < ... < On, satisfiable; plus the reversed chain with a
    // shared endpoint, unsatisfiable.
    FormulaBuilder FB;
    std::vector<NodeRef> Atoms;
    for (uint32_t I = 0; I + 1 < Vars; ++I)
      Atoms.push_back(FB.mkAtom(I, I + 1));
    auto S = createIdlSolver();
    OrderModel Model;
    SatResult Chain =
        S->solve(FB, FB.mkAnd(Atoms), Deadline(), &Model);
    Atoms.push_back(FB.mkAtom(Vars - 1, 0)); // close the cycle
    SatResult Cycle = S->solve(FB, FB.mkAnd(Atoms), Deadline(), nullptr);
    return Chain == SatResult::Sat && Cycle == SatResult::Unsat;
  };
  const uint32_t Vars[2] = {40, 25};
  for (int Round = 0; Round < 20; ++Round) {
    std::atomic<int> Ok{0};
    Pool.parallelFor(0, 2, [&](size_t I, unsigned) {
      if (SolveChain(Vars[I]))
        Ok.fetch_add(1);
    });
    EXPECT_EQ(Ok.load(), 2);
  }
}

namespace {

Trace parallelTestTrace() {
  SyntheticSpec Spec;
  Spec.Name = "pool-unit";
  Spec.Workers = 6;
  Spec.TargetEvents = 4000;
  Spec.PlainRaces = 3;
  Spec.CpOnlyRaces = 2;
  Spec.SaidOnlyRaces = 2;
  Spec.RvOnlyRaces = 2;
  Spec.QcOnlyPairs = 3;
  Spec.OrderedPairs = 4;
  Spec.AtomicityPairs = 3;
  Spec.DeadlockCycles = 2;
  Spec.Seed = 99;
  return generateSynthetic(Spec);
}

void expectSameStats(const DetectionStats &A, const DetectionStats &B) {
  EXPECT_EQ(A.Windows, B.Windows);
  EXPECT_EQ(A.Cops, B.Cops);
  EXPECT_EQ(A.QcPassed, B.QcPassed);
  EXPECT_EQ(A.SolverCalls, B.SolverCalls);
  EXPECT_EQ(A.SolverTimeouts, B.SolverTimeouts);
}

} // namespace

TEST(ParallelDetect, RacesMatchSequential) {
  Trace T = parallelTestTrace();
  DetectorOptions Seq;
  Seq.PerCopBudgetSeconds = 30;
  DetectorOptions Par = Seq;
  Par.Jobs = 4;

  DetectionResult A = detectRaces(T, Technique::Maximal, Seq);
  DetectionResult B = detectRaces(T, Technique::Maximal, Par);
  ASSERT_GT(A.raceCount(), 0u);
  ASSERT_EQ(A.raceCount(), B.raceCount());
  expectSameStats(A.Stats, B.Stats);
  EXPECT_EQ(A.Stats.Jobs, 1u);
  EXPECT_EQ(B.Stats.Jobs, 4u);
  for (size_t I = 0; I < A.raceCount(); ++I) {
    EXPECT_EQ(A.Races[I].First, B.Races[I].First);
    EXPECT_EQ(A.Races[I].Second, B.Races[I].Second);
    EXPECT_EQ(A.Races[I].LocFirst, B.Races[I].LocFirst);
    EXPECT_EQ(A.Races[I].LocSecond, B.Races[I].LocSecond);
    EXPECT_EQ(A.Races[I].Witness, B.Races[I].Witness);
    EXPECT_EQ(A.Races[I].WitnessValid, B.Races[I].WitnessValid);
  }
}

TEST(ParallelDetect, SaidMatchesSequential) {
  Trace T = parallelTestTrace();
  DetectorOptions Seq;
  Seq.PerCopBudgetSeconds = 30;
  DetectorOptions Par = Seq;
  Par.Jobs = 4;
  DetectionResult A = detectRaces(T, Technique::Said, Seq);
  DetectionResult B = detectRaces(T, Technique::Said, Par);
  ASSERT_EQ(A.raceCount(), B.raceCount());
  expectSameStats(A.Stats, B.Stats);
  for (size_t I = 0; I < A.raceCount(); ++I) {
    EXPECT_EQ(A.Races[I].First, B.Races[I].First);
    EXPECT_EQ(A.Races[I].Second, B.Races[I].Second);
  }
}

TEST(ParallelDetect, AtomicityMatchesSequential) {
  Trace T = parallelTestTrace();
  DetectorOptions Seq;
  Seq.PerCopBudgetSeconds = 30;
  DetectorOptions Par = Seq;
  Par.Jobs = 4;
  AtomicityResult A = detectAtomicityViolations(T, Seq);
  AtomicityResult B = detectAtomicityViolations(T, Par);
  ASSERT_GT(A.Violations.size(), 0u);
  ASSERT_EQ(A.Violations.size(), B.Violations.size());
  expectSameStats(A.Stats, B.Stats);
  for (size_t I = 0; I < A.Violations.size(); ++I) {
    EXPECT_EQ(A.Violations[I].First, B.Violations[I].First);
    EXPECT_EQ(A.Violations[I].Remote, B.Violations[I].Remote);
    EXPECT_EQ(A.Violations[I].Second, B.Violations[I].Second);
    EXPECT_EQ(A.Violations[I].Pattern, B.Violations[I].Pattern);
    EXPECT_EQ(A.Violations[I].Witness, B.Violations[I].Witness);
    EXPECT_EQ(A.Violations[I].WitnessValid, B.Violations[I].WitnessValid);
  }
}

TEST(ParallelDetect, DeadlocksMatchSequential) {
  Trace T = parallelTestTrace();
  DetectorOptions Seq;
  Seq.PerCopBudgetSeconds = 30;
  DetectorOptions Par = Seq;
  Par.Jobs = 4;
  DeadlockResult A = detectDeadlocks(T, Seq);
  DeadlockResult B = detectDeadlocks(T, Par);
  ASSERT_GT(A.Deadlocks.size(), 0u);
  ASSERT_EQ(A.Deadlocks.size(), B.Deadlocks.size());
  expectSameStats(A.Stats, B.Stats);
  for (size_t I = 0; I < A.Deadlocks.size(); ++I) {
    EXPECT_EQ(A.Deadlocks[I].RequestA, B.Deadlocks[I].RequestA);
    EXPECT_EQ(A.Deadlocks[I].RequestB, B.Deadlocks[I].RequestB);
    EXPECT_EQ(A.Deadlocks[I].Witness, B.Deadlocks[I].Witness);
    EXPECT_EQ(A.Deadlocks[I].WitnessValid, B.Deadlocks[I].WitnessValid);
  }
}

TEST(ParallelDetect, JobsZeroMeansHardwareConcurrency) {
  Trace T = parallelTestTrace();
  DetectorOptions Options;
  Options.PerCopBudgetSeconds = 30;
  Options.Jobs = 0;
  DetectionResult R = detectRaces(T, Technique::Maximal, Options);
  EXPECT_EQ(R.Stats.Jobs, ThreadPool::defaultWorkerCount());
}
