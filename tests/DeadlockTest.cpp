//===- tests/DeadlockTest.cpp - Predictive deadlock detector tests -----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Deadlock.h"

#include "detect/WindowDriver.h"
#include "runtime/Interpreter.h"
#include "trace/TraceBuilder.h"
#include "trace/Window.h"
#include "workloads/Fuzzer.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <array>

using namespace rvp;

namespace {

/// Classic opposite-order nesting, recorded WITHOUT deadlocking (t1 runs
/// to completion before t2 starts its nesting).
Trace oppositeOrderTrace() {
  TraceBuilder B;
  B.acquire("t1", "a", "A1");
  B.acquire("t1", "b", "A2"); // t1: a -> b
  B.write("t1", "x", 1);
  B.release("t1", "b");
  B.release("t1", "a");
  B.acquire("t2", "b", "B1");
  B.acquire("t2", "a", "B2"); // t2: b -> a
  B.write("t2", "y", 1);
  B.release("t2", "a");
  B.release("t2", "b");
  return B.build();
}

} // namespace

TEST(Deadlock, PredictsOppositeOrderNesting) {
  Trace T = oppositeOrderTrace();
  DeadlockResult R = detectDeadlocks(T);
  ASSERT_EQ(R.Deadlocks.size(), 1u);
  const DeadlockReport &D = R.Deadlocks[0];
  EXPECT_NE(D.ThreadA, D.ThreadB);
  EXPECT_TRUE(D.WitnessValid);
  // The two inner requests are A2 (t1 acquiring b) and B2 (t2 acquiring a).
  EXPECT_TRUE((D.LocRequestA == "A2" && D.LocRequestB == "B2") ||
              (D.LocRequestA == "B2" && D.LocRequestB == "A2"));
}

TEST(Deadlock, SameOrderNestingIsSafe) {
  TraceBuilder B;
  B.acquire("t1", "a");
  B.acquire("t1", "b");
  B.release("t1", "b");
  B.release("t1", "a");
  B.acquire("t2", "a");
  B.acquire("t2", "b"); // same order: a -> b
  B.release("t2", "b");
  B.release("t2", "a");
  Trace T = B.build();
  DeadlockResult R = detectDeadlocks(T);
  EXPECT_TRUE(R.Deadlocks.empty());
}

TEST(Deadlock, GateLockPreventsDeadlock) {
  // Both nestings happen under a common gate lock g: the hold-and-wait
  // state requires both outer sections active at once, which g forbids.
  TraceBuilder B;
  B.acquire("t1", "g");
  B.acquire("t1", "a");
  B.acquire("t1", "b");
  B.release("t1", "b");
  B.release("t1", "a");
  B.release("t1", "g");
  B.acquire("t2", "g");
  B.acquire("t2", "b");
  B.acquire("t2", "a");
  B.release("t2", "a");
  B.release("t2", "b");
  B.release("t2", "g");
  Trace T = B.build();
  DeadlockResult R = detectDeadlocks(T);
  EXPECT_TRUE(R.Deadlocks.empty())
      << "the gate lock makes the cycle infeasible";
}

TEST(Deadlock, ForkJoinOrderPreventsDeadlock) {
  TraceBuilder B;
  B.acquire("t1", "a");
  B.acquire("t1", "b");
  B.release("t1", "b");
  B.release("t1", "a");
  B.fork("t1", "t2"); // t2 only exists after t1's nesting completed
  B.begin("t2");
  B.acquire("t2", "b");
  B.acquire("t2", "a");
  B.release("t2", "a");
  B.release("t2", "b");
  Trace T = B.build();
  DeadlockResult R = detectDeadlocks(T);
  EXPECT_TRUE(R.Deadlocks.empty());
}

TEST(Deadlock, ControlFlowCanRefuteTheCycle) {
  // t2 only takes the nested path after observing t1's post-release
  // write, so the hold state is infeasible.
  TraceBuilder B;
  B.acquire("t1", "a");
  B.acquire("t1", "b");
  B.release("t1", "b");
  B.release("t1", "a");
  B.write("t1", "flag", 1, "W");
  B.read("t2", "flag", 1, "R");
  B.branch("t2");
  B.acquire("t2", "b");
  B.acquire("t2", "a");
  B.release("t2", "a");
  B.release("t2", "b");
  Trace T = B.build();
  DeadlockResult R = detectDeadlocks(T);
  EXPECT_TRUE(R.Deadlocks.empty())
      << "the guarded nesting cannot overlap t1's sections";
}

TEST(Deadlock, UnguardedVariantIsPredicted) {
  // Same trace minus the branch: the read is data-abstract, the cycle is
  // feasible.
  TraceBuilder B;
  B.acquire("t1", "a");
  B.acquire("t1", "b");
  B.release("t1", "b");
  B.release("t1", "a");
  B.write("t1", "flag", 1, "W");
  B.read("t2", "flag", 1, "R");
  B.acquire("t2", "b");
  B.acquire("t2", "a");
  B.release("t2", "a");
  B.release("t2", "b");
  Trace T = B.build();
  DeadlockResult R = detectDeadlocks(T);
  EXPECT_EQ(R.Deadlocks.size(), 1u);
}

TEST(Deadlock, WitnessReplayReachesTheDeadlock) {
  // End to end: record a clean run of a deadlock-prone MiniRV program,
  // predict the deadlock, replay the witness prefix, and observe the
  // interpreter report an actual deadlock.
  const char *Source = R"(
shared x; lock a; lock b;
thread worker {
  lock b;
  x = x + 1;
  lock a;
  x = x + 2;
  unlock a;
  unlock b;
}
main {
  spawn worker;
  lock a;
  x = x + 10;
  lock b;
  x = x + 20;
  unlock b;
  unlock a;
  join worker;
}
)";
  // Record a schedule that does NOT deadlock: worker runs fully first.
  Trace T;
  RunResult Run;
  std::string Error;
  RoundRobinScheduler Recorder(100);
  ASSERT_TRUE(recordTrace(Source, T, Run, Error, &Recorder)) << Error;
  ASSERT_FALSE(Run.Deadlocked) << "the recording itself must be clean";

  DeadlockResult R = detectDeadlocks(T);
  ASSERT_EQ(R.Deadlocks.size(), 1u);
  const DeadlockReport &D = R.Deadlocks[0];
  ASSERT_TRUE(D.WitnessValid);

  // Truncate the witness schedule right before the later of the two
  // requests; following it drives both threads into their outer sections.
  size_t Cut = 0;
  for (size_t I = 0; I < D.Witness.size(); ++I)
    if (D.Witness[I] == D.RequestA || D.Witness[I] == D.RequestB)
      Cut = I;
  std::vector<ThreadId> Schedule;
  for (size_t I = 0; I < Cut; ++I)
    Schedule.push_back(T[D.Witness[I]].Tid);

  Trace Replayed;
  RunResult ReplayRun;
  ReplayScheduler S(Schedule);
  ASSERT_TRUE(recordTrace(Source, Replayed, ReplayRun, Error, &S));
  EXPECT_TRUE(ReplayRun.Deadlocked)
      << "the predicted schedule must reach the real deadlock";
}

namespace {

using EventPairs = std::vector<std::pair<EventId, EventId>>;

/// The all-pairs dependency scan, the reference collectLockDependencies
/// must match: every lock pair of the whole trace with its acquire in \p
/// Window, and each of them against every such section of the same thread
/// that encloses it, in (request, outer) order over the thread's sections
/// listed by lock and then by acquire.
std::vector<LockDependency> allPairsDependencies(const Trace &T,
                                                 Span Window) {
  struct Held {
    LockId Lock;
    LockPair Pair;
  };
  std::vector<std::vector<Held>> PerThread(T.numThreads());
  for (LockId Lock = 0; Lock < T.numLocks(); ++Lock)
    for (const LockPair &P : T.lockPairsOf(Lock))
      if (P.AcquireId != InvalidEvent && Window.contains(P.AcquireId))
        PerThread[P.Tid].push_back({Lock, P});
  std::vector<LockDependency> Deps;
  for (ThreadId Tid = 0; Tid < T.numThreads(); ++Tid)
    for (const Held &Req : PerThread[Tid])
      for (const Held &Out : PerThread[Tid])
        if (Out.Lock != Req.Lock && Out.Pair.ReleaseId != InvalidEvent &&
            Window.contains(Out.Pair.ReleaseId) &&
            Out.Pair.AcquireId < Req.Pair.AcquireId &&
            Req.Pair.AcquireId < Out.Pair.ReleaseId)
          Deps.push_back({Tid, Out.Lock, Req.Lock, Req.Pair.AcquireId,
                          Out.Pair, Req.Pair});
  return Deps;
}

/// The reference the deadlock policy's bounded scan must match: the
/// opposite-order pairs of different threads among the reference
/// dependencies.
EventPairs referenceCandidates(const Trace &T, Span Window) {
  std::vector<LockDependency> Deps = allPairsDependencies(T, Window);
  EventPairs Pairs;
  for (size_t I = 0; I < Deps.size(); ++I)
    for (size_t J = I + 1; J < Deps.size(); ++J)
      if (Deps[I].Tid != Deps[J].Tid &&
          Deps[I].OuterLock == Deps[J].InnerLock &&
          Deps[I].InnerLock == Deps[J].OuterLock)
        Pairs.emplace_back(Deps[I].Request, Deps[J].Request);
  return Pairs;
}

/// Compares, window by window, each lock's pairs starting in the window
/// and the deadlock candidates with the whole-trace filters; returns the
/// number of candidates seen.
size_t expectBoundedScanExact(const Trace &T, uint32_t WindowSize) {
  DetectorOptions Options;
  Options.WindowSize = WindowSize;
  std::unique_ptr<QueryPolicy> Policy = makeDeadlockPolicy(T, Options);
  size_t Seen = 0;
  for (Span Window : splitWindows(T, WindowSize)) {
    SCOPED_TRACE(Window.Begin);
    auto firstEvent = [](const LockPair &P) {
      return P.AcquireId != InvalidEvent ? P.AcquireId : P.ReleaseId;
    };
    for (LockId Lock = 0; Lock < T.numLocks(); ++Lock) {
      std::vector<EventId> Want, Got;
      for (const LockPair &P : T.lockPairsOf(Lock))
        if (Window.contains(firstEvent(P)))
          Want.push_back(firstEvent(P));
      for (const LockPair &P : T.lockPairsStartingIn(Lock, Window))
        Got.push_back(firstEvent(P));
      EXPECT_EQ(Got, Want) << "lock " << Lock;
    }
    WindowContext W(T, Window, T.initialValues(), Policy->Encoding,
                    /*Degraded=*/false);
    std::vector<Candidate> Cands;
    Policy->enumerate(W, Cands);
    EventPairs Got;
    for (const Candidate &C : Cands)
      Got.emplace_back(C.First, C.Second);
    EXPECT_EQ(Got, referenceCandidates(T, Window));
    Seen += Got.size();
  }
  return Seen;
}

} // namespace

// The deadlock scan visits only the lock pairs whose first event is in
// the window, and that is exact: a pair with its acquire in the window
// has that acquire as its first event.
TEST(Deadlock, BoundedScanMatchesWholeTraceFilter) {
  std::vector<Trace> Traces;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    RandomScheduler S(Seed);
    Trace T;
    RunResult Run;
    std::string Error;
    ASSERT_TRUE(recordTrace(fuzzProgram(Seed), T, Run, Error, &S)) << Error;
    Traces.push_back(std::move(T));
  }
  SyntheticSpec Derby = realSystemSpec("derby");
  Derby.TargetEvents = 8000;
  Derby.AtomicityPairs = 4;
  Derby.DeadlockCycles = 4;
  Traces.push_back(generateSynthetic(Derby));
  size_t Candidates = 0;
  for (const Trace &T : Traces)
    for (uint32_t WindowSize : {static_cast<uint32_t>(T.size()), 1000u, 37u})
      Candidates += expectBoundedScanExact(T, WindowSize);
  EXPECT_GT(Candidates, 0u);
}

namespace {

/// Every field of each dependency, in order, for EXPECT_EQ.
using DepFields = std::vector<std::array<uint64_t, 8>>;
DepFields fieldsOf(const std::vector<LockDependency> &Deps) {
  DepFields Out;
  for (const LockDependency &D : Deps)
    Out.push_back({D.Tid, D.OuterLock, D.InnerLock, D.Request,
                   D.Outer.AcquireId, D.Outer.ReleaseId,
                   D.RequestPair.AcquireId, D.RequestPair.ReleaseId});
  return Out;
}

/// The sweep equals the reference on \p Window; returns how many
/// dependencies it found.
size_t expectSweepMatchesReference(const Trace &T, Span Window) {
  std::vector<LockDependency> Got = collectLockDependencies(T, Window);
  EXPECT_EQ(fieldsOf(Got), fieldsOf(allPairsDependencies(T, Window)))
      << "window [" << Window.Begin << ", " << Window.End << ")";
  return Got.size();
}

/// (request, outer acquire) of each dependency over the whole trace.
EventPairs requestsAndOuters(const Trace &T) {
  EventPairs Out;
  for (const LockDependency &D : collectLockDependencies(T, T.fullSpan()))
    Out.emplace_back(D.Request, D.Outer.AcquireId);
  return Out;
}

/// The sweep equals the reference on every sub-window of \p T, so every
/// clipping of a section at the window start or end is covered.
void expectSweepMatchesOnEverySubWindow(const Trace &T) {
  for (EventId Begin = 0; Begin <= T.size(); ++Begin)
    for (EventId End = Begin; End <= T.size(); ++End)
      expectSweepMatchesReference(T, {Begin, End});
}

} // namespace

TEST(Deadlock, DependencySweepMatchesAllPairsReference) {
  size_t Found = 0;
  FuzzConfig Config;
  Config.MaxLocks = 3;
  Config.MaxStmtsPerThread = 12;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    RandomScheduler S(Seed * 13 + 1);
    Trace T;
    RunResult Run;
    std::string Error;
    ASSERT_TRUE(recordTrace(fuzzProgram(Seed, Config), T, Run, Error, &S))
        << Error;
    SCOPED_TRACE("fuzz seed " + std::to_string(Seed));
    for (uint32_t Width : {static_cast<uint32_t>(T.size()), 37u})
      for (Span Window : splitWindows(T, Width))
        Found += expectSweepMatchesReference(T, Window);
  }
  SyntheticSpec Derby = realSystemSpec("derby");
  Derby.TargetEvents = 8000;
  Derby.DeadlockCycles = 4;
  Trace T = generateSynthetic(Derby);
  for (uint32_t Width : {static_cast<uint32_t>(T.size()), 1000u, 37u})
    for (Span Window : splitWindows(T, Width))
      Found += expectSweepMatchesReference(T, Window);
  EXPECT_GT(Found, 0u);
}

TEST(Deadlock, DependencySweepHandOverHand) {
  // Hand-over-hand: each section is released after the next one starts,
  // so sections end out of nesting order.
  TraceBuilder B;
  B.acquire("t1", "a"); // 0
  B.acquire("t1", "b"); // 1
  B.release("t1", "a"); // 2
  B.acquire("t1", "c"); // 3
  B.release("t1", "b"); // 4
  B.acquire("t1", "d"); // 5
  B.release("t1", "c"); // 6
  B.release("t1", "d"); // 7
  B.acquire("t2", "d"); // 8
  B.acquire("t2", "a"); // 9
  B.release("t2", "a"); // 10
  B.release("t2", "d"); // 11
  Trace T = B.build();
  EXPECT_EQ(requestsAndOuters(T),
            (EventPairs{{1, 0}, {3, 1}, {5, 3}, {9, 8}}));
  expectSweepMatchesOnEverySubWindow(T);
}

TEST(Deadlock, DependencySweepRepeatedAcquireOfAHeldLock) {
  // t1 acquires a again while holding it: the first acquire pairs with
  // nothing, so only the second a section depends on b.
  TraceBuilder B;
  B.acquire("t1", "a"); // 0
  B.acquire("t1", "b"); // 1
  B.acquire("t1", "a"); // 2
  B.release("t1", "a"); // 3
  B.release("t1", "b"); // 4
  Trace T = B.build();
  EXPECT_EQ(requestsAndOuters(T), (EventPairs{{2, 1}}));
  expectSweepMatchesOnEverySubWindow(T);
}

TEST(Deadlock, DependencySweepKeepsLockThenAcquireOrder) {
  // Lock a is interned first (by t2), so t1's sections list as a, c, b
  // while the sweep meets them as c, b, a: the result must still follow
  // the list order, request first.
  TraceBuilder B;
  B.acquire("t2", "a"); // 0
  B.release("t2", "a"); // 1
  B.acquire("t1", "c"); // 2
  B.acquire("t1", "b"); // 3
  B.acquire("t1", "a"); // 4
  B.release("t1", "a"); // 5
  B.release("t1", "b"); // 6
  B.release("t1", "c"); // 7
  Trace T = B.build();
  EXPECT_EQ(requestsAndOuters(T), (EventPairs{{4, 2}, {4, 3}, {3, 2}}));
  expectSweepMatchesOnEverySubWindow(T);
}
