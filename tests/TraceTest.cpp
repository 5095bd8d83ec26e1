//===- tests/TraceTest.cpp - Unit tests for the trace model ----------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"
#include "trace/Trace.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/Window.h"
#include "workloads/Fuzzer.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

using namespace rvp;

namespace {

/// The running example of the paper: Figure 4's trace (events numbered
/// 1-15 in the paper; ids 0-14 here).
Trace figure4Trace() {
  TraceBuilder B;
  B.fork("t1", "t2", "f1");         // 1
  B.acquire("t1", "l", "f2");       // 2
  B.write("t1", "x", 1, "f3");      // 3
  B.write("t1", "y", 1, "f4");      // 4
  B.release("t1", "l", "f5");       // 5
  B.begin("t2", "f6");              // 6
  B.acquire("t2", "l", "f7");       // 7
  B.read("t2", "y", 1, "f8");       // 8
  B.release("t2", "l", "f9");       // 9
  B.read("t2", "x", 1, "f10");      // 10
  B.branch("t2", "f11");            // 11
  B.write("t2", "z", 1, "f12");     // 12
  B.end("t2", "f13");               // 13
  B.join("t1", "t2", "f14");        // 14
  B.read("t1", "z", 1, "f15");      // 15
  return B.build();
}

} // namespace

TEST(Trace, InterningIsStable) {
  Trace T;
  ThreadId T1 = T.internThread("t1");
  ThreadId T2 = T.internThread("t2");
  EXPECT_NE(T1, T2);
  EXPECT_EQ(T.internThread("t1"), T1);
  EXPECT_EQ(T.threadName(T1), "t1");
  VarId X = T.internVar("x");
  EXPECT_EQ(T.internVar("x"), X);
  EXPECT_EQ(T.varName(X), "x");
}

TEST(Trace, RollbackForgetsNewNames) {
  // Names interned since a mark are forgotten, however many there were;
  // the older names keep their ids and a forgotten name comes back with
  // the next free id.
  Trace T;
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(T.internVar("v" + std::to_string(I)), static_cast<VarId>(I));
  Trace::Mark M = T.mark();
  for (int I = 0; I < 500; ++I)
    T.internVar("w" + std::to_string(I));
  T.rollback(M);
  ASSERT_EQ(T.numVars(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(T.internVar("v" + std::to_string(I)), static_cast<VarId>(I));
  EXPECT_EQ(T.internVar("w7"), 100u);
  EXPECT_EQ(T.internVar("w3"), 101u);
  // One name at a time, as a skip-bad reader rolls back a rejected line.
  for (int I = 0; I < 1000; ++I) {
    Trace::Mark Line = T.mark();
    T.internVar("x" + std::to_string(I));
    if (I % 3 == 0)
      T.rollback(Line);
  }
  ASSERT_EQ(T.numVars(), 102u + 666u);
  for (VarId Id = 0; Id < T.numVars(); ++Id)
    EXPECT_EQ(T.internVar(T.varName(Id)), Id);
  VarId Next = T.numVars();
  EXPECT_EQ(T.internVar("x0"), Next);
}

TEST(Trace, NameTableHoldsManyNames) {
  // 120k distinct names grow the table many times over. Among them: names
  // that differ only after their first 16 bytes (which a slot holds
  // inline), names of exactly 16 bytes, and names that differ only in
  // length.
  std::vector<std::string> Names;
  for (int I = 0; I < 40000; ++I) {
    Names.push_back("org.eclipse.core" + std::to_string(I));
    char Padded[17];
    std::snprintf(Padded, sizeof(Padded), "%016d", I);
    Names.push_back(Padded);
    Names.push_back("v" + std::to_string(I));
  }
  for (size_t Length = 1; Length <= 64; ++Length)
    Names.push_back(std::string(Length, 'a'));
  Trace T;
  for (size_t I = 0; I < Names.size(); ++I)
    ASSERT_EQ(T.internVar(Names[I]), static_cast<VarId>(I)) << Names[I];
  ASSERT_EQ(T.numVars(), Names.size());
  for (size_t I = 0; I < Names.size(); ++I) {
    ASSERT_EQ(T.internVar(Names[I]), static_cast<VarId>(I)) << Names[I];
    ASSERT_EQ(T.varName(static_cast<VarId>(I)), Names[I]);
  }
  // Each kind has its own table.
  EXPECT_EQ(T.internLock(Names.back()), 0u);
  EXPECT_EQ(T.internThread(Names[1]), 0u);

  // A rollback across several growths leaves exactly the old ids; the
  // forgotten names come back with fresh ids in their new order.
  Trace U;
  for (size_t I = 0; I < 1000; ++I)
    U.internVar(Names[I]);
  Trace::Mark M = U.mark();
  for (size_t I = 1000; I < Names.size(); ++I)
    U.internVar(Names[I]);
  U.rollback(M);
  ASSERT_EQ(U.numVars(), 1000u);
  for (size_t I = 0; I < 1000; ++I)
    ASSERT_EQ(U.internVar(Names[I]), static_cast<VarId>(I)) << Names[I];
  for (size_t I = Names.size(); I-- > 1000;)
    ASSERT_EQ(U.internVar(Names[I]),
              static_cast<VarId>(1000 + Names.size() - 1 - I))
        << Names[I];
}

TEST(Trace, Figure4Shape) {
  Trace T = figure4Trace();
  EXPECT_EQ(T.size(), 15u);
  TraceStats S = T.stats();
  EXPECT_EQ(S.Threads, 2u);
  EXPECT_EQ(S.Events, 15u);
  EXPECT_EQ(S.ReadsWrites, 6u);
  EXPECT_EQ(S.Branches, 1u);
  EXPECT_EQ(S.Syncs, 8u);
}

TEST(Trace, ThreadProjections) {
  Trace T = figure4Trace();
  ThreadId T1 = T.internThread("t1");
  ThreadId T2 = T.internThread("t2");
  std::vector<EventId> Expect1 = {0, 1, 2, 3, 4, 13, 14};
  std::vector<EventId> Expect2 = {5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_EQ(T.threadEvents(T1), Expect1);
  EXPECT_EQ(T.threadEvents(T2), Expect2);
}

TEST(Trace, VariableAccessLists) {
  Trace T = figure4Trace();
  VarId X = T.internVar("x");
  VarId Y = T.internVar("y");
  VarId Z = T.internVar("z");
  EXPECT_EQ(T.accessesOf(X), (std::vector<EventId>{2, 9}));
  EXPECT_EQ(T.accessesOf(Y), (std::vector<EventId>{3, 7}));
  EXPECT_EQ(T.accessesOf(Z), (std::vector<EventId>{11, 14}));
}

TEST(Trace, LockPairs) {
  Trace T = figure4Trace();
  LockId L = T.internLock("l");
  const auto &Pairs = T.lockPairsOf(L);
  ASSERT_EQ(Pairs.size(), 2u);
  EXPECT_EQ(Pairs[0].AcquireId, 1u);
  EXPECT_EQ(Pairs[0].ReleaseId, 4u);
  EXPECT_EQ(Pairs[1].AcquireId, 6u);
  EXPECT_EQ(Pairs[1].ReleaseId, 8u);
}

TEST(Trace, ForkJoinBeginEndIndex) {
  Trace T = figure4Trace();
  ThreadId T2 = T.internThread("t2");
  EXPECT_EQ(T.forkOf(T2), 0u);
  EXPECT_EQ(T.beginOf(T2), 5u);
  EXPECT_EQ(T.endOf(T2), 12u);
  EXPECT_EQ(T.joinOf(T2), 13u);
  ThreadId T1 = T.internThread("t1");
  EXPECT_EQ(T.forkOf(T1), InvalidEvent);
  EXPECT_EQ(T.joinOf(T1), InvalidEvent);
}

TEST(Trace, HalfOpenLockPair) {
  TraceBuilder B;
  B.acquire("t1", "l");
  B.write("t1", "x", 1);
  Trace T = B.build();
  const auto &Pairs = T.lockPairsOf(T.internLock("l"));
  ASSERT_EQ(Pairs.size(), 1u);
  EXPECT_EQ(Pairs[0].AcquireId, 0u);
  EXPECT_EQ(Pairs[0].ReleaseId, InvalidEvent);
}

TEST(Trace, ReleaseWithoutAcquireInFragment) {
  TraceBuilder B;
  B.write("t1", "x", 1);
  B.release("t1", "l");
  Trace T = B.build();
  const auto &Pairs = T.lockPairsOf(T.internLock("l"));
  ASSERT_EQ(Pairs.size(), 1u);
  EXPECT_EQ(Pairs[0].AcquireId, InvalidEvent);
  EXPECT_EQ(Pairs[0].ReleaseId, 1u);
}

TEST(Trace, ConflictingPredicate) {
  Trace T = figure4Trace();
  // (3,10) in paper numbering = ids (2,9): write x vs read x, two threads.
  EXPECT_TRUE(conflicting(T[2], T[9]));
  EXPECT_TRUE(conflicting(T[9], T[2]) ||
              !T[9].isWrite()); // read-first pair conflicts via B write
  // Same-thread accesses never conflict.
  EXPECT_FALSE(conflicting(T[2], T[3]));
  // Read-read does not conflict.
  TraceBuilder B;
  B.read("a", "v", 0);
  B.read("b", "v", 0);
  Trace RR = B.build();
  EXPECT_FALSE(conflicting(RR[0], RR[1]));
}

TEST(Trace, VolatileAccessesNeverConflict) {
  TraceBuilder B;
  B.write("a", "v", 1, "", /*IsVolatile=*/true);
  B.read("b", "v", 1, "", /*IsVolatile=*/true);
  Trace T = B.build();
  EXPECT_FALSE(conflicting(T[0], T[1]));
}

TEST(Trace, StatsOverSpan) {
  Trace T = figure4Trace();
  TraceStats S = T.stats({0, 5});
  EXPECT_EQ(S.Events, 5u);
  EXPECT_EQ(S.Threads, 1u);
  EXPECT_EQ(S.ReadsWrites, 2u);
}

TEST(Window, SplitsEvenly) {
  Trace T = figure4Trace();
  auto Windows = splitWindows(T, 4);
  ASSERT_EQ(Windows.size(), 4u);
  EXPECT_EQ(Windows[0].Begin, 0u);
  EXPECT_EQ(Windows[0].End, 4u);
  EXPECT_EQ(Windows[3].Begin, 12u);
  EXPECT_EQ(Windows[3].End, 15u);
}

TEST(Window, ZeroMeansWholeTrace) {
  Trace T = figure4Trace();
  auto Windows = splitWindows(T, 0);
  ASSERT_EQ(Windows.size(), 1u);
  EXPECT_EQ(Windows[0].size(), 15u);
}

TEST(Window, EmptyTrace) {
  Trace T;
  EXPECT_TRUE(splitWindows(T, 10).empty());
  EXPECT_TRUE(splitWindows(T, 0).empty());
}

TEST(Event, ToStringForms) {
  TraceBuilder B;
  B.write("t1", "x", 5);
  B.acquire("t1", "l");
  B.branch("t1");
  B.fork("t1", "t2");
  Trace T = B.build();
  EXPECT_EQ(toString(T[0]), "write(t0, v0, 5)");
  EXPECT_EQ(toString(T[1]), "acquire(t0, l0)");
  EXPECT_EQ(toString(T[2]), "branch(t0)");
  EXPECT_EQ(toString(T[3]), "fork(t0, t1)");
}

// ----------------------------------------------------- incremental indices

namespace {

/// The derived indices of a trace rebuilt from its events in one pass
/// after the last append — the reference the incremental indices must
/// equal at every prefix.
struct RebuiltIndex {
  std::vector<std::vector<EventId>> ByThread, ByVar;
  std::vector<std::vector<LockPair>> ByLock;
  std::vector<EventId> Fork, Begin, End, Join;
  std::unordered_map<uint32_t, EventId> NotifyByMatch;
};

RebuiltIndex rebuildIndex(const Trace &T) {
  RebuiltIndex R;
  R.ByThread.assign(T.numThreads(), {});
  R.ByVar.assign(T.numVars(), {});
  R.ByLock.assign(T.numLocks(), {});
  R.Fork.assign(T.numThreads(), InvalidEvent);
  R.Begin.assign(T.numThreads(), InvalidEvent);
  R.End.assign(T.numThreads(), InvalidEvent);
  R.Join.assign(T.numThreads(), InvalidEvent);
  // Pending (unmatched) acquire per lock per thread, for pair building.
  std::vector<std::unordered_map<ThreadId, EventId>> Pending(T.numLocks());
  for (EventId Id = 0; Id < T.size(); ++Id) {
    const Event &E = T[Id];
    R.ByThread[E.Tid].push_back(Id);
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      R.ByVar[E.Target].push_back(Id);
      break;
    case EventKind::Acquire:
      Pending[E.Target][E.Tid] = Id;
      break;
    case EventKind::Release: {
      auto &PerThread = Pending[E.Target];
      auto It = PerThread.find(E.Tid);
      LockPair Pair;
      Pair.ReleaseId = Id;
      Pair.Tid = E.Tid;
      Pair.Lock = E.Target;
      if (It != PerThread.end()) {
        Pair.AcquireId = It->second;
        PerThread.erase(It);
      }
      R.ByLock[E.Target].push_back(Pair);
      break;
    }
    case EventKind::Fork:
      R.Fork[E.Target] = Id;
      break;
    case EventKind::Join:
      R.Join[E.Target] = Id;
      break;
    case EventKind::Begin:
      R.Begin[E.Tid] = Id;
      break;
    case EventKind::End:
      R.End[E.Tid] = Id;
      break;
    case EventKind::Notify:
      if (E.Aux != 0)
        R.NotifyByMatch[E.Aux] = Id;
      break;
    case EventKind::Branch:
    case EventKind::Wait:
      break;
    }
  }
  // Acquires still held at the end of the trace become half-open pairs,
  // and each lock's pairs are sorted by their first event.
  for (LockId Lock = 0; Lock < T.numLocks(); ++Lock) {
    for (const auto &[Tid, AcqId] : Pending[Lock]) {
      LockPair Pair;
      Pair.AcquireId = AcqId;
      Pair.Tid = Tid;
      Pair.Lock = Lock;
      R.ByLock[Lock].push_back(Pair);
    }
    std::sort(R.ByLock[Lock].begin(), R.ByLock[Lock].end(),
              [](const LockPair &A, const LockPair &B) {
                EventId KeyA =
                    A.AcquireId != InvalidEvent ? A.AcquireId : A.ReleaseId;
                EventId KeyB =
                    B.AcquireId != InvalidEvent ? B.AcquireId : B.ReleaseId;
                return KeyA < KeyB;
              });
  }
  return R;
}

std::vector<std::array<uint32_t, 4>> pairFields(
    const std::vector<LockPair> &Pairs) {
  std::vector<std::array<uint32_t, 4>> Out;
  for (const LockPair &P : Pairs)
    Out.push_back({P.AcquireId, P.ReleaseId, P.Tid, P.Lock});
  return Out;
}

/// Every index accessor of \p T equals the one-pass rebuild.
void expectIndexMatchesRebuild(const Trace &T, const std::string &What) {
  SCOPED_TRACE(What + " at " + std::to_string(T.size()) + " events");
  RebuiltIndex R = rebuildIndex(T);
  for (ThreadId Tid = 0; Tid < T.numThreads(); ++Tid) {
    EXPECT_EQ(T.threadEvents(Tid), R.ByThread[Tid]) << "thread " << Tid;
    EXPECT_EQ(T.forkOf(Tid), R.Fork[Tid]) << "thread " << Tid;
    EXPECT_EQ(T.beginOf(Tid), R.Begin[Tid]) << "thread " << Tid;
    EXPECT_EQ(T.endOf(Tid), R.End[Tid]) << "thread " << Tid;
    EXPECT_EQ(T.joinOf(Tid), R.Join[Tid]) << "thread " << Tid;
  }
  for (VarId Var = 0; Var < T.numVars(); ++Var)
    EXPECT_EQ(T.accessesOf(Var), R.ByVar[Var]) << "variable " << Var;
  for (LockId Lock = 0; Lock < T.numLocks(); ++Lock)
    EXPECT_EQ(pairFields(T.lockPairsOf(Lock)), pairFields(R.ByLock[Lock]))
        << "lock " << Lock;
  std::unordered_set<uint32_t> Matches = {0, 0xfffffffe};
  for (const Event &E : T.events())
    Matches.insert(E.Aux);
  for (uint32_t Aux : Matches) {
    auto It = R.NotifyByMatch.find(Aux);
    EXPECT_EQ(T.notifyOfMatch(Aux),
              It == R.NotifyByMatch.end() ? InvalidEvent : It->second)
        << "match " << Aux;
  }
}

/// Appends \p Source's events one by one to a fresh trace with the same
/// name tables, comparing against the rebuild about \p Samples times on
/// the way and at the end; then compares \p Source itself.
void expectEveryPrefixMatches(const Trace &Source, const std::string &What,
                              uint64_t Samples = 24) {
  Trace T;
  for (ThreadId Tid = 0; Tid < Source.numThreads(); ++Tid)
    T.internThread(Source.threadName(Tid));
  for (VarId Var = 0; Var < Source.numVars(); ++Var)
    T.internVar(Source.varName(Var));
  for (LockId Lock = 0; Lock < Source.numLocks(); ++Lock)
    T.internLock(Source.lockName(Lock));
  uint64_t Every = std::max<uint64_t>(1, Source.size() / Samples);
  for (EventId Id = 0; Id < Source.size(); ++Id) {
    T.append(Source[Id]);
    if (T.size() % Every == 0)
      expectIndexMatchesRebuild(T, What);
  }
  expectIndexMatchesRebuild(T, What);
  expectIndexMatchesRebuild(Source, What + " (source)");
}

Trace recordFuzzedTrace(uint64_t Seed) {
  Trace T;
  RunResult Result;
  std::string Error;
  RandomScheduler S(Seed * 17 + 5);
  FuzzConfig Config;
  Config.MaxThreads = 4;
  Config.MaxStmtsPerThread = 24;
  Config.MaxLoopIters = 5;
  RunLimits Limits;
  Limits.MaxEvents = 4000;
  EXPECT_TRUE(recordTrace(fuzzProgram(Seed, Config), T, Result, Error, &S,
                          Limits))
      << Error;
  return T;
}

} // namespace

TEST(TraceIndex, FuzzedRecordingsMatchRebuild) {
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    Trace T = recordFuzzedTrace(Seed);
    EXPECT_GT(T.size(), 50u);
    expectEveryPrefixMatches(T, "fuzz seed " + std::to_string(Seed));
    // The text reader interns, judges and appends line by line.
    std::string Error;
    std::optional<Trace> Parsed = parseTraceText(writeTraceText(T), Error);
    ASSERT_TRUE(Parsed) << Error;
    expectIndexMatchesRebuild(*Parsed, "parsed seed " + std::to_string(Seed));
  }
}

TEST(TraceIndex, SyntheticTracesMatchRebuild) {
  SyntheticSpec Spec;
  Spec.Workers = 5;
  Spec.TargetEvents = 3000;
  Spec.PlainRaces = 3;
  Spec.CpOnlyRaces = 1;
  Spec.RvOnlyRaces = 2;
  Spec.AtomicityPairs = 2;
  Spec.DeadlockCycles = 2;
  Spec.AlignWindow = 500;
  for (uint64_t Seed : {1, 2, 3}) {
    Spec.Seed = Seed;
    expectEveryPrefixMatches(generateSynthetic(Spec),
                             "synthetic seed " + std::to_string(Seed));
  }
}

TEST(TraceIndex, EdgeTracesMatchRebuild) {
  TraceBuilder B;
  B.fork("t1", "t2");
  B.fork("t1", "t2"); // a second fork of one thread
  B.release("t1", "l"); // a release without an acquire
  B.acquire("t1", "l");
  B.acquire("t2", "l");
  B.acquire("t1", "l"); // re-acquired by its holder, behind t2's acquire
  B.release("t2", "l");
  B.release("t1", "l");
  B.waitSuspend("t2", "m", 7);
  B.notify("t1", "m", 7);
  B.notify("t1", "m", 7); // two notifies with one match id
  B.waitResume("t2", "m", 7);
  B.begin("t2");
  B.end("t2");
  B.join("t1", "t2");
  B.acquire("t1", "m"); // held at the end
  Trace T = B.build();
  expectEveryPrefixMatches(T, "edge trace", T.size());

  LockId L = 0, M = 1;
  // The holder's first acquire (event 3) pairs with nothing.
  EXPECT_EQ(pairFields(T.lockPairsOf(L)),
            (std::vector<std::array<uint32_t, 4>>{
                {InvalidEvent, 2, 0, L}, {4, 6, 1, L}, {5, 7, 0, L}}));
  EXPECT_EQ(pairFields(T.lockPairsOf(M)),
            (std::vector<std::array<uint32_t, 4>>{{InvalidEvent, 8, 1, M},
                                                  {11, InvalidEvent, 1, M},
                                                  {15, InvalidEvent, 0, M}}));
  EXPECT_EQ(T.forkOf(1), 1u);
  EXPECT_EQ(T.notifyOfMatch(7), 10u);

  // The text reader drops the lines a trace must not have (the second
  // fork, the acquires of a held lock, ...) before appending anything.
  std::string Error;
  TraceParseOptions SkipBad;
  SkipBad.SkipBadEvents = true;
  TraceParseStats Stats;
  std::optional<Trace> Parsed =
      parseTraceText(writeTraceText(T), Error, SkipBad, &Stats);
  ASSERT_TRUE(Parsed) << Error;
  EXPECT_GT(Stats.SkippedEvents, 0u);
  expectIndexMatchesRebuild(*Parsed, "edge trace, skip-bad parse");
}

namespace {

/// The reference for Trace::lockPairsTouching: every pair of \p Lock in
/// the whole trace, kept when its acquire or its release lies in \p Window.
std::vector<LockPair> wholeTraceSections(const Trace &T, LockId Lock,
                                         Span Window) {
  std::vector<LockPair> Pairs;
  for (const LockPair &P : T.lockPairsOf(Lock))
    if (Window.contains(P.AcquireId) || Window.contains(P.ReleaseId))
      Pairs.push_back(P);
  return Pairs;
}

} // namespace

// The seam view finds a window's critical sections by binary search, and
// that is exact on recorded traces: at most one thread holds a lock at
// the seam, and its pair is the last one to start before it.
TEST(TraceIndex, SeamViewMatchesWholeTraceFilter) {
  std::vector<Trace> Traces;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed)
    Traces.push_back(recordFuzzedTrace(Seed));
  for (const char *Name : {"derby", "eclipse"}) {
    SyntheticSpec Spec = realSystemSpec(Name);
    Spec.TargetEvents = 8000;
    Traces.push_back(generateSynthetic(Spec));
  }
  size_t Straddling = 0;
  for (const Trace &T : Traces) {
    for (uint32_t WindowSize : {static_cast<uint32_t>(T.size()), 1000u, 37u}) {
      for (Span Window : splitWindows(T, WindowSize)) {
        for (LockId Lock = 0; Lock < T.numLocks(); ++Lock) {
          std::span<const LockPair> Seen = T.lockPairsTouching(Lock, Window);
          std::vector<LockPair> Got(Seen.begin(), Seen.end());
          EXPECT_EQ(pairFields(Got),
                    pairFields(wholeTraceSections(T, Lock, Window)))
              << "window " << Window.Begin << ", lock " << Lock;
          for (const LockPair &P : Got)
            Straddling += P.AcquireId != InvalidEvent &&
                          P.acquireIn(Window) == InvalidEvent;
        }
      }
    }
  }
  EXPECT_GT(Straddling, 0u) << "no window starts inside a critical section";
}

TEST(Window, CountAndIndexAgreeWithSplit) {
  for (uint64_t Total : {0u, 1u, 14u, 15u, 16u}) {
    for (uint32_t Size : {0u, 1u, 4u, 15u, 40u}) {
      SCOPED_TRACE(std::to_string(Total) + " events, window " +
                   std::to_string(Size));
      TraceBuilder B;
      for (uint64_t I = 0; I < Total; ++I)
        B.branch("t1");
      Trace T = B.build();
      std::vector<Span> Windows = splitWindows(T, Size);
      ASSERT_EQ(windowCount(Total, Size, /*Final=*/true), Windows.size());
      for (uint64_t K = 0; K < Windows.size(); ++K) {
        EXPECT_EQ(windowAt(Total, Size, K).Begin, Windows[K].Begin);
        EXPECT_EQ(windowAt(Total, Size, K).End, Windows[K].End);
      }
      // Before the end only full windows count; one whole-trace window
      // never is.
      uint64_t Full = 0;
      for (Span W : Windows)
        Full += Size != 0 && W.size() == Size;
      EXPECT_EQ(windowCount(Total, Size, /*Final=*/false), Full);
    }
  }
}
