//===- tests/DetectInternalsTest.cpp - COP/encoder/witness internals ------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticPrune.h"
#include "detect/Atomicity.h"
#include "detect/Cop.h"
#include "detect/Deadlock.h"
#include "detect/Detect.h"
#include "detect/Lockset.h"
#include "detect/RaceEncoder.h"
#include "detect/WindowDriver.h"
#include "detect/WitnessChecker.h"
#include "lang/Parser.h"
#include "runtime/Interpreter.h"
#include "runtime/Scheduler.h"
#include "smt/Solver.h"
#include "support/FaultInjector.h"
#include "workloads/Catalog.h"
#include "workloads/Fuzzer.h"
#include "workloads/Synthetic.h"

#include "trace/TraceBuilder.h"
#include "trace/Window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace rvp;

// ------------------------------------------------------------------ COPs

TEST(Cop, EnumeratesConflictingPairs) {
  TraceBuilder B;
  B.write("t1", "x", 1); // 0
  B.read("t2", "x", 1);  // 1
  B.read("t3", "x", 1);  // 2
  B.write("t1", "y", 1); // 3
  Trace T = B.build();
  std::vector<Cop> Cops = collectCops(T, T.fullSpan());
  // (0,1), (0,2); the two reads do not conflict; y has one access.
  ASSERT_EQ(Cops.size(), 2u);
  EXPECT_EQ(Cops[0].First, 0u);
  EXPECT_EQ(Cops[0].Second, 1u);
  EXPECT_EQ(Cops[1].Second, 2u);
}

TEST(Cop, RespectsWindow) {
  TraceBuilder B;
  B.write("t1", "x", 1); // 0
  B.write("t2", "x", 2); // 1
  B.write("t1", "x", 3); // 2
  Trace T = B.build();
  // (0,1) and (1,2); (0,2) is same-thread and therefore not a COP.
  EXPECT_EQ(collectCops(T, T.fullSpan()).size(), 2u);
  EXPECT_EQ(collectCops(T, {0, 2}).size(), 1u);
  EXPECT_EQ(collectCops(T, {1, 3}).size(), 1u);
  EXPECT_EQ(collectCops(T, {2, 3}).size(), 0u);
}

TEST(Cop, SignatureIsUnordered) {
  TraceBuilder B;
  B.write("t1", "x", 1, "locA");
  B.write("t2", "x", 2, "locB");
  Trace T = B.build();
  EXPECT_EQ(RaceSignature::of(T, 0, 1).key(),
            RaceSignature::of(T, 1, 0).key());
}

namespace {

/// The enumeration collectCops had before it skipped single-thread
/// slices: every pair of a variable's accesses in the window, checked with
/// conflicting().
std::vector<Cop> allPairsCops(const Trace &T, Span S) {
  std::vector<Cop> Cops;
  for (VarId Var = 0; Var < T.numVars(); ++Var) {
    const std::vector<EventId> &Accesses = T.accessesOf(Var);
    auto Begin = std::lower_bound(Accesses.begin(), Accesses.end(), S.Begin);
    auto End = std::lower_bound(Begin, Accesses.end(), S.End);
    for (auto I = Begin; I != End; ++I) {
      const Event &A = T[*I];
      if (A.Volatile)
        continue;
      for (auto J = I + 1; J != End; ++J)
        if (conflicting(A, T[*J]))
          Cops.push_back({*I, *J});
    }
  }
  return Cops;
}

std::vector<std::pair<EventId, EventId>> pairsOf(const std::vector<Cop> &C) {
  std::vector<std::pair<EventId, EventId>> Pairs;
  for (const Cop &P : C)
    Pairs.emplace_back(P.First, P.Second);
  return Pairs;
}

/// collectCops equals the reference, in order, over the whole trace and
/// over every window of 1000 and of 37 events.
void expectCopsMatchReference(const Trace &T, const std::string &What) {
  EXPECT_EQ(pairsOf(collectCops(T, T.fullSpan())),
            pairsOf(allPairsCops(T, T.fullSpan())))
      << What << ", full span";
  for (EventId Width : {1000u, 37u})
    for (EventId Begin = 0; Begin < T.size(); Begin += Width) {
      Span W{Begin, static_cast<EventId>(
                        std::min<uint64_t>(Begin + Width, T.size()))};
      ASSERT_EQ(pairsOf(collectCops(T, W)), pairsOf(allPairsCops(T, W)))
          << What << ", window [" << W.Begin << ", " << W.End << ")";
    }
}

} // namespace

TEST(Cop, MatchesAllPairsReference) {
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
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
    ASSERT_TRUE(recordTrace(fuzzProgram(Seed, Config), T, Result, Error, &S,
                            Limits))
        << Error;
    expectCopsMatchReference(T, "fuzz seed " + std::to_string(Seed));
  }

  for (const char *Shape : {"eclipse", "derby"}) {
    SyntheticSpec Spec = realSystemSpec(Shape);
    Spec.TargetEvents = 8000;
    Spec.AlignWindow = 1000;
    expectCopsMatchReference(generateSynthetic(Spec), Shape);
  }

  // Edge slices: y is owned by t1 (a volatile access included) in every
  // window; x's second thread shows up only at the last event of [0, 6);
  // z has no access in [0, 6).
  TraceBuilder B;
  B.write("t1", "x", 1);                 // 0
  B.write("t1", "y", 1, "", true);       // 1
  B.read("t1", "y", 1);                  // 2
  B.write("t1", "y", 2, "", true);       // 3
  B.write("t1", "x", 2);                 // 4
  B.read("t2", "x", 2);                  // 5
  B.write("t2", "z", 1);                 // 6
  B.write("t2", "y", 3, "", true);       // 7
  B.write("t1", "z", 2);                 // 8
  Trace T = B.build();
  EXPECT_EQ(pairsOf(collectCops(T, {0, 6})),
            (std::vector<std::pair<EventId, EventId>>{{0, 5}, {4, 5}}));
  EXPECT_TRUE(collectCops(T, {0, 5}).empty());
  expectCopsMatchReference(T, "edge trace");
  for (EventId Begin = 0; Begin < T.size(); ++Begin)
    for (EventId End = Begin; End <= T.size(); ++End)
      EXPECT_EQ(pairsOf(collectCops(T, {Begin, End})),
                pairsOf(allPairsCops(T, {Begin, End})))
          << "edge trace, [" << Begin << ", " << End << ")";
}

// --------------------------------------------------------------- lockset

TEST(Lockset, TracksHeldLocks) {
  TraceBuilder B;
  B.acquire("t1", "l1");  // 0
  B.acquire("t1", "l2");  // 1
  B.write("t1", "x", 1);  // 2: holds {l1,l2}
  B.release("t1", "l2");  // 3
  B.write("t1", "x", 2);  // 4: holds {l1}
  B.release("t1", "l1");  // 5
  B.write("t1", "x", 3);  // 6: holds {}
  Trace T = B.build();
  LocksetIndex Ls(T, T.fullSpan());
  EXPECT_EQ(Ls.heldAt(2).size(), 2u);
  EXPECT_EQ(Ls.heldAt(4).size(), 1u);
  EXPECT_TRUE(Ls.heldAt(6).empty());
}

TEST(Lockset, DisjointnessBySharedLock) {
  TraceBuilder B;
  B.acquire("t1", "l");
  B.write("t1", "x", 1); // 1
  B.release("t1", "l");
  B.acquire("t2", "l");
  B.acquire("t2", "m");
  B.write("t2", "x", 2); // 5
  B.release("t2", "m");
  B.release("t2", "l");
  B.write("t3", "x", 3); // 8
  Trace T = B.build();
  LocksetIndex Ls(T, T.fullSpan());
  EXPECT_FALSE(Ls.disjoint(1, 5)) << "both hold l";
  EXPECT_TRUE(Ls.disjoint(1, 8));
  EXPECT_TRUE(Ls.disjoint(5, 8));
}

TEST(Lockset, QuickCheckFiltersOrderedAndLocked) {
  TraceBuilder B;
  B.write("t1", "a", 1);  // 0: MHB-ordered with 4 via fork
  B.fork("t1", "t2");     // 1
  B.begin("t2");          // 2
  B.write("t2", "a", 2);  // 3
  B.write("t2", "b", 1);  // 4
  B.write("t1", "b", 2);  // 5: concurrent with 4 -> passes
  Trace T = B.build();
  EventClosure Mhb(T, T.fullSpan(), ClosureConfig::mhb());
  QuickCheck Qc(T, T.fullSpan(), Mhb);
  EXPECT_FALSE(Qc.pass({0, 3})) << "fork orders the pair";
  EXPECT_TRUE(Qc.pass({4, 5}));
}

// --------------------------------------------------------------- encoder

namespace {

struct EncoderFixture {
  EncoderFixture(Trace Built)
      : T(std::move(Built)), Mhb(T, T.fullSpan(), ClosureConfig::mhb()),
        Encoder(T, T.fullSpan(), Mhb, T.initialValues()) {}

  SatResult solveRace(EventId A, EventId B) {
    FormulaBuilder FB;
    NodeRef Root = Encoder.encodeMaximalRace(FB, A, B);
    return createIdlSolver()->solve(FB, Root, Deadline(), nullptr);
  }

  Trace T;
  EventClosure Mhb;
  RaceEncoder Encoder;
};

} // namespace

TEST(RaceEncoder, GuardingBranchesPerThread) {
  TraceBuilder B;
  B.branch("t1");        // 0
  B.branch("t1");        // 1
  B.write("t1", "x", 1); // 2
  B.fork("t1", "t2");    // 3
  B.begin("t2");         // 4
  B.write("t2", "y", 1); // 5
  B.branch("t1");        // 6: after the fork, does NOT guard t2
  Trace T = B.build();
  EventClosure Mhb(T, T.fullSpan(), ClosureConfig::mhb());
  RaceEncoder Encoder(T, T.fullSpan(), Mhb, T.initialValues());

  // For t1's write: only the last of its own preceding branches.
  EXPECT_EQ(Encoder.guardingBranches(2), (std::vector<EventId>{1}));
  // For t2's write: t1's branch 1 (before the fork) guards it via MHB.
  EXPECT_EQ(Encoder.guardingBranches(5), (std::vector<EventId>{1}));
}

TEST(RaceEncoder, MhbOrderedPairIsUnsat) {
  TraceBuilder B;
  B.write("t1", "x", 1); // 0
  B.fork("t1", "t2");    // 1
  B.begin("t2");         // 2
  B.write("t2", "x", 2); // 3
  EncoderFixture F(B.build());
  EXPECT_EQ(F.solveRace(0, 3), SatResult::Unsat);
}

TEST(RaceEncoder, ConcurrentPairIsSat) {
  TraceBuilder B;
  B.fork("t1", "t2");
  B.begin("t2");
  B.write("t1", "x", 1); // 2
  B.write("t2", "x", 2); // 3
  EncoderFixture F(B.build());
  EXPECT_EQ(F.solveRace(2, 3), SatResult::Sat);
}

TEST(RaceEncoder, WindowInitialValueEnablesReads) {
  // A read of value 7 is only justifiable if the window's initial value
  // is 7 (set by a write in a previous window).
  TraceBuilder B;
  B.write("t1", "x", 7);  // 0: previous window
  B.branch("t2");         // 1: window starts here
  B.read("t2", "x", 7);   // 2
  B.branch("t2");         // 3
  B.write("t2", "y", 1);  // 4
  B.write("t1", "y", 2);  // 5
  Trace T = B.build();
  Span Window = {1, 6};
  EventClosure Mhb(T, Window, ClosureConfig::mhb());

  // With the correct carried-in value, the race on y is feasible.
  std::vector<Value> Carried(T.numVars(), 0);
  Carried[T.internVar("x")] = 7;
  RaceEncoder Good(T, Window, Mhb, Carried);
  FormulaBuilder FB1;
  EXPECT_EQ(createIdlSolver()->solve(
                FB1, Good.encodeMaximalRace(FB1, 4, 5), Deadline(), nullptr),
            SatResult::Sat);

  // With a wrong initial value the guarded read can never be concrete.
  RaceEncoder Bad(T, Window, Mhb, std::vector<Value>(T.numVars(), 0));
  FormulaBuilder FB2;
  EXPECT_EQ(createIdlSolver()->solve(
                FB2, Bad.encodeMaximalRace(FB2, 4, 5), Deadline(), nullptr),
            SatResult::Unsat);
}

TEST(RaceEncoder, InterferingWriteForcesOrdering) {
  // b is guarded by a branch whose read saw value 1 from w1; a second
  // write w2 of a different value must not land between w1 and the read.
  TraceBuilder B;
  B.write("t1", "v", 1);  // 0: w1
  B.read("t2", "v", 1);   // 1: guarded read
  B.branch("t2");         // 2
  B.write("t2", "x", 1);  // 3: race event b
  B.write("t1", "v", 9);  // 4: w2 (interferer)
  B.write("t3", "x", 2);  // 5: race event a'
  EncoderFixture F(B.build());
  // The race (3,5) is feasible: order w1 < read < w2.
  EXPECT_EQ(F.solveRace(3, 5), SatResult::Sat);
}

TEST(RaceEncoder, SaidRejectsValueChangingAdjacency) {
  // Said: the read of x must keep value 1, so it stays after write 0 and
  // before write 2, and the two writes cannot be moved next to each other.
  TraceBuilder B;
  B.write("t1", "x", 1); // 0
  B.read("t2", "x", 1);  // 1
  B.write("t2", "x", 2); // 2
  Trace T = B.build();
  EventClosure Mhb(T, T.fullSpan(), ClosureConfig::mhb());
  RaceEncoder Encoder(T, T.fullSpan(), Mhb, T.initialValues());
  FormulaBuilder FB;
  NodeRef Root = Encoder.encodeSaidRace(FB, 0, 2);
  EXPECT_EQ(createIdlSolver()->solve(FB, Root, Deadline(), nullptr),
            SatResult::Unsat);
  // The maximal encoding has no such constraint (nothing branches on it).
  FormulaBuilder FB2;
  NodeRef Root2 = Encoder.encodeMaximalRace(FB2, 0, 2);
  EXPECT_EQ(createIdlSolver()->solve(FB2, Root2, Deadline(), nullptr),
            SatResult::Sat);
}

// ----------------------------------------------------- cone of influence

namespace {

bool coneHas(const ConeInfo &Info, EventId E) {
  return std::binary_search(Info.Events.begin(), Info.Events.end(), E);
}

/// Sliced and unsliced encodings must be equisatisfiable (docs/ENCODER.md).
void expectEquisat(const RaceEncoder &Sliced, EventId A, EventId B) {
  EncoderOptions NoSlice;
  NoSlice.Slice = false;
  RaceEncoder Unsliced(Sliced.sharedWindowEncoding(), NoSlice);
  FormulaBuilder FbS, FbU;
  SatResult S = createIdlSolver()->solve(
      FbS, Sliced.encodeMaximalRace(FbS, A, B), Deadline(), nullptr);
  SatResult U = createIdlSolver()->solve(
      FbU, Unsliced.encodeMaximalRace(FbU, A, B), Deadline(), nullptr);
  EXPECT_EQ(S, U) << "sliced and unsliced verdicts diverge for (" << A
                  << "," << B << ")";
}

} // namespace

TEST(RaceEncoderCone, ForkJoinEdgesStayInConeUnrelatedWritesDoNot) {
  TraceBuilder B;
  B.write("t1", "x", 1);  // 0: unrelated, before the fork
  B.fork("t1", "t2");     // 1
  B.begin("t2");          // 2
  B.write("t2", "p0", 1); // 3: padding — never read, no locks
  B.write("t2", "p1", 1); // 4
  B.write("t2", "p2", 1); // 5
  B.write("t2", "y", 1);  // 6: race event A
  B.end("t2");            // 7
  B.join("t1", "t2");     // 8
  B.write("t1", "y", 2);  // 9: race event B
  EncoderFixture F(B.build());

  ConeInfo Info = F.Encoder.coneOf(6, 9);
  // The query events and every cross-thread MHB endpoint are kept: the
  // fork/join edges are what order the pair.
  for (EventId E : {1u, 2u, 6u, 7u, 8u, 9u})
    EXPECT_TRUE(coneHas(Info, E)) << "event " << E;
  // The padding writes constrain nothing the pair can observe.
  for (EventId E : {0u, 3u, 4u, 5u})
    EXPECT_FALSE(coneHas(Info, E)) << "event " << E;
  expectEquisat(F.Encoder, 6, 9);
}

TEST(RaceEncoderCone, NestedLocksActivateEnclosingSections) {
  TraceBuilder B;
  B.acquire("t1", "outer"); // 0
  B.acquire("t1", "inner"); // 1
  B.write("t1", "x", 1);    // 2: race event A
  B.release("t1", "inner"); // 3
  B.release("t1", "outer"); // 4
  B.acquire("t2", "outer"); // 5
  B.acquire("t2", "inner"); // 6
  B.write("t2", "x", 2);    // 7: race event B
  B.release("t2", "inner"); // 8
  B.release("t2", "outer"); // 9
  B.acquire("t1", "other"); // 10: unrelated lock, after the race region
  B.write("t1", "w", 1);    // 11
  B.release("t1", "other"); // 12
  B.acquire("t3", "other"); // 13
  B.write("t3", "z", 1);    // 14
  B.release("t3", "other"); // 15
  EncoderFixture F(B.build());
  ASSERT_EQ(F.Encoder.windowEncoding().LockConstraints.size(), 3u)
      << "inner, outer, other";

  ConeInfo Info = F.Encoder.coneOf(2, 7);
  // The race events sit in the inner sections; activating those pulls in
  // the inner acquire/release endpoints, which sit in the outer sections,
  // which activate the outer constraint in turn — but never `other`.
  EXPECT_EQ(Info.ActiveLocks.size(), 2u);
  for (EventId E : {0u, 1u, 3u, 4u, 5u, 6u, 8u, 9u})
    EXPECT_TRUE(coneHas(Info, E)) << "lock endpoint " << E;
  for (EventId E : {10u, 11u, 12u, 13u, 14u, 15u})
    EXPECT_FALSE(coneHas(Info, E)) << "event " << E;
  expectEquisat(F.Encoder, 2, 7);
}

TEST(RaceEncoderCone, CyclicCfDependencyTerminates) {
  // cf(w1) guards r1 whose candidate write is w2; cf(w2) guards r2 whose
  // candidate write is w1 — the cf dependency graph is a cycle.
  TraceBuilder B;
  B.read("t1", "y", 0);  // 0: r1 (initial value, or w2's)
  B.branch("t1");        // 1
  B.write("t1", "x", 1); // 2: w1
  B.read("t2", "x", 1);  // 3: r2 (w1's value)
  B.branch("t2");        // 4
  B.write("t2", "y", 0); // 5: w2 (same value as y's initial)
  EncoderFixture F(B.build());

  ConeInfo Info = F.Encoder.coneOf(2, 3);
  // The whole cycle is referenced: r1, w1, r2, w2 plus w1's guarding
  // branch. t2's branch is *not* pulled in — a write's feasibility folds
  // through its thread's reads, never through the branch event itself,
  // and only the query events' own guarding branches become top-level
  // guards.
  EXPECT_EQ(Info.Events, (std::vector<EventId>{0, 1, 2, 3, 5}));
  expectEquisat(F.Encoder, 2, 3);
}

TEST(RaceEncoderCone, UnslicedConeIsTheFullWindow) {
  TraceBuilder B;
  B.acquire("t1", "l");  // 0
  B.write("t1", "x", 1); // 1
  B.release("t1", "l");  // 2
  B.acquire("t2", "l");  // 3
  B.write("t2", "x", 2); // 4
  B.release("t2", "l");  // 5
  B.write("t3", "p", 1); // 6: unrelated
  EncoderFixture F(B.build());

  EncoderOptions NoSlice;
  NoSlice.Slice = false;
  RaceEncoder Unsliced(F.Encoder.sharedWindowEncoding(), NoSlice);
  ConeInfo Full = Unsliced.coneOf(1, 4);
  EXPECT_EQ(Full.Events.size(), F.T.size());
  EXPECT_EQ(Full.ActiveLocks.size(),
            F.Encoder.windowEncoding().LockConstraints.size());
  // The sliced cone on the same pair is a strict subset.
  ConeInfo Sliced = F.Encoder.coneOf(1, 4);
  EXPECT_LT(Sliced.Events.size(), Full.Events.size());
  EXPECT_FALSE(coneHas(Sliced, 6));
}

TEST(RaceEncoderCone, ConcurrentEncodesShareTheSkeletonCache) {
  // Four workers hammer the same const encoder with their own builders —
  // the sharing contract the parallel detect path relies on. Run under
  // scripts/check_tsan.sh this exercises the reader/writer-locked
  // skeleton cache for real.
  TraceBuilder B;
  for (int I = 0; I < 8; ++I) {
    std::string Var = "x" + std::to_string(I);
    B.acquire("t1", "l");
    B.write("t1", Var, 1);
    B.release("t1", "l");
    B.acquire("t2", "l");
    B.write("t2", Var, 2);
    B.release("t2", "l");
  }
  EncoderFixture F(B.build());
  std::vector<Cop> Cops = collectCops(F.T, F.T.fullSpan());
  ASSERT_EQ(Cops.size(), 8u);

  std::vector<std::thread> Workers;
  std::vector<uint64_t> AtomTotals(4, 0);
  for (int W = 0; W < 4; ++W)
    Workers.emplace_back([&, W] {
      for (int Round = 0; Round < 4; ++Round)
        for (const Cop &C : Cops) {
          FormulaBuilder FB;
          EncodeStats Stats;
          F.Encoder.encodeMaximalRace(FB, C.First, C.Second, &Stats);
          AtomTotals[W] += Stats.SlicedAtoms;
        }
    });
  for (std::thread &Worker : Workers)
    Worker.join();
  // Cached or rebuilt, the emitted skeleton is the same formula.
  EXPECT_EQ(AtomTotals[0], AtomTotals[1]);
  EXPECT_EQ(AtomTotals[0], AtomTotals[2]);
  EXPECT_EQ(AtomTotals[0], AtomTotals[3]);
  // And by now every cone's skeleton is resident.
  for (const Cop &C : Cops) {
    FormulaBuilder FB;
    EncodeStats Stats;
    F.Encoder.encodeMaximalRace(FB, C.First, C.Second, &Stats);
    EXPECT_TRUE(Stats.CacheHit);
  }
}

TEST(RaceEncoderCone, SkeletonCacheHitsOnSecondEncode) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0
  B.begin("t2");         // 1
  B.write("t1", "x", 1); // 2
  B.write("t2", "x", 2); // 3
  EncoderFixture F(B.build());

  EncodeStats First, Second;
  FormulaBuilder Fb1, Fb2;
  F.Encoder.encodeMaximalRace(Fb1, 2, 3, &First);
  F.Encoder.encodeMaximalRace(Fb2, 2, 3, &Second);
  EXPECT_FALSE(First.CacheHit);
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(First.ConeEvents, Second.ConeEvents);
  EXPECT_EQ(First.SlicedAtoms, Second.SlicedAtoms);
  EXPECT_GT(First.SlicedAtoms, 0u);
}

// -------------------------------------------------------- read skeletons

namespace {

using ReadInfo = WindowEncoding::ReadInfo;

/// Every read's skeleton computed eagerly in one loop over the window's
/// reads: the reference readInfo() must reproduce.
std::map<EventId, ReadInfo> eagerReadInfos(const WindowEncoding &Enc) {
  const Trace &T = Enc.T;
  const EventClosure &Mhb = Enc.Mhb;
  std::map<EventId, ReadInfo> Reads;
  for (EventId R : Enc.AllReads) {
    const Event &Read = T[R];
    VarId Var = Read.Target;
    Value Wanted = Read.Data;
    ReadInfo Info;
    for (EventId W : Enc.VarWrites[Var]) {
      if (W == R || Mhb.ordered(R, W))
        continue;
      Info.Interfering.push_back(W);
    }
    for (EventId W : Info.Interfering) {
      if (T[W].Data != Wanted)
        continue;
      bool Shadowed = false;
      for (EventId W2 : Info.Interfering) {
        if (W2 != W && Mhb.ordered(W, W2) && Mhb.ordered(W2, R)) {
          Shadowed = true;
          break;
        }
      }
      if (Shadowed)
        continue;
      WindowEncoding::ReadCandidate Cand;
      Cand.Write = W;
      for (EventId W2 : Info.Interfering) {
        if (W2 == W || Mhb.ordered(W2, W))
          continue;
        Cand.Others.push_back(W2);
      }
      Info.Candidates.push_back(std::move(Cand));
    }
    if (Wanted == Enc.InitialValues[Var]) {
      bool SomeWriteMustPrecede = false;
      for (EventId W : Info.Interfering) {
        if (Mhb.ordered(W, R)) {
          SomeWriteMustPrecede = true;
          break;
        }
      }
      Info.InitialOk = !SomeWriteMustPrecede;
    }
    Reads[R] = std::move(Info);
  }
  return Reads;
}

/// Every field of \p Info, flattened for EXPECT_EQ: the interfering
/// writes, then each candidate with its others (behind a separator), then
/// the initial-value flag.
std::vector<EventId> fieldsOf(const ReadInfo &Info) {
  std::vector<EventId> Out = Info.Interfering;
  for (const WindowEncoding::ReadCandidate &C : Info.Candidates) {
    Out.push_back(InvalidEvent);
    Out.push_back(C.Write);
    Out.insert(Out.end(), C.Others.begin(), C.Others.end());
  }
  Out.push_back(InvalidEvent);
  Out.push_back(Info.InitialOk);
  return Out;
}

/// The variable values at the start of \p Window, as the window driver
/// carries them forward.
std::vector<Value> valuesAt(const Trace &T, Span Window) {
  std::vector<Value> Values;
  for (VarId Var = 0; Var < T.numVars(); ++Var)
    Values.push_back(T.initialValueOf(Var));
  for (EventId Id = 0; Id < Window.Begin; ++Id)
    if (T[Id].Kind == EventKind::Write)
      Values[T[Id].Target] = T[Id].Data;
  return Values;
}

/// readInfo() equals the eager reference for every read of every window
/// of \p Width events, asking from the last read to the first; adds the
/// number of reads compared to \p Compared.
void expectSkeletonsMatchReference(const Trace &T, uint32_t Width,
                                   const std::string &What,
                                   size_t &Compared) {
  for (Span Window : splitWindows(T, Width)) {
    EventClosure Mhb(T, Window, ClosureConfig::mhb());
    WindowEncoding Enc(T, Window, Mhb, valuesAt(T, Window));
    std::map<EventId, ReadInfo> Want = eagerReadInfos(Enc);
    for (auto It = Enc.AllReads.rbegin(); It != Enc.AllReads.rend(); ++It) {
      ASSERT_EQ(fieldsOf(Enc.readInfo(*It)), fieldsOf(Want.at(*It)))
          << What << ", window [" << Window.Begin << ", " << Window.End
          << "), read " << *It;
      ++Compared;
    }
  }
}

} // namespace

TEST(ReadSkeleton, MatchesEagerReference) {
  size_t Compared = 0;
  FuzzConfig Config;
  Config.MaxThreads = 4;
  Config.MaxStmtsPerThread = 24;
  Config.MaxLoopIters = 5;
  RunLimits Limits;
  Limits.MaxEvents = 4000;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Trace T;
    RunResult Result;
    std::string Error;
    RandomScheduler S(Seed * 17 + 5);
    ASSERT_TRUE(recordTrace(fuzzProgram(Seed, Config), T, Result, Error, &S,
                            Limits))
        << Error;
    std::string What = "fuzz seed " + std::to_string(Seed);
    expectSkeletonsMatchReference(T, DefaultWindowSize, What, Compared);
    expectSkeletonsMatchReference(T, 97, What, Compared);
  }
  std::optional<BenchmarkCase> HighCop = findBenchmark("highcop");
  ASSERT_TRUE(HighCop);
  Trace T;
  std::string Error;
  ASSERT_TRUE(benchmarkTrace(*HighCop, T, Error)) << Error;
  expectSkeletonsMatchReference(T, DefaultWindowSize, "highcop", Compared);
  EXPECT_GT(Compared, 10000u);
}

TEST(ReadSkeleton, ConcurrentReadersAgree) {
  // Four threads ask for the same window's skeletons in different orders,
  // so most slots are built by whichever thread gets there first while
  // the others wait on it. Run under scripts/check_tsan.sh this exercises
  // the once-per-slot build for real.
  SyntheticSpec Spec;
  Spec.Workers = 8;
  Spec.TargetEvents = 3000;
  Spec.BranchPercent = 4;
  Spec.SyncPercent = 8;
  Trace T = generateSynthetic(Spec);
  EventClosure Mhb(T, T.fullSpan(), ClosureConfig::mhb());
  WindowEncoding Enc(T, T.fullSpan(), Mhb, T.initialValues());
  const std::vector<EventId> &Reads = Enc.AllReads;
  ASSERT_GT(Reads.size(), 100u);

  std::array<std::vector<std::vector<EventId>>, 4> Seen;
  std::vector<std::thread> Workers;
  for (size_t W = 0; W < Seen.size(); ++W)
    Workers.emplace_back([&, W] {
      // Worker W starts at a quarter W of the reads; odd workers walk
      // backwards.
      std::vector<std::vector<EventId>> &Out = Seen[W];
      Out.resize(Reads.size());
      size_t N = Reads.size();
      for (size_t K = 0; K < N; ++K) {
        size_t Step = W % 2 ? N - 1 - K : K;
        size_t I = (Step + W * N / 4) % N;
        Out[I] = fieldsOf(Enc.readInfo(Reads[I]));
      }
    });
  for (std::thread &Worker : Workers)
    Worker.join();

  std::map<EventId, ReadInfo> Want = eagerReadInfos(Enc);
  for (size_t I = 0; I < Reads.size(); ++I) {
    EXPECT_EQ(Seen[0][I], fieldsOf(Want.at(Reads[I]))) << Reads[I];
    for (size_t W = 1; W < Seen.size(); ++W)
      EXPECT_EQ(Seen[W][I], Seen[0][I]) << "worker " << W << ", read "
                                        << Reads[I];
  }
}

// -------------------------------------------------------- witness checker

namespace {

struct WitnessFixture {
  WitnessFixture(Trace Built)
      : T(std::move(Built)), Mhb(T, T.fullSpan(), ClosureConfig::mhb()),
        Encoder(T, T.fullSpan(), Mhb, T.initialValues()) {}

  WitnessCheckResult check(const std::vector<EventId> &Order, EventId A,
                           EventId B) {
    return checkWitness(T, T.fullSpan(), Order, A, B, Encoder,
                        T.initialValues());
  }

  Trace T;
  EventClosure Mhb;
  RaceEncoder Encoder;
};

Trace simpleRacyTrace() {
  TraceBuilder B;
  B.write("t1", "x", 1); // 0
  B.write("t1", "y", 1); // 1
  B.write("t2", "x", 2); // 2
  return B.build();
}

} // namespace

TEST(WitnessChecker, AcceptsValidAdjacency) {
  WitnessFixture F(simpleRacyTrace());
  EXPECT_TRUE(F.check({0, 2, 1}, 0, 2).Ok);
  EXPECT_TRUE(F.check({2, 0, 1}, 0, 2).Ok) << "either orientation";
}

TEST(WitnessChecker, RejectsNonAdjacent) {
  WitnessFixture F(simpleRacyTrace());
  EXPECT_FALSE(F.check({0, 1, 2}, 0, 2).Ok)
      << "event 1 sits between the racing pair";
}

TEST(WitnessChecker, RejectsProgramOrderViolation) {
  WitnessFixture F(simpleRacyTrace());
  WitnessCheckResult R = F.check({1, 0, 2}, 1, 0);
  // Order {1,0,...} violates t1's program order check only if used as a
  // witness; the pair (1,0) is same-thread and adjacent here, but PO is
  // broken.
  EXPECT_FALSE(R.Ok);
}

TEST(WitnessChecker, RejectsNonPermutation) {
  WitnessFixture F(simpleRacyTrace());
  EXPECT_FALSE(F.check({0, 2}, 0, 2).Ok);
  EXPECT_FALSE(F.check({0, 2, 2}, 0, 2).Ok);
}

TEST(WitnessChecker, RejectsLockViolation) {
  TraceBuilder B;
  B.acquire("t1", "l");  // 0
  B.write("t1", "x", 1); // 1
  B.release("t1", "l");  // 2
  B.acquire("t2", "l");  // 3
  B.write("t2", "y", 2); // 4
  B.release("t2", "l");  // 5
  B.write("t2", "x", 9); // 6
  Trace T = B.build();
  WitnessFixture F(std::move(T));
  // Interleaved critical sections: 0,3 both acquire before any release.
  EXPECT_FALSE(F.check({0, 3, 1, 6, 4, 2, 5}, 1, 6).Ok);
  // Proper nesting-free order is fine.
  EXPECT_TRUE(F.check({3, 4, 5, 0, 1, 6, 2}, 1, 6).Ok);
}

TEST(WitnessChecker, RejectsStaleGuardedRead) {
  // The branch guarding b requires the read to stay concrete (value 1);
  // a witness where the read precedes the write is rejected.
  TraceBuilder B;
  B.write("t1", "v", 1); // 0
  B.read("t2", "v", 1);  // 1
  B.branch("t2");        // 2
  B.write("t2", "x", 1); // 3  (race event b)
  B.write("t3", "x", 2); // 4  (race event a)
  Trace T = B.build();
  WitnessFixture F(std::move(T));
  EXPECT_TRUE(F.check({0, 1, 2, 4, 3}, 4, 3).Ok);
  WitnessCheckResult Bad = F.check({1, 0, 2, 4, 3}, 4, 3);
  EXPECT_FALSE(Bad.Ok) << "the guarded read observes 0, not 1";
}

TEST(WitnessChecker, UnguardedReadMayBeStale) {
  // Without a branch, the read is data-abstract and may change value.
  TraceBuilder B;
  B.write("t1", "v", 1); // 0
  B.read("t2", "v", 1);  // 1
  B.write("t2", "x", 1); // 2  (race event b)
  B.write("t3", "x", 2); // 3  (race event a)
  Trace T = B.build();
  WitnessFixture F(std::move(T));
  EXPECT_TRUE(F.check({1, 0, 3, 2}, 3, 2).Ok);
}

// --------------------------------------------------------- gap placement

namespace {

/// The witness path on one race query: a sliced encode that reports its
/// cone, a one-shot solve, then gap placement over the window
/// [Begin, end of trace) (docs/ENCODER.md).
struct GapFixture {
  explicit GapFixture(Trace Built, EventId Begin = 0)
      : T(std::move(Built)),
        Window{Begin, static_cast<EventId>(T.size())},
        Mhb(T, Window, ClosureConfig::mhb()),
        Encoder(T, Window, Mhb, T.initialValues()) {}

  std::vector<EventId> witness(EventId A, EventId B) {
    FormulaBuilder FB;
    EncodeStats Stats;
    Stats.Cone = &Cone;
    NodeRef Root = Encoder.encodeMaximalRace(FB, A, B, &Stats);
    OrderModel Model;
    EXPECT_EQ(createIdlSolver()->solve(FB, Root, Deadline(), &Model),
              SatResult::Sat);
    return placeByGaps(Encoder.windowEncoding(), Cone.Events, Model,
                       Cone.MergedFirst, Cone.MergedSecond);
  }

  WitnessCheckResult check(const std::vector<EventId> &Order, EventId A,
                           EventId B) {
    return checkWitness(T, Window, Order, A, B, Encoder, T.initialValues());
  }

  Trace T;
  Span Window;
  EventClosure Mhb;
  RaceEncoder Encoder;
  ConeInfo Cone; ///< of the last witness() query
};

} // namespace

TEST(GapPlacement, MergedPairStaysAdjacentPastNonConeSuccessors) {
  TraceBuilder B;
  B.write("t1", "x", 1); // 0: race event A, merged onto B's position
  B.write("t1", "p", 1); // 1: A's non-cone successors
  B.write("t1", "q", 1); // 2
  B.write("t2", "r", 1); // 3: before t2's first cone event
  B.write("t2", "x", 2); // 4: race event B
  B.write("t2", "s", 1); // 5
  GapFixture F(B.build());
  std::vector<EventId> Order = F.witness(0, 4);
  EXPECT_EQ(F.Cone.Events, (std::vector<EventId>{0, 4}));
  EXPECT_EQ(F.Cone.MergedFirst, 0u) << "the encoder reports the merge";
  EXPECT_EQ(F.Cone.MergedSecond, 4u);
  // A's block waits until B is placed, so the pair stays adjacent.
  EXPECT_EQ(Order, (std::vector<EventId>{3, 0, 4, 1, 2, 5}));
  WitnessCheckResult R = F.check(Order, 0, 4);
  EXPECT_TRUE(R.Ok) << R.Message;
}

TEST(GapPlacement, ThreadWithoutConeEventsLeadsAsOneBlock) {
  TraceBuilder B;
  B.write("t1", "x", 1); // 0: race event A
  B.acquire("t3", "m");  // 1: t3 shares nothing with the race
  B.write("t3", "p", 1); // 2
  B.release("t3", "m");  // 3
  B.write("t2", "x", 2); // 4: race event B
  GapFixture F(B.build());
  std::vector<EventId> Order = F.witness(0, 4);
  EXPECT_EQ(F.Cone.Events, (std::vector<EventId>{0, 4}));
  EXPECT_EQ(Order, (std::vector<EventId>{1, 2, 3, 0, 4}));
  WitnessCheckResult R = F.check(Order, 0, 4);
  EXPECT_TRUE(R.Ok) << R.Message;
}

TEST(GapPlacement, ConeFreeCriticalSectionsStayContiguous) {
  TraceBuilder B;
  B.write("t1", "x", 1); // 0: race event A
  B.acquire("t1", "l");  // 1: a section after A, in A's block
  B.write("t1", "p", 1); // 2
  B.release("t1", "l");  // 3
  B.acquire("t2", "l");  // 4: a section before B, in t2's lead block
  B.write("t2", "q", 1); // 5
  B.release("t2", "l");  // 6
  B.write("t2", "x", 2); // 7: race event B
  GapFixture F(B.build());
  ASSERT_EQ(F.Encoder.windowEncoding().LockConstraints.size(), 1u);
  std::vector<EventId> Order = F.witness(0, 7);
  // Neither section holds a cone event, so their mutual exclusion is left
  // to gap placement: each section lands inside one contiguous block.
  EXPECT_TRUE(F.Cone.ActiveLocks.empty());
  EXPECT_EQ(Order, (std::vector<EventId>{4, 5, 6, 0, 7, 1, 2, 3}));
  WitnessCheckResult R = F.check(Order, 0, 7);
  EXPECT_TRUE(R.Ok) << R.Message;
}

TEST(GapPlacement, SectionHeldAtWindowEntryIsReleasedFirst) {
  TraceBuilder B;
  B.acquire("t1", "l");  // 0: before the window
  B.write("t2", "r", 1); // 1: window start; t2's lead block
  B.write("t1", "p", 1); // 2: inside t1's held section
  B.release("t1", "l");  // 3: one-sided constraint 3 < 4, seeded
  B.acquire("t2", "l");  // 4
  B.write("t2", "q", 1); // 5
  B.release("t2", "l");  // 6
  B.write("t2", "x", 1); // 7: race event A
  B.write("t1", "x", 2); // 8: race event B
  GapFixture F(B.build(), /*Begin=*/1);
  std::vector<EventId> Order = F.witness(7, 8);
  EXPECT_EQ(F.Cone.Events, (std::vector<EventId>{3, 4, 7, 8}));
  EXPECT_EQ(Order, (std::vector<EventId>{2, 1, 3, 4, 5, 6, 7, 8}));
  WitnessCheckResult R = F.check(Order, 7, 8);
  EXPECT_TRUE(R.Ok) << R.Message;
}

// ------------------------------------------------- catalog witness sweep

namespace {

/// One trace of the sweep; program rows also get the static pruner.
struct SweepCase {
  std::string Name;
  Trace T;
  std::unique_ptr<Program> Source;
  std::unique_ptr<StaticPruneOracle> Oracle;
};

constexpr uint32_t SweepWindow = 1000;

std::vector<SweepCase> sweepCases() {
  std::vector<SweepCase> Cases;
  for (const BenchmarkCase &Row : table1Benchmarks()) {
    if (Row.CaseKind != BenchmarkCase::Kind::Program)
      continue; // the real-system rows are covered scaled down below
    SweepCase C;
    C.Name = Row.Name;
    std::string Error;
    EXPECT_TRUE(benchmarkTrace(Row, C.T, Error)) << Row.Name << ": " << Error;
    std::optional<Program> Parsed = parseProgram(Row.Source, Error);
    EXPECT_TRUE(Parsed) << Row.Name << ": " << Error;
    if (!Parsed)
      continue;
    C.Source = std::make_unique<Program>(std::move(*Parsed));
    C.Oracle = std::make_unique<StaticPruneOracle>(*C.Source);
    C.Oracle->bind(C.T);
    Cases.push_back(std::move(C));
  }
  // highcop's shape and derby's with atomicity pairs and lock cycles,
  // small enough for a unit test, spread over several windows.
  SyntheticSpec HighCop;
  HighCop.Name = "highcop-small";
  HighCop.Workers = 8;
  HighCop.TargetEvents = 3000;
  HighCop.PlainRaces = 6;
  HighCop.QcOnlyPairs = 12;
  HighCop.BranchPercent = 4;
  HighCop.SyncPercent = 8;
  SyntheticSpec Props = realSystemSpec("derby");
  Props.Name = "derby-props";
  Props.TargetEvents = 4000;
  Props.PlainRaces = 2;
  Props.RvOnlyRaces = 4;
  Props.QcOnlyPairs = 4;
  Props.OrderedPairs = 4;
  Props.AtomicityPairs = 4;
  Props.DeadlockCycles = 2;
  for (SyntheticSpec Spec : {HighCop, Props}) {
    Spec.AlignWindow = SweepWindow;
    SweepCase C;
    C.Name = Spec.Name;
    C.T = generateSynthetic(Spec);
    Cases.push_back(std::move(C));
  }
  return Cases;
}

/// Every finding of one run as its checkpoint line (the defining events,
/// the witness-valid flag and the witness), decided through the policy
/// path `rvpredict detect` uses; \p WholeWindow runs the decision path on
/// the whole-window cone. Counts the witnesses and whether every one
/// validated.
std::string findingsOf(const Trace &T, const std::string &Property,
                       const DetectorOptions &Options, bool WholeWindow,
                       size_t &Witnessed, bool &AllValid) {
  std::unique_ptr<QueryPolicy> Policy;
  const char *Tag = "race";
  size_t NumEvents = 2;
  if (Property == "atomicity") {
    Policy = makeAtomicityPolicy(T, Options);
    Tag = "viol";
    NumEvents = 5;
  } else if (Property == "deadlock") {
    Policy = makeDeadlockPolicy(T, Options);
    Tag = "dl";
  } else {
    Policy = makeRacePolicy(
        T, Property == "said" ? Technique::Said : Technique::Maximal, Options);
  }
  Policy->Encoding.Slice = !WholeWindow;
  runWindowDriver(T, Options, *Policy);
  std::string Out;
  for (size_t I = 0; I < Policy->numFindings(); ++I) {
    std::string Line = Policy->checkpointLine(I);
    Out += Line + "\n";
    if (Property == "said")
      continue; // Said has no witnesses; its findings must still agree
    std::vector<EventId> Events, Witness;
    bool Valid = false;
    EXPECT_TRUE(
        parseFindingLine(T, Line, Tag, NumEvents, Events, Valid, Witness))
        << Line;
    Witnessed += Witness.empty() ? 0 : 1;
    AllValid = AllValid && Valid;
  }
  return Out;
}

} // namespace

TEST(WitnessSweep, CatalogWitnessesValidateAndAgreeAcrossModes) {
  // Witnesses are built the same way however the verdict was reached, so
  // every mode must print the same schedules — and every one validates.
  struct Mode {
    const char *Name;
    void (*Apply)(DetectorOptions &);
    bool WholeWindow = false; ///< decision path on the whole-window cone
    const char *Faults = "";  ///< session.corrupt: one-shot fallback
  };
  const Mode Modes[] = {
      {"jobs=4", [](DetectorOptions &O) { O.Jobs = 4; }},
      {"one-shot", [](DetectorOptions &) {}, false, faults::SessionCorrupt},
      {"whole-window", [](DetectorOptions &) {}, true},
      {"tier=smt", [](DetectorOptions &O) { O.Tier = DetectTier::Smt; }},
      {"static-prune", nullptr},
  };
  std::map<std::string, size_t> Witnessed;
  for (SweepCase &C : sweepCases()) {
    for (const char *Property : {"rv", "said", "atomicity", "deadlock"}) {
      DetectorOptions Base;
      Base.WindowSize = SweepWindow;
      bool AllValid = true;
      std::string Expected = findingsOf(C.T, Property, Base, false,
                                        Witnessed[Property], AllValid);
      EXPECT_TRUE(AllValid) << C.Name << " " << Property << ":\n"
                            << Expected;
      for (const Mode &M : Modes) {
        DetectorOptions Options = Base;
        if (M.Apply) {
          M.Apply(Options);
        } else if (C.Oracle) {
          Options.StaticPruner = C.Oracle.get();
          Options.CfFold = C.Oracle.get();
        } else {
          continue; // no program to analyze
        }
        std::string Error;
        ASSERT_TRUE(FaultInjector::configure(M.Faults, Error)) << Error;
        size_t Ignored = 0;
        std::string Got = findingsOf(C.T, Property, Options, M.WholeWindow,
                                     Ignored, AllValid);
        FaultInjector::reset();
        EXPECT_EQ(Got, Expected) << C.Name << " " << Property << " " << M.Name;
        EXPECT_TRUE(AllValid) << C.Name << " " << Property << " " << M.Name;
      }
    }
  }
  // Non-vacuity: every witnessed property produced witnesses.
  for (const char *Property : {"rv", "atomicity", "deadlock"})
    EXPECT_GT(Witnessed[Property], 0u) << Property;
}

// ------------------------------------------------------- static pruning

namespace {

/// Tallies the rule each prunable() answer names.
class RuleTally : public CopPruner {
public:
  explicit RuleTally(const CopPruner &Inner) : Inner(Inner) {}
  Rule prunable(const Trace &T, EventId A, EventId B) const override {
    Rule R = Inner.prunable(T, A, B);
    ++Counts[static_cast<size_t>(R)];
    return R;
  }
  /// Interval, lockset and MHB tallies.
  std::array<uint64_t, 3> pruned() const {
    return {Counts[1], Counts[2], Counts[3]};
  }

private:
  const CopPruner &Inner;
  mutable std::array<uint64_t, 4> Counts{};
};

} // namespace

TEST(StaticPruneRules, TalliesMatchTheOraclesFormerStageCounts) {
  // The expected interval / lockset / MHB tallies are the per-stage
  // counts the oracle kept while it counted its stages itself; the
  // driver's total and MHB fields must agree with them.
  struct Workload {
    const char *Name;
    std::string Source;
    Trace T;
    std::array<uint64_t, 3> Want;
  };
  std::vector<Workload> Workloads;
  {
    std::ifstream In(std::string(RVP_GOLDEN_DIR) + "/prune_workload.rv");
    ASSERT_TRUE(In);
    std::stringstream Source;
    Source << In.rdbuf();
    RoundRobinScheduler RoundRobin(3);
    Trace T;
    RunResult Run;
    std::string Error;
    ASSERT_TRUE(recordTrace(Source.str(), T, Run, Error, &RoundRobin))
        << Error;
    Workloads.push_back({"prune_workload", Source.str(), std::move(T),
                         {3, 2, 0}});
  }
  {
    std::optional<BenchmarkCase> Case = findBenchmark("staticflow");
    ASSERT_TRUE(Case);
    Trace T;
    std::string Error;
    ASSERT_TRUE(benchmarkTrace(*Case, T, Error)) << Error;
    Workloads.push_back({"staticflow", Case->Source, std::move(T), {2, 0, 3}});
  }
  for (Workload &W : Workloads) {
    SCOPED_TRACE(W.Name);
    std::string Error;
    std::optional<Program> P = parseProgram(W.Source, Error);
    ASSERT_TRUE(P) << Error;
    StaticPruneOracle Oracle(*P);
    Oracle.bind(W.T);
    RuleTally Tally(Oracle);
    DetectorOptions Options;
    Options.StaticPruner = &Tally;
    DetectionResult R = detectRaces(W.T, Technique::Maximal, Options);
    EXPECT_EQ(Tally.pruned(), W.Want);
    EXPECT_EQ(R.Stats.CopsPrunedStatic, W.Want[0] + W.Want[1] + W.Want[2]);
    EXPECT_EQ(R.Stats.PrunedStaticMhb, W.Want[2]);
  }
}
