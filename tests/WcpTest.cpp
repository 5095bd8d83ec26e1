//===- tests/WcpTest.cpp - WCP vector-clock tier tests ----------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Wcp.h"

#include "detect/Closure.h"
#include "detect/Cop.h"
#include "detect/Detect.h"
#include "detect/WindowDriver.h"
#include "runtime/Interpreter.h"
#include "support/StringUtils.h"
#include "trace/TraceBuilder.h"
#include "workloads/Catalog.h"
#include "workloads/Fuzzer.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace rvp;

namespace {

/// The window's MHB closure, which the index reads, held ahead of it.
struct MhbOf {
  EventClosure Closure;
};

/// The WCP index of \p T as one window, owning the MHB closure it reads.
struct WholeTraceWcp : MhbOf, WcpIndex {
  explicit WholeTraceWcp(const Trace &T)
      : MhbOf{EventClosure(T, T.fullSpan(), ClosureConfig::mhb())},
        WcpIndex(T, T.fullSpan(), Closure) {}
};

} // namespace

// ------------------------------------------------------------- MHB

TEST(Wcp, MhbIgnoresLockEdges) {
  TraceBuilder B;
  B.acquire("t1", "l");  // 0
  B.write("t1", "x", 1); // 1
  B.release("t1", "l");  // 2
  B.acquire("t2", "l");  // 3
  B.write("t2", "y", 1); // 4
  B.release("t2", "l");  // 5
  Trace T = B.build();
  WholeTraceWcp W(T);
  EXPECT_FALSE(W.mhbOrdered(1, 4))
      << "release->acquire is an HB edge, not an MHB edge";
  EXPECT_TRUE(W.mhbOrdered(0, 2)) << "program order is MHB";
}

// ------------------------------------------------------------- rule (a)

// Conflicting accesses in two critical sections over the same lock: the
// earlier section's release ≺wcp the later access, so the pair is ordered.
TEST(Wcp, RuleAOrdersConflictingSections) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0
  B.begin("t2");         // 1
  B.acquire("t1", "l");  // 2
  B.write("t1", "x", 1); // 3
  B.release("t1", "l");  // 4
  B.acquire("t2", "l");  // 5
  B.write("t2", "x", 2); // 6
  B.release("t2", "l");  // 7
  Trace T = B.build();
  WholeTraceWcp W(T);
  EXPECT_TRUE(W.wcpOrdered(3, 6)) << "release(4) ≺wcp conflicting write(6)";
  EXPECT_FALSE(W.racy(3, 6));
}

// Sections over the same lock touching *different* variables stay
// unordered — WCP is strictly weaker than HB's release->acquire edge.
TEST(Wcp, NoOrderWithoutConflictingAccess) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0
  B.begin("t2");         // 1
  B.acquire("t1", "l");  // 2
  B.write("t1", "x", 1); // 3
  B.release("t1", "l");  // 4
  B.acquire("t2", "l");  // 5
  B.write("t2", "y", 1); // 6
  B.release("t2", "l");  // 7
  B.write("t1", "y", 2); // 8
  Trace T = B.build();
  WholeTraceWcp W(T);
  EXPECT_TRUE(W.racy(6, 8))
      << "the y accesses share no conflicting critical sections";
}

// Read-read pairs under the lock do not conflict: two read-only sections
// stay unordered, but each orders against a writing section.
TEST(Wcp, RuleAReadsOnlyOrderAgainstWrites) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0
  B.fork("t1", "t3");    // 1
  B.begin("t2");         // 2
  B.begin("t3");         // 3
  B.acquire("t1", "l");  // 4
  B.read("t1", "x", 0);  // 5
  B.release("t1", "l");  // 6
  B.acquire("t2", "l");  // 7
  B.read("t2", "x", 0);  // 8
  B.release("t2", "l");  // 9
  B.acquire("t3", "l");  // 10
  B.write("t3", "x", 1); // 11
  B.release("t3", "l");  // 12
  Trace T = B.build();
  WholeTraceWcp W(T);
  EXPECT_FALSE(W.wcpOrdered(5, 8)) << "read-read does not conflict";
  EXPECT_TRUE(W.wcpOrdered(5, 11)) << "read(5) orders the later write(11)";
  EXPECT_TRUE(W.wcpOrdered(8, 11));
}

// ------------------------------------------------------------- rule (b)

// acquire₁ ≺wcp release₂ forces release₁ ≺wcp release₂: the ordering of
// the x-sections must propagate to the releases and from there (with
// program order) order the ys.
TEST(Wcp, RuleBOrdersReleases) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0
  B.begin("t2");         // 1
  B.acquire("t1", "m");  // 2
  B.acquire("t1", "l");  // 3
  B.write("t1", "x", 1); // 4
  B.release("t1", "l");  // 5
  B.write("t1", "y", 1); // 6
  B.release("t1", "m");  // 7
  B.acquire("t2", "m");  // 8
  B.acquire("t2", "l");  // 9
  B.write("t2", "x", 2); // 10
  B.release("t2", "l");  // 11
  B.write("t2", "y", 2); // 12
  B.release("t2", "m");  // 13
  Trace T = B.build();
  WholeTraceWcp W(T);
  // Rule (a) orders the x accesses; rule (b) then lifts acquire(2) ≺wcp
  // release(13) to release(7) ≺wcp release(13)... but y(6) precedes
  // release(7) only via program order *backward*, so check the direct
  // consequences instead: the m-releases are ordered.
  EXPECT_TRUE(W.wcpOrdered(4, 10)) << "rule (a) on x";
  EXPECT_TRUE(W.wcpOrdered(7, 13)) << "rule (b) on the m-releases";
  EXPECT_TRUE(W.wcpOrdered(6, 13))
      << "program order into the ordered release";
}

// ------------------------------------------------------------- rule (c)

// HB composition on the right: an edge established under the lock flows
// through fork/join into later events.
TEST(Wcp, HbCompositionCarriesOrder) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0
  B.begin("t2");         // 1
  B.acquire("t1", "l");  // 2
  B.write("t1", "x", 1); // 3
  B.release("t1", "l");  // 4
  B.acquire("t2", "l");  // 5
  B.write("t2", "x", 2); // 6
  B.release("t2", "l");  // 7
  B.fork("t2", "t3");    // 8
  B.begin("t3");         // 9
  B.write("t3", "x", 3); // 10
  Trace T = B.build();
  WholeTraceWcp W(T);
  EXPECT_TRUE(W.wcpOrdered(3, 10))
      << "x(3) ≺wcp x(6) composes through fork(8) into t3";
}

// ------------------------------------------------------------- races

TEST(Wcp, UnprotectedConflictIsRacy) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0
  B.begin("t2");         // 1
  B.write("t1", "x", 1); // 2
  B.write("t2", "x", 2); // 3
  Trace T = B.build();
  WholeTraceWcp W(T);
  EXPECT_TRUE(W.racy(2, 3));
  EXPECT_FALSE(W.mhbOrdered(2, 3));
}

// The paper's figure-4-style pattern: same lock, both sections touch the
// shared var — never racy under WCP within one window (the early release
// always lands inside the window).
TEST(Wcp, CommonLockNeverRacyInWindow) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0
  B.begin("t2");         // 1
  B.acquire("t1", "l");  // 2
  B.write("t1", "x", 1); // 3
  B.release("t1", "l");  // 4
  B.acquire("t2", "l");  // 5
  B.read("t2", "x", 1);  // 6
  B.release("t2", "l");  // 7
  Trace T = B.build();
  WholeTraceWcp W(T);
  EXPECT_FALSE(W.racy(3, 6));
}

// A section clipped at the window start (release without acquire) only
// over-orders: the pair goes back to the solver, never racy-reported.
TEST(Wcp, WindowClippedSectionOverOrders) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0
  B.begin("t2");         // 1
  B.write("t1", "x", 1); // 2
  B.release("t1", "l");  // 3  (acquire outside the window)
  B.acquire("t2", "l");  // 4
  B.write("t2", "x", 2); // 5
  B.release("t2", "l");  // 6
  Trace T = B.build();
  WholeTraceWcp W(T);
  EXPECT_FALSE(W.racy(2, 5))
      << "the clipped t1 section still publishes x into the lock";
}

// A thread that releases out of nesting order (m1 while it still holds
// m2) enters the window holding nothing: its sections come from the lock
// pairs, so no section on m1 stays open after the release, and the later
// unlocked write races with the write under m1.
TEST(Wcp, NonLifoReleaseOpensNoEntrySection) {
  TraceBuilder B;
  B.fork("t1", "t2");     // 0
  B.begin("t2");          // 1
  B.acquire("t2", "m1");  // 2
  B.write("t2", "x", 1);  // 3
  B.release("t2", "m1");  // 4
  B.acquire("t1", "m1");  // 5
  B.acquire("t1", "m2");  // 6
  B.release("t1", "m1");  // 7  m2 is still held
  B.release("t1", "m2");  // 8
  B.write("t1", "x", 2);  // 9  no lock held
  Trace T = B.build();
  WholeTraceWcp W(T);
  EXPECT_TRUE(W.racy(3, 9)) << "write(9) lies in no section over m1";
  EXPECT_FALSE(W.mhbOrdered(3, 9));
}

// ----------------------------------------------------- tier equivalence

namespace {

// One WCP-racy pair (the a accesses: t1's read comes *before* its lock
// section, so no HB path carries t2's rule-(a) edge into it), one
// lock-protected pair (x), one MHB-ordered pair (the a writes). Keeps
// the tiers' verdicts aligned: WCP is incomplete against the maximal
// detector in general (docs/TIERS.md), so tier-agreement tests need
// traces whose maximal races are all WCP-racy.
Trace forkJoinRacyTrace() {
  TraceBuilder B;
  B.write("t1", "a", 1);
  B.fork("t1", "t2");
  B.begin("t2");
  B.write("t2", "a", 2);   // racy with t1's read below
  B.acquire("t2", "l");
  B.write("t2", "x", 1);
  B.release("t2", "l");
  B.end("t2");
  B.read("t1", "a", 2);    // racy with t2's write
  B.acquire("t1", "l");
  B.write("t1", "x", 2);   // lock-protected: not racy
  B.release("t1", "l");
  Trace T = B.build();
  return T;
}

} // namespace

// The three tiers must report the same set of races on a trace where
// every WCP-racy pair is genuinely predictable.
TEST(Wcp, TiersAgreeOnRaces) {
  Trace T = forkJoinRacyTrace();
  DetectionResult Results[3];
  const DetectTier Tiers[] = {DetectTier::Vc, DetectTier::Smt,
                              DetectTier::Hybrid};
  for (int I = 0; I < 3; ++I) {
    DetectorOptions Options;
    Options.Tier = Tiers[I];
    if (Tiers[I] == DetectTier::Vc)
      Options.CollectWitnesses = false;
    Results[I] = detectRaces(T, Technique::Maximal, Options);
  }
  EXPECT_EQ(Results[0].raceCount(), Results[1].raceCount());
  EXPECT_EQ(Results[1].raceCount(), Results[2].raceCount());
  for (const RaceReport &R : Results[1].Races) {
    EXPECT_TRUE(Results[0].hasRaceAt(R.LocFirst, R.LocSecond))
        << "vc tier missing " << R.LocFirst << " <-> " << R.LocSecond;
    EXPECT_TRUE(Results[2].hasRaceAt(R.LocFirst, R.LocSecond))
        << "hybrid tier missing " << R.LocFirst << " <-> " << R.LocSecond;
  }
}

// Hybrid must save solver work on the same trace without changing the
// report — the tentpole's reason to exist.
TEST(Wcp, HybridSavesSolverCalls) {
  Trace T = forkJoinRacyTrace();
  DetectorOptions Smt, Hybrid;
  Smt.Tier = DetectTier::Smt;
  Hybrid.Tier = DetectTier::Hybrid;
  DetectionResult RS = detectRaces(T, Technique::Maximal, Smt);
  DetectionResult RH = detectRaces(T, Technique::Maximal, Hybrid);
  EXPECT_EQ(RS.raceCount(), RH.raceCount());
  EXPECT_GT(RH.Stats.WcpPruned + RH.Stats.WcpShortCircuits, 0u);
  EXPECT_LT(RH.Stats.SolverCalls, RS.Stats.SolverCalls);
}

// ------------------------------------------------------- cross-check

namespace {

/// The maximal race policy under the smt tier, recording what the WCP
/// tier would claim: each candidate WCP calls racy in its window, each
/// candidate that reached the solver, and each one the solver reported.
/// Witnesses stay off, so every encode is a decision-path encode.
class CrossCheckPolicy : public QueryPolicy {
public:
  CrossCheckPolicy(const Trace &T, const DetectorOptions &Options)
      : T(T), Inner(makeRacePolicy(T, Technique::Maximal, Options)) {
    Phase = Inner->Phase;
    FindingsCounter = Inner->FindingsCounter;
    Solves = Inner->Solves;
    WcpTier = Inner->WcpTier;
    WitnessOnSat = Inner->WitnessOnSat;
    Encoding = Inner->Encoding;
  }

  /// WCP-racy candidates the solver decided and did not report.
  size_t mismatches() const {
    size_t N = 0;
    for (uint64_t Pair : Solved)
      N += WcpRacy.count(Pair) && !Reported.count(Pair);
    return N;
  }

  void enumerate(WindowContext &W, std::vector<Candidate> &Out) override {
    Inner->enumerate(W, Out);
    WcpIndex Wcp(T, W.Window, W.mhb());
    for (const Candidate &C : Out)
      if (Wcp.racy(C.First, C.Second))
        WcpRacy.insert(key(C));
  }
  NodeRef encode(const RaceEncoder &Encoder, FormulaBuilder &FB,
                 const Candidate &C, EncodeStats *Stats) const override {
    Solved.insert(key(C));
    return Inner->encode(Encoder, FB, C, Stats);
  }
  bool checkWitness(WindowContext &W, const Candidate &C,
                    const std::vector<EventId> &Order) const override {
    return Inner->checkWitness(W, C, Order);
  }
  void report(const Candidate &C, std::vector<EventId> Witness,
              bool WitnessValid) override {
    Reported.insert(key(C));
    Inner->report(C, std::move(Witness), WitnessValid);
  }
  size_t numFindings() const override { return Inner->numFindings(); }
  std::string checkpointLine(size_t I) const override {
    return Inner->checkpointLine(I);
  }
  bool restoreFindings(const std::vector<std::string> &Lines) override {
    return Inner->restoreFindings(Lines);
  }
  std::string renderFinding(size_t I,
                            const ReportRenderOptions &Opts) const override {
    return Inner->renderFinding(I, Opts);
  }
  std::string renderReport(DriverOutput Out,
                           const ReportRenderOptions &Opts) override {
    return Inner->renderReport(std::move(Out), Opts);
  }

private:
  static uint64_t key(const Candidate &C) {
    return uint64_t{C.First} << 32 | C.Second;
  }

  const Trace &T;
  std::unique_ptr<QueryPolicy> Inner;
  std::unordered_set<uint64_t> WcpRacy, Reported;
  /// Filled by encode, which the driver calls on one thread (Jobs = 1).
  mutable std::unordered_set<uint64_t> Solved;
};

/// Pairs WCP calls racy that the maximal solver refutes, over every window
/// of \p T under the default window size.
size_t crossCheckMismatches(const Trace &T) {
  DetectorOptions Options;
  Options.Tier = DetectTier::Smt;
  Options.CollectWitnesses = false;
  Options.Jobs = 1;
  CrossCheckPolicy Policy(T, Options);
  DriverOutput Out = runWindowDriver(T, Options, Policy);
  EXPECT_EQ(Out.Stats.SolverTimeouts, 0u)
      << "an undecided pair is no refutation";
  return Policy.mismatches();
}

/// The trace `rvpredict detect <Source> --seed=<Seed>` records: a random
/// schedule, or with \p RoundRobin the `--schedule=rr` one.
Trace recorded(const std::string &Source, uint64_t Seed, bool RoundRobin) {
  RoundRobinScheduler Rr(3);
  RandomScheduler Random(Seed);
  Trace T;
  RunResult Run;
  std::string Error;
  EXPECT_TRUE(recordTrace(Source, T, Run, Error,
                          RoundRobin ? static_cast<Scheduler *>(&Rr)
                                     : &Random))
      << Error;
  return T;
}

} // namespace

// Kini et al.'s WCP is weakly sound: its first race is predictable, later
// ones need not be. The hybrid tier therefore only short-circuits a
// WCP-racy pair through a witness solve, and the vc tier reports WCP's
// verdict as is. The fixed workloads and the catalog carry no pair WCP
// calls racy that the maximal solver refutes.
TEST(WcpCrossCheck, FixedWorkloadsAndCatalogAgree) {
  EXPECT_EQ(crossCheckMismatches(forkJoinRacyTrace()), 0u);
  for (const char *Name : {"prune_workload.rv", "stats_workload.rv"}) {
    SCOPED_TRACE(Name);
    std::string Source;
    ASSERT_TRUE(readFile(std::string(RVP_GOLDEN_DIR) + "/" + Name, Source));
    EXPECT_EQ(crossCheckMismatches(recorded(Source, 1, true)), 0u);
  }
  for (const BenchmarkCase &Case : table1Benchmarks()) {
    SCOPED_TRACE(Case.Name);
    Trace T;
    std::string Error;
    ASSERT_TRUE(benchmarkTrace(Case, T, Error)) << Error;
    EXPECT_EQ(crossCheckMismatches(T), 0u);
  }
}

// The negative control: on these fuzzed programs weak soundness shows,
// WCP calling pairs racy that no feasible reordering makes a race.
TEST(WcpCrossCheck, FuzzSeedsShowWeakSoundness) {
  for (auto [Seed, Mismatches] : {std::pair<uint64_t, size_t>{24, 8},
                                  std::pair<uint64_t, size_t>{33, 148}}) {
    SCOPED_TRACE(Seed);
    EXPECT_EQ(crossCheckMismatches(recorded(fuzzProgram(Seed), Seed, false)),
              Mismatches);
  }
}
