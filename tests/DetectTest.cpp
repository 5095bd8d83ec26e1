//===- tests/DetectTest.cpp - Detector tests on the paper's examples --------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Reproduces every worked example of the paper as an executable check:
/// Figure 1/4 (race (3,10), non-races (4,8) and (12,15)), Figure 2 (cases
/// ① and ②), and the Section 4 array-indexing example, against all four
/// techniques.
///
//===----------------------------------------------------------------------===//

#include "detect/Detect.h"

#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace rvp;

namespace {

/// Figure 4: the trace of Figure 1's execution. Locations are the paper's
/// line numbers ("f3" = line 3).
Trace figure4Trace() {
  TraceBuilder B;
  B.fork("t1", "t2", "f1");
  B.acquire("t1", "l", "f2");
  B.write("t1", "x", 1, "f3");
  B.write("t1", "y", 1, "f4");
  B.release("t1", "l", "f5");
  B.begin("t2", "f6");
  B.acquire("t2", "l", "f7");
  B.read("t2", "y", 1, "f8");
  B.release("t2", "l", "f9");
  B.read("t2", "x", 1, "f10");
  B.branch("t2", "f11");
  B.write("t2", "z", 1, "f12");
  B.end("t2", "f13");
  B.join("t1", "t2", "f14");
  B.read("t1", "z", 1, "f15");
  return B.build();
}

/// Figure 2, case ①: line 3 is a plain read of the volatile y; line 4 is
/// not control-dependent on it, so there is no branch event.
Trace figure2Case1() {
  TraceBuilder B;
  B.write("t1", "x", 1, "g1");
  B.write("t1", "y", 1, "g2", /*IsVolatile=*/true);
  B.read("t2", "y", 1, "g3", /*IsVolatile=*/true);
  B.read("t2", "x", 1, "g4");
  return B.build();
}

/// Figure 2, case ②: line 3 is `while (y == 0);`, so a branch event
/// separates the read of y from the read of x.
Trace figure2Case2() {
  TraceBuilder B;
  B.write("t1", "x", 1, "g1");
  B.write("t1", "y", 1, "g2", /*IsVolatile=*/true);
  B.read("t2", "y", 1, "g3", /*IsVolatile=*/true);
  B.branch("t2", "g3");
  B.read("t2", "x", 1, "g4");
  return B.build();
}

/// The Section 4 array example: (2,7) both access a[0] and are unordered,
/// yet (2,7) is not a race because line 2's index depends on x.
Trace arrayExampleTrace() {
  TraceBuilder B;
  B.acquire("t1", "l", "h1");
  B.read("t1", "x", 0, "h2");   // index read for a[x]
  B.branch("t1", "h2");         // implicit data-flow branch (Section 4)
  B.write("t1", "a[0]", 2, "h2");
  B.release("t1", "l", "h3");
  B.acquire("t2", "l", "h4");
  B.write("t2", "x", 1, "h5");
  B.release("t2", "l", "h6");
  B.write("t2", "a[0]", 1, "h7");
  return B.build();
}

DetectionResult detect(const Trace &T, Technique Tech) {
  DetectorOptions Options;
  Options.PerCopBudgetSeconds = 30;
  return detectRaces(T, Tech, Options);
}

} // namespace

// ------------------------------------------------------------- Figure 1/4

TEST(Figure1, MaximalDetectsOnlyTheRealRace) {
  Trace T = figure4Trace();
  DetectionResult R = detect(T, Technique::Maximal);
  EXPECT_TRUE(R.hasRaceAt("f3", "f10")) << "the race of Figure 1";
  EXPECT_FALSE(R.hasRaceAt("f4", "f8")) << "(4,8) is ordered by the lock";
  EXPECT_FALSE(R.hasRaceAt("f12", "f15")) << "(12,15) is ordered by join";
  EXPECT_EQ(R.raceCount(), 1u);
}

TEST(Figure1, MaximalWitnessIsValid) {
  Trace T = figure4Trace();
  DetectionResult R = detect(T, Technique::Maximal);
  ASSERT_EQ(R.Races.size(), 1u);
  EXPECT_TRUE(R.Races[0].WitnessValid);
  EXPECT_EQ(R.Races[0].Witness.size(), T.size());
  // The two accesses are adjacent in the witness.
  size_t PosA = 0, PosB = 0;
  for (size_t I = 0; I < R.Races[0].Witness.size(); ++I) {
    if (R.Races[0].Witness[I] == R.Races[0].First)
      PosA = I;
    if (R.Races[0].Witness[I] == R.Races[0].Second)
      PosB = I;
  }
  EXPECT_EQ(PosA + 1, PosB);
}

TEST(Figure1, HbMissesTheRace) {
  DetectionResult R = detect(figure4Trace(), Technique::Hb);
  EXPECT_EQ(R.raceCount(), 0u)
      << "the release->acquire edge orders lines 3 and 10 under HB";
}

TEST(Figure1, CpMissesTheRace) {
  DetectionResult R = detect(figure4Trace(), Technique::Cp);
  EXPECT_EQ(R.raceCount(), 0u)
      << "the critical sections conflict on y, so CP keeps the edge";
}

TEST(Figure1, SaidMissesTheRace) {
  DetectionResult R = detect(figure4Trace(), Technique::Said);
  EXPECT_EQ(R.raceCount(), 0u)
      << "whole-trace consistency forces line 8 to read y=1";
}

TEST(Figure1, QuickCheckCountsPotentialRaces) {
  DetectionResult R = detect(figure4Trace(), Technique::Maximal);
  // (3,10) passes the quick check; (4,8) and (12,15) are lockset- or
  // MHB-filtered.
  EXPECT_EQ(R.Stats.QcPassed, 1u);
  EXPECT_EQ(R.Stats.Cops, 3u);
}

// ------------------------------------------------------------- Figure 2

TEST(Figure2, Case1MaximalDetectsRace) {
  DetectionResult R = detect(figure2Case1(), Technique::Maximal);
  EXPECT_TRUE(R.hasRaceAt("g1", "g4"))
      << "without the branch, line 4 does not depend on line 3";
  EXPECT_EQ(R.raceCount(), 1u);
}

TEST(Figure2, Case2MaximalRejectsRace) {
  DetectionResult R = detect(figure2Case2(), Technique::Maximal);
  EXPECT_FALSE(R.hasRaceAt("g1", "g4"))
      << "the loop's branch makes line 4 control-dependent on the read";
  EXPECT_EQ(R.raceCount(), 0u);
}

TEST(Figure2, HbMissesBothCases) {
  EXPECT_EQ(detect(figure2Case1(), Technique::Hb).raceCount(), 0u)
      << "the volatile write->read edge conservatively orders (1,4)";
  EXPECT_EQ(detect(figure2Case2(), Technique::Hb).raceCount(), 0u);
}

TEST(Figure2, SaidMissesCase1) {
  EXPECT_EQ(detect(figure2Case1(), Technique::Said).raceCount(), 0u)
      << "whole-trace consistency rules out the incomplete trace 3-1-4";
}

// ------------------------------------------------------- Section 4 array

TEST(ArrayExample, MaximalRejectsBecauseOfImplicitDataFlow) {
  DetectionResult R = detect(arrayExampleTrace(), Technique::Maximal);
  EXPECT_FALSE(R.hasRaceAt("h2", "h7"))
      << "rescheduling line 2 next to line 7 would change the index";
  EXPECT_EQ(R.raceCount(), 0u);
}

TEST(ArrayExample, WithoutBranchEventsWouldMisreport) {
  // The same trace minus the implicit branch: an unsound variant that
  // ignores the data flow would claim (2,7) races. This documents why the
  // branch events matter.
  TraceBuilder B;
  B.acquire("t1", "l", "h1");
  B.read("t1", "x", 0, "h2");
  B.write("t1", "a[0]", 2, "h2");
  B.release("t1", "l", "h3");
  B.acquire("t2", "l", "h4");
  B.write("t2", "x", 1, "h5");
  B.release("t2", "l", "h6");
  B.write("t2", "a[0]", 1, "h7");
  Trace T = B.build();
  DetectionResult R = detect(T, Technique::Maximal);
  EXPECT_TRUE(R.hasRaceAt("h2", "h7"))
      << "dropping the branch abstraction loses the index dependence";
}

// -------------------------------------------------- technique separations

namespace {

/// CP > HB: the two critical sections share no variable, so CP drops the
/// lock edge, while HB keeps it and misses the race on x.
Trace cpBeatsHbTrace() {
  TraceBuilder B;
  B.write("t1", "x", 1, "c1");
  B.acquire("t1", "l", "c2");
  B.write("t1", "z", 1, "c3");
  B.release("t1", "l", "c4");
  B.acquire("t2", "l", "c5");
  B.write("t2", "w", 2, "c6");
  B.release("t2", "l", "c7");
  B.write("t2", "x", 2, "c8");
  return B.build();
}

/// Said > CP: the critical sections conflict on z, so CP keeps the edge
/// and misses the race on x; a full consistent reordering still exists.
Trace saidBeatsCpTrace() {
  TraceBuilder B;
  B.write("t1", "x", 1, "s1");
  B.acquire("t1", "l", "s2");
  B.write("t1", "z", 1, "s3");
  B.release("t1", "l", "s4");
  B.acquire("t2", "l", "s5");
  B.write("t2", "z", 2, "s6");
  B.release("t2", "l", "s7");
  B.write("t2", "x", 2, "s8");
  return B.build();
}

} // namespace

TEST(Separations, CpDetectsWhatHbMisses) {
  Trace T = cpBeatsHbTrace();
  EXPECT_EQ(detect(T, Technique::Hb).raceCount(), 0u);
  DetectionResult Cp = detect(T, Technique::Cp);
  EXPECT_TRUE(Cp.hasRaceAt("c1", "c8"));
  DetectionResult Rv = detect(T, Technique::Maximal);
  EXPECT_TRUE(Rv.hasRaceAt("c1", "c8")) << "RV subsumes CP";
}

TEST(Separations, SaidDetectsWhatCpMisses) {
  Trace T = saidBeatsCpTrace();
  EXPECT_EQ(detect(T, Technique::Hb).raceCount(), 0u);
  EXPECT_EQ(detect(T, Technique::Cp).raceCount(), 0u);
  DetectionResult Said = detect(T, Technique::Said);
  EXPECT_TRUE(Said.hasRaceAt("s1", "s8"));
  DetectionResult Rv = detect(T, Technique::Maximal);
  EXPECT_TRUE(Rv.hasRaceAt("s1", "s8")) << "RV subsumes Said";
}

TEST(Separations, CpRuleBOrdersThroughAnotherLock) {
  // The l1 critical sections share no variable directly, but contain
  // CP-ordered events through the conflicting l2 sections; rule (b) must
  // activate the l1 edge and suppress the race on x for CP, while the
  // maximal technique still finds it (the read of z is data-abstract).
  TraceBuilder B;
  B.acquire("t1", "l1", "r1");
  B.acquire("t1", "l2", "r2");
  B.write("t1", "z", 1, "r3");
  B.release("t1", "l2", "r4");
  B.write("t1", "x", 1, "rA"); // race event A, inside CS_l1(t1)
  B.release("t1", "l1", "r5");
  B.acquire("t2", "l2", "r6");
  B.read("t2", "z", 1, "r7");
  B.release("t2", "l2", "r8");
  B.acquire("t2", "l1", "r9");
  B.write("t2", "y", 1, "r10");
  B.release("t2", "l1", "r11");
  B.write("t2", "x", 2, "rB"); // race event B, after CS_l1(t2)
  Trace T = B.build();
  EXPECT_EQ(detect(T, Technique::Hb).raceCount(), 0u);
  DetectionResult Cp = detect(T, Technique::Cp);
  EXPECT_FALSE(Cp.hasRaceAt("rA", "rB"))
      << "rule (b) orders the pair through the z sections";
  DetectionResult Rv = detect(T, Technique::Maximal);
  EXPECT_TRUE(Rv.hasRaceAt("rA", "rB"));
  EXPECT_EQ(detect(T, Technique::Said).raceCount(), 0u)
      << "whole-trace consistency pins the read of z";
}

TEST(Separations, CpComposesWithLockHandoffs) {
  // Shrunk from fuzz seed 24: rA <=po main's release ≺cp t1's acquire
  // (both sections write y) <=po t1's release →hb t2's acquire <=po rB.
  // The t1/t2 handoff is no CP edge of its own, but rule (c) composes CP
  // with all of HB, lock edges included, so CP orders the pair.
  TraceBuilder B;
  B.read("main", "x", 0, "rA"); // race event A
  B.acquire("main", "m");
  B.write("main", "y", 1);
  B.release("main", "m");
  B.acquire("t1", "m");
  B.write("t1", "y", 2);
  B.release("t1", "m");
  B.acquire("t2", "m");
  B.write("t2", "z", 1);
  B.release("t2", "m");
  B.write("t2", "x", 1, "rB"); // race event B
  Trace T = B.build();
  EXPECT_EQ(detect(T, Technique::Hb).raceCount(), 0u);
  EXPECT_FALSE(detect(T, Technique::Cp).hasRaceAt("rA", "rB"))
      << "main's edge to t1 reaches rB through t1's handoff to t2";
}

TEST(Separations, SaidKeepsReadWriteRaceUnderSubstitution) {
  // Schedule "read 0, then the remote write" keeps every read's value, so
  // La<->Lc is a Said race. The `Oa := Ob` substitution merges the read
  // and the remote write onto one position; the read's own value formula
  // must let the merged pair take either order.
  TraceBuilder B;
  B.acquire("t1", "l", "Lacq");
  B.read("t1", "v", 0, "La");
  B.write("t1", "v", 1, "Lb");
  B.release("t1", "l", "Lrel");
  B.write("t2", "v", 7, "Lc");
  Trace T = B.build();
  for (Technique Tech : {Technique::Hb, Technique::Cp, Technique::Said,
                         Technique::Maximal}) {
    DetectionResult R = detect(T, Tech);
    EXPECT_TRUE(R.hasRaceAt("La", "Lc")) << techniqueName(Tech);
    EXPECT_TRUE(R.hasRaceAt("Lb", "Lc")) << techniqueName(Tech);
  }
}

TEST(Separations, PlainUnsynchronizedRaceFoundByAll) {
  TraceBuilder B;
  B.write("t1", "x", 1, "p1");
  B.write("t2", "x", 2, "p2");
  Trace T = B.build();
  for (Technique Tech : {Technique::Hb, Technique::Cp, Technique::Said,
                         Technique::Maximal}) {
    DetectionResult R = detect(T, Tech);
    EXPECT_TRUE(R.hasRaceAt("p1", "p2")) << techniqueName(Tech);
  }
}

TEST(Separations, ForkJoinOrderingSuppressesAll) {
  TraceBuilder B;
  B.write("t1", "x", 1, "q1");
  B.fork("t1", "t2", "q2");
  B.begin("t2", "q3");
  B.write("t2", "x", 2, "q4");
  B.end("t2", "q5");
  B.join("t1", "t2", "q6");
  B.read("t1", "x", 2, "q7");
  Trace T = B.build();
  for (Technique Tech : {Technique::Hb, Technique::Cp, Technique::Said,
                         Technique::Maximal}) {
    EXPECT_EQ(detect(T, Tech).raceCount(), 0u) << techniqueName(Tech);
  }
}

// ------------------------------------------------------------- options

TEST(Options, NaiveAdjacencyEncodingAgrees) {
  DetectorOptions Options;
  Options.SubstituteRaceVars = false;
  Trace T = figure4Trace();
  DetectionResult R = detectRaces(T, Technique::Maximal, Options);
  EXPECT_TRUE(R.hasRaceAt("f3", "f10"));
  EXPECT_EQ(R.raceCount(), 1u);
}

TEST(Options, QuickCheckOffAgrees) {
  DetectorOptions Options;
  Options.UseQuickCheck = false;
  // Pin the solver-only tier: the point is that every COP reaches the
  // solver without the quick check, and the hybrid WCP prune would
  // intercept the MHB-ordered ones first.
  Options.Tier = DetectTier::Smt;
  Trace T = figure4Trace();
  DetectionResult R = detectRaces(T, Technique::Maximal, Options);
  EXPECT_EQ(R.raceCount(), 1u);
  EXPECT_GE(R.Stats.SolverCalls, 3u)
      << "without the filter every COP reaches the solver";
}

TEST(Options, SmallWindowsLoseCrossWindowRaces) {
  TraceBuilder B;
  B.write("t1", "x", 1, "w1");
  for (int I = 0; I < 10; ++I)
    B.write("t1", "pad", I, "wp" + std::to_string(I));
  B.write("t2", "x", 2, "w2");
  Trace T = B.build();

  DetectorOptions Wide;
  Wide.WindowSize = 0;
  EXPECT_EQ(detectRaces(T, Technique::Maximal, Wide).raceCount(), 1u);

  DetectorOptions Narrow;
  Narrow.WindowSize = 4;
  EXPECT_EQ(detectRaces(T, Technique::Maximal, Narrow).raceCount(), 0u)
      << "the racing accesses fall into different windows";
}

TEST(Options, SignaturePruningDeduplicates) {
  // Two dynamic instances of the same static race: one report.
  TraceBuilder B;
  B.write("t1", "x", 1, "r1");
  B.write("t2", "x", 2, "r2");
  B.write("t1", "x", 3, "r1");
  B.write("t2", "x", 4, "r2");
  Trace T = B.build();
  DetectionResult R = detect(T, Technique::Maximal);
  EXPECT_EQ(R.raceCount(), 1u);
}
