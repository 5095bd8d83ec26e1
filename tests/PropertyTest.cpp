//===- tests/PropertyTest.cpp - Cross-detector invariants --------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Property sweeps over random MiniRV programs. For every fuzzed trace:
///
///  * detection-power containment: HB ⊆ CP and HB ⊆ WCP (both relax HB
///    edges; WCP is the vc tier) and Said ⊆ RV (Said's races are real, RV
///    is maximal); for HB/CP/WCP, which are sound only up to the first
///    race, the weaker implication "any report implies RV reports
///    something" is asserted;
///  * mode identity: rv and said reports and witnesses are byte-identical
///    with the whole-window cone, with the one-shot solving fallback and
///    with four jobs;
///  * every maximal-technique race carries a validated witness, and every
///    witness schedule replays into its race;
///  * RV race sets agree between the in-tree CDCL(T) solver and Z3;
///  * RV races are a subset of the quick check's potential races;
///  * the `Oa := Ob` substitution and the naive adjacency encoding find
///    the same races.
///
//===----------------------------------------------------------------------===//

#include "detect/Atomicity.h"
#include "detect/Deadlock.h"
#include "detect/Detect.h"
#include "detect/WindowDriver.h"
#include "runtime/Interpreter.h"
#include "support/FaultInjector.h"
#include "trace/Consistency.h"
#include "workloads/Fuzzer.h"

#include <gtest/gtest.h>

#include <set>

using namespace rvp;

namespace {

std::set<uint64_t> signatureSet(const DetectionResult &R) {
  std::set<uint64_t> Sigs;
  for (const RaceReport &Race : R.Races)
    Sigs.insert(Race.Sig.key());
  return Sigs;
}

bool isSubset(const std::set<uint64_t> &Sub, const std::set<uint64_t> &Sup) {
  for (uint64_t Key : Sub)
    if (!Sup.count(Key))
      return false;
  return true;
}

/// Every race of \p R as its checkpoint line: the pair, the witness-valid
/// flag and the witness.
std::string raceLines(const DetectionResult &R) {
  std::string Lines;
  for (const RaceReport &Race : R.Races)
    Lines += findingLine("race", {Race.First, Race.Second}, Race.WitnessValid,
                         Race.Witness) +
             "\n";
  return Lines;
}

/// raceLines of one run through the policy path, with the decision path
/// on the whole-window cone or under the fault spec \p Faults.
std::string raceLines(const Trace &T, Technique Tech,
                      const DetectorOptions &Options, bool WholeWindow,
                      const char *Faults) {
  std::unique_ptr<QueryPolicy> Policy = makeRacePolicy(T, Tech, Options);
  Policy->Encoding.Slice = !WholeWindow;
  std::string Error;
  EXPECT_TRUE(FaultInjector::configure(Faults, Error)) << Error;
  runWindowDriver(T, Options, *Policy);
  FaultInjector::reset();
  std::string Lines;
  for (size_t I = 0; I < Policy->numFindings(); ++I)
    Lines += Policy->checkpointLine(I) + "\n";
  return Lines;
}

Trace fuzzTrace(uint64_t Seed) {
  std::string Source = fuzzProgram(Seed);
  Trace T;
  RunResult Result;
  std::string Error;
  RandomScheduler S(Seed * 31 + 1);
  RunLimits Limits;
  Limits.MaxEvents = 20000;
  EXPECT_TRUE(recordTrace(Source, T, Result, Error, &S, Limits)) << Error;
  return T;
}

} // namespace

class DetectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DetectorPropertyTest, ContainmentAndWitnesses) {
  Trace T = fuzzTrace(GetParam());
  DetectorOptions Options;
  Options.PerCopBudgetSeconds = 20;

  DetectionResult Hb = detectRaces(T, Technique::Hb, Options);
  DetectionResult Cp = detectRaces(T, Technique::Cp, Options);
  DetectionResult Said = detectRaces(T, Technique::Said, Options);
  DetectionResult Rv = detectRaces(T, Technique::Maximal, Options);
  DetectorOptions VcTier = Options;
  VcTier.Tier = DetectTier::Vc;
  DetectionResult Wcp = detectRaces(T, Technique::Maximal, VcTier);

  auto HbSigs = signatureSet(Hb);
  auto CpSigs = signatureSet(Cp);
  auto WcpSigs = signatureSet(Wcp);
  auto SaidSigs = signatureSet(Said);
  auto RvSigs = signatureSet(Rv);

  // CP drops a subset of HB's edges, so its race set always contains HB's.
  EXPECT_TRUE(isSubset(HbSigs, CpSigs))
      << "seed " << GetParam() << ": CP must subsume HB";
  // WCP weakens HB too. Like HB and CP it is only weakly sound (Kini et
  // al.; docs/TIERS.md): a later WCP race may depend on the read values of
  // an earlier one, so WCP ⊆ RV does not hold (seed 7: L7<->L12). CP ⊆
  // WCP does not hold either: WcpIndex keeps per-(lock, var) clocks that
  // are not indexed by thread, and clipped sections keep their queue
  // entries, a slack that over-orders (detect/Wcp.h). Seeds 24
  // (L16<->L84) and 33 (L94<->L41, L94<->L42) are pairs WCP orders and CP
  // does not.
  EXPECT_TRUE(isSubset(HbSigs, WcpSigs))
      << "seed " << GetParam() << ": WCP must subsume HB";
  // Said's races are real (whole-trace consistency keeps every branch's
  // read history), so maximality makes them a subset of RV's.
  EXPECT_TRUE(isSubset(SaidSigs, RvSigs))
      << "seed " << GetParam() << ": RV must subsume Said";
  // HB/CP are only sound up to the *first* race: later reports may be
  // infeasible under the maximal causal model (a branch-guarded event's
  // read history would change), so set containment does not hold for
  // them. What must hold: if they report anything, a real race exists,
  // and RV finds all real races.
  if (!HbSigs.empty() || !CpSigs.empty() || !WcpSigs.empty()) {
    EXPECT_FALSE(RvSigs.empty())
        << "seed " << GetParam()
        << ": an HB/CP/WCP report implies some real race exists";
  }

  // Soundness machinery: every RV race has a validated witness.
  for (const RaceReport &Race : Rv.Races)
    EXPECT_TRUE(Race.WitnessValid)
        << "seed " << GetParam() << " race " << Race.LocFirst << ","
        << Race.LocSecond;

  // The quick check over-approximates: RV races pass it.
  EXPECT_LE(RvSigs.size(), Rv.Stats.QcPassed) << "seed " << GetParam();

  // Mode identity: the references of the default decision path and the
  // parallel solve loop print the same races with the same witnesses.
  DetectorOptions Jobs4 = Options;
  Jobs4.Jobs = 4;
  for (const DetectionResult *R : {&Rv, &Said}) {
    const Technique Tech = R == &Rv ? Technique::Maximal : Technique::Said;
    const std::string Expected = raceLines(*R);
    EXPECT_EQ(raceLines(T, Tech, Options, /*WholeWindow=*/true, ""),
              Expected)
        << "seed " << GetParam() << " " << techniqueName(Tech)
        << ": whole-window cone";
    EXPECT_EQ(raceLines(T, Tech, Options, false, faults::SessionCorrupt),
              Expected)
        << "seed " << GetParam() << " " << techniqueName(Tech)
        << ": one-shot fallback";
    EXPECT_EQ(raceLines(T, Tech, Jobs4, false, ""), Expected)
        << "seed " << GetParam() << " " << techniqueName(Tech) << ": jobs=4";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DetectorPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

class ExtensionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtensionPropertyTest, AtomicityAndDeadlockWitnessesValidate) {
  Trace T = fuzzTrace(GetParam() + 3000);
  DetectorOptions Options;
  Options.PerCopBudgetSeconds = 20;

  AtomicityResult Atom = detectAtomicityViolations(T, Options);
  for (const AtomicityReport &V : Atom.Violations) {
    EXPECT_TRUE(V.WitnessValid)
        << "seed " << GetParam() << " violation " << V.LocFirst << ","
        << V.LocRemote << "," << V.LocSecond;
  }
  DeadlockResult Dl = detectDeadlocks(T, Options);
  for (const DeadlockReport &D : Dl.Deadlocks) {
    EXPECT_TRUE(D.WitnessValid)
        << "seed " << GetParam() << " deadlock " << D.LocRequestA << ","
        << D.LocRequestB;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExtensionPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

// Replay: drive the interpreter with each witness's thread schedule
// (truncated just past the racing pair) and check that the race manifests
// (the two locations adjacent, different threads). A witness keeps every
// read that a cone event's control flow depends on, so every schedule
// must manifest its race.
class ReplayPropertyTest : public ::testing::Test {};

TEST_F(ReplayPropertyTest, WitnessSchedulesManifestRaces) {
  size_t Attempted = 0, Manifested = 0;
  for (uint64_t Seed = 0; Seed < 25; ++Seed) {
    std::string Source = fuzzProgram(Seed);
    Trace T;
    RunResult Run;
    std::string Error;
    RandomScheduler Recorder(Seed * 31 + 1);
    RunLimits Limits;
    Limits.MaxEvents = 20000;
    if (!recordTrace(Source, T, Run, Error, &Recorder, Limits))
      continue;
    DetectorOptions Options;
    Options.PerCopBudgetSeconds = 20;
    DetectionResult R = detectRaces(T, Technique::Maximal, Options);
    size_t PerSeed = 0;
    for (const RaceReport &Race : R.Races) {
      if (!Race.WitnessValid || PerSeed++ >= 3)
        break;
      // Schedule up to and including both racing events.
      size_t Cut = 0;
      for (size_t I = 0; I < Race.Witness.size(); ++I)
        if (Race.Witness[I] == Race.First ||
            Race.Witness[I] == Race.Second)
          Cut = I;
      std::vector<ThreadId> Schedule;
      for (size_t I = 0; I <= Cut; ++I)
        Schedule.push_back(T[Race.Witness[I]].Tid);
      Trace Replayed;
      RunResult ReplayRun;
      ReplayScheduler S(Schedule);
      if (!recordTrace(Source, Replayed, ReplayRun, Error, &S, Limits))
        continue;
      ++Attempted;
      for (EventId Id = 0; Id + 1 < Replayed.size(); ++Id) {
        const Event &A = Replayed[Id];
        const Event &B = Replayed[Id + 1];
        if (A.Tid == B.Tid || A.Loc == UnknownLoc || B.Loc == UnknownLoc)
          continue;
        const std::string &LocA = Replayed.locName(A.Loc);
        const std::string &LocB = Replayed.locName(B.Loc);
        if ((LocA == Race.LocFirst && LocB == Race.LocSecond) ||
            (LocA == Race.LocSecond && LocB == Race.LocFirst)) {
          ++Manifested;
          break;
        }
      }
    }
  }
  ASSERT_GT(Attempted, 10u) << "the sweep should produce enough witnesses";
  EXPECT_EQ(Manifested, Attempted)
      << "every witness schedule should manifest its race (" << Manifested
      << "/" << Attempted << ")";
}

class WindowingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowingPropertyTest, WindowedRacesAreASubsetOfWholeTrace) {
  // A windowed reordering extends to a whole-trace reordering (the
  // prefix stays as recorded), so windowing can only lose races, never
  // invent them.
  Trace T = fuzzTrace(GetParam() + 4000);
  DetectorOptions Whole;
  Whole.WindowSize = 0;
  Whole.PerCopBudgetSeconds = 20;
  DetectorOptions Windowed = Whole;
  Windowed.WindowSize = 60;

  auto WholeSigs = signatureSet(detectRaces(T, Technique::Maximal, Whole));
  auto WindowedSigs =
      signatureSet(detectRaces(T, Technique::Maximal, Windowed));
  EXPECT_TRUE(isSubset(WindowedSigs, WholeSigs)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, WindowingPropertyTest,
                         ::testing::Range<uint64_t>(0, 15));

class SolverAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverAgreementTest, IdlAndZ3FindTheSameRaces) {
  Trace T = fuzzTrace(GetParam() + 1000);
  DetectorOptions Idl;
  Idl.SolverName = "idl";
  Idl.PerCopBudgetSeconds = 20;
  DetectorOptions Z3 = Idl;
  Z3.SolverName = "z3";

  DetectionResult A = detectRaces(T, Technique::Maximal, Idl);
  DetectionResult B = detectRaces(T, Technique::Maximal, Z3);
  EXPECT_EQ(signatureSet(A), signatureSet(B)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverAgreementTest,
                         ::testing::Range<uint64_t>(0, 12));

class EncodingAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodingAgreementTest, SubstitutionMatchesNaiveAdjacency) {
  Trace T = fuzzTrace(GetParam() + 2000);
  if (T.size() > 400)
    GTEST_SKIP() << "naive adjacency encoding is quadratic; keep it small";
  DetectorOptions Subst;
  Subst.PerCopBudgetSeconds = 20;
  DetectorOptions Naive = Subst;
  Naive.SubstituteRaceVars = false;

  for (Technique Tech : {Technique::Maximal, Technique::Said}) {
    DetectionResult A = detectRaces(T, Tech, Subst);
    DetectionResult B = detectRaces(T, Tech, Naive);
    EXPECT_EQ(signatureSet(A), signatureSet(B))
        << techniqueName(Tech) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EncodingAgreementTest,
                         ::testing::Range<uint64_t>(0, 10));
