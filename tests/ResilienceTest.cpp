//===- tests/ResilienceTest.cpp - Degradation & checkpoint tests -----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The robustness layer (docs/ROBUSTNESS.md): fault-spec parsing, the
/// retry-budget ladder, checkpoint framing, and — with injected faults —
/// the end-to-end soundness guarantees: degraded runs report a subset of
/// the fault-free races, with the difference fully covered by the unknown
/// section, witnesses built after a session fallback validate identically,
/// and a failed witness solve reports its race without a schedule.
///
//===----------------------------------------------------------------------===//

#include "detect/Resilience.h"

#include "detect/Atomicity.h"
#include "detect/Checkpoint.h"
#include "detect/Deadlock.h"
#include "detect/Detect.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>

using namespace rvp;

namespace {

/// Clears the process-wide fault configuration when a test exits, so a
/// failing ASSERT cannot leak faults into later tests.
struct FaultGuard {
  FaultGuard() { FaultInjector::reset(); }
  ~FaultGuard() { FaultInjector::reset(); }
};

void configureOrDie(const std::string &Spec) {
  std::string Error;
  ASSERT_TRUE(FaultInjector::configure(Spec, Error)) << Error;
}

/// Figure 4 of the paper: one real race (f3,f10) under Maximal.
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

/// A per-test checkpoint directory, wiped so snapshots from an earlier
/// ctest invocation cannot leak into this one.
std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + Name;
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  return Dir;
}

/// Variable + unordered loc pair — the cross-run identity of a finding,
/// stable between race reports and unknown entries.
std::string keyOf(const std::string &Var, const std::string &LocA,
                  const std::string &LocB) {
  return Var + "|" + std::min(LocA, LocB) + "|" + std::max(LocA, LocB);
}

} // namespace

//===----------------------------------------------------------------------===//
// Fault spec parsing and triggers
//===----------------------------------------------------------------------===//

TEST(FaultSpec, NthTriggerFiresExactlyOnce) {
  FaultGuard Guard;
  configureOrDie("solver.timeout=2");
  EXPECT_FALSE(FaultInjector::shouldFail(faults::SolverTimeout));
  EXPECT_TRUE(FaultInjector::shouldFail(faults::SolverTimeout));
  EXPECT_FALSE(FaultInjector::shouldFail(faults::SolverTimeout));
  EXPECT_EQ(FaultInjector::instance().hits(faults::SolverTimeout), 3u);
  EXPECT_EQ(FaultInjector::instance().fired(faults::SolverTimeout), 1u);
}

TEST(FaultSpec, FromNthTriggerFiresFromThereOn) {
  FaultGuard Guard;
  configureOrDie("session.corrupt=2+");
  EXPECT_FALSE(FaultInjector::shouldFail(faults::SessionCorrupt));
  EXPECT_TRUE(FaultInjector::shouldFail(faults::SessionCorrupt));
  EXPECT_TRUE(FaultInjector::shouldFail(faults::SessionCorrupt));
}

TEST(FaultSpec, BareSiteFiresAlways) {
  FaultGuard Guard;
  configureOrDie("trace.garble");
  EXPECT_TRUE(FaultInjector::shouldFail(faults::TraceGarble));
  EXPECT_TRUE(FaultInjector::shouldFail(faults::TraceGarble));
  // Unrelated sites are untouched.
  EXPECT_FALSE(FaultInjector::shouldFail(faults::SolverTimeout));
}

TEST(FaultSpec, PercentTriggerIsDeterministicPerSeed) {
  FaultGuard Guard;
  auto sample = [] {
    std::vector<bool> Out;
    for (int I = 0; I < 64; ++I)
      Out.push_back(FaultInjector::shouldFail(faults::SolverTimeout));
    return Out;
  };
  configureOrDie("seed=7,solver.timeout=50%");
  std::vector<bool> First = sample();
  configureOrDie("seed=7,solver.timeout=50%");
  EXPECT_EQ(sample(), First);
  EXPECT_TRUE(std::find(First.begin(), First.end(), true) != First.end());
  EXPECT_TRUE(std::find(First.begin(), First.end(), false) != First.end());
}

TEST(FaultSpec, RejectsUnknownSiteAndMalformedTrigger) {
  FaultGuard Guard;
  std::string Error;
  EXPECT_FALSE(FaultInjector::configure("no.such.site", Error));
  EXPECT_NE(Error.find("no.such.site"), std::string::npos) << Error;
  EXPECT_FALSE(FaultInjector::configure("solver.timeout=abc", Error));
  EXPECT_FALSE(FaultInjector::configure("solver.timeout=", Error));
}

TEST(FaultSpec, EmptySpecDisablesInjection) {
  FaultGuard Guard;
  configureOrDie("solver.timeout");
  EXPECT_TRUE(FaultInjector::enabled());
  configureOrDie("");
  EXPECT_FALSE(FaultInjector::enabled());
  EXPECT_FALSE(FaultInjector::shouldFail(faults::SolverTimeout));
}

TEST(FaultSpec, KnownSitesCoverTheCatalog) {
  const std::vector<std::string> &Sites = knownFaultSites();
  for (const char *Site :
       {faults::SolverTimeout, faults::SessionCorrupt, faults::Z3Unavailable,
        faults::SatDbAlloc, faults::TraceShortRead, faults::TraceGarble,
        faults::DetectAbort})
    EXPECT_TRUE(std::find(Sites.begin(), Sites.end(), Site) != Sites.end())
        << Site;
}

//===----------------------------------------------------------------------===//
// Retry budget parsing
//===----------------------------------------------------------------------===//

TEST(BudgetList, ParsesSuffixes) {
  std::vector<double> Out;
  std::string Error;
  ASSERT_TRUE(parseBudgetList("50ms,250ms,1s", Out, Error)) << Error;
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_DOUBLE_EQ(Out[0], 0.05);
  EXPECT_DOUBLE_EQ(Out[1], 0.25);
  EXPECT_DOUBLE_EQ(Out[2], 1.0);
  ASSERT_TRUE(parseBudgetList("100us", Out, Error)) << Error;
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_DOUBLE_EQ(Out[0], 1e-4);
  // Bare numbers mean seconds; an empty spec is an empty ladder.
  ASSERT_TRUE(parseBudgetList(" 2 ", Out, Error)) << Error;
  EXPECT_DOUBLE_EQ(Out[0], 2.0);
  ASSERT_TRUE(parseBudgetList("", Out, Error)) << Error;
  EXPECT_TRUE(Out.empty());
}

TEST(BudgetList, RejectsMalformedEntries) {
  std::vector<double> Out;
  std::string Error;
  for (const char *Bad : {"fast", "-1s", "0ms", "50ms,,1s", "1s,nope"}) {
    EXPECT_FALSE(parseBudgetList(Bad, Out, Error)) << Bad;
    EXPECT_TRUE(Out.empty()) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Checkpoint framing
//===----------------------------------------------------------------------===//

TEST(Checkpoint, HashIsStableAndSeedChained) {
  EXPECT_EQ(checkpointHash("abc"), checkpointHash("abc"));
  EXPECT_NE(checkpointHash("abc"), checkpointHash("abd"));
  // Chaining folds both inputs in: hash(flags, hash(trace)).
  EXPECT_NE(checkpointHash("abc", checkpointHash("x")),
            checkpointHash("abc", checkpointHash("y")));
}

TEST(Checkpoint, StoreRoundTripsNewestSnapshot) {
  std::string Dir = freshDir("rvp_ckpt_roundtrip");
  CheckpointStore Store(Dir, /*Fingerprint=*/0x1234);
  ASSERT_TRUE(Store.enabled());
  std::string Payload;
  EXPECT_EQ(Store.loadLatest(Payload), -1);
  ASSERT_TRUE(Store.save(3, "state after three\n"));
  ASSERT_TRUE(Store.save(7, "state after seven\n"));
  EXPECT_EQ(Store.loadLatest(Payload), 7);
  EXPECT_EQ(Payload, "state after seven\n");
}

TEST(Checkpoint, FingerprintMismatchIsReportedDistinctly) {
  std::string Dir = freshDir("rvp_ckpt_fingerprint");
  CheckpointStore Writer(Dir, 0xaaaa);
  std::string Payload;
  CheckpointLoad Outcome = CheckpointLoad::Loaded;
  // Empty directory: no snapshot, and explicitly *not* a mismatch.
  EXPECT_EQ(Writer.loadLatest(Payload, &Outcome), -1);
  EXPECT_EQ(Outcome, CheckpointLoad::None);
  ASSERT_TRUE(Writer.save(2, "payload\n"));
  // Another analysis' fingerprint: refused, and the caller can tell the
  // difference from "nothing there" (the drivers turn this into exit 2
  // instead of silently reanalyzing — docs/ROBUSTNESS.md).
  CheckpointStore Other(Dir, 0xbbbb);
  EXPECT_EQ(Other.loadLatest(Payload, &Outcome), -1);
  EXPECT_EQ(Outcome, CheckpointLoad::FingerprintMismatch);
  CheckpointStore Same(Dir, 0xaaaa);
  EXPECT_EQ(Same.loadLatest(Payload, &Outcome), 2);
  EXPECT_EQ(Outcome, CheckpointLoad::Loaded);
  EXPECT_EQ(Payload, "payload\n");
}

TEST(Checkpoint, EmptyDirDisablesTheStore) {
  CheckpointStore Store("", 0x1);
  EXPECT_FALSE(Store.enabled());
  std::string Payload;
  EXPECT_EQ(Store.loadLatest(Payload), -1);
}

//===----------------------------------------------------------------------===//
// Degradation end-to-end
//===----------------------------------------------------------------------===//

TEST(Degradation, ExhaustedBudgetsLandInUnknownNeverInRaces) {
  FaultGuard Guard;
  configureOrDie("solver.timeout,session.corrupt");
  DetectorOptions Options;
  Options.RetryBudgets = {0.01, 0.01};
  DetectionResult R = detectRaces(figure4Trace(), Technique::Maximal, Options);
  // Every solver answer is Unknown, so nothing may be claimed as a race;
  // the candidates surface in the unknown section instead.
  EXPECT_TRUE(R.Races.empty());
  ASSERT_FALSE(R.Unknowns.empty());
  EXPECT_EQ(R.Stats.UnknownCops, R.Unknowns.size());
  for (const UnknownReport &U : R.Unknowns)
    EXPECT_GT(U.Attempts, 1u) << "ladder was not escalated";
  EXPECT_GT(R.Stats.SolverRetries, 0u);
  EXPECT_GT(R.Stats.DegradedSessions, 0u);
}

TEST(Degradation, SessionCorruptionRebuildKeepsResultsIdentical) {
  Trace T = figure4Trace();
  DetectionResult Healthy = detectRaces(T, Technique::Maximal);

  FaultGuard Guard;
  configureOrDie("session.corrupt=1"); // first query poisons the session
  DetectionResult Degraded = detectRaces(T, Technique::Maximal);

  EXPECT_GT(Degraded.Stats.DegradedSessions, 0u);
  ASSERT_EQ(Degraded.Races.size(), Healthy.Races.size());
  EXPECT_TRUE(Degraded.Unknowns.empty());
  for (size_t I = 0; I < Healthy.Races.size(); ++I) {
    EXPECT_EQ(Degraded.Races[I].LocFirst, Healthy.Races[I].LocFirst);
    EXPECT_EQ(Degraded.Races[I].LocSecond, Healthy.Races[I].LocSecond);
    // The witness built after the fallback must validate and match the
    // healthy session's witness event-for-event.
    EXPECT_TRUE(Degraded.Races[I].WitnessValid);
    EXPECT_EQ(Degraded.Races[I].Witness, Healthy.Races[I].Witness);
  }
}

TEST(Degradation, DeadSessionFallsBackToOneShotSolving) {
  Trace T = figure4Trace();
  DetectionResult Healthy = detectRaces(T, Technique::Maximal);

  FaultGuard Guard;
  // Poison every session query: quarantine, rebuild, quarantine again →
  // the host drops to fresh one-shot solvers, which still answer.
  configureOrDie("session.corrupt");
  DetectionResult Degraded = detectRaces(T, Technique::Maximal);

  EXPECT_GE(Degraded.Stats.DegradedSessions, 2u);
  ASSERT_EQ(Degraded.raceCount(), Healthy.raceCount());
  EXPECT_TRUE(Degraded.Unknowns.empty());
  for (size_t I = 0; I < Healthy.Races.size(); ++I) {
    EXPECT_TRUE(Degraded.Races[I].WitnessValid);
    EXPECT_EQ(Degraded.Races[I].Witness, Healthy.Races[I].Witness);
  }
}

TEST(Degradation, WitnessSolveTimeoutKeepsTheRaceWithoutASchedule) {
  // Smt tier: the COP's session decision is solve 1, its one-shot witness
  // solve 2. Failing exactly the witness solve must neither drop the race
  // nor pass a made-up order off as its schedule.
  Trace T = figure4Trace();
  DetectorOptions Options;
  Options.Tier = DetectTier::Smt;
  DetectionResult Healthy = detectRaces(T, Technique::Maximal, Options);
  ASSERT_EQ(Healthy.raceCount(), 1u);
  ASSERT_TRUE(Healthy.Races[0].WitnessValid);
  ASSERT_FALSE(Healthy.Races[0].Witness.empty());

  FaultGuard Guard;
  configureOrDie("solver.timeout=2");
  Telemetry::setEnabled(true);
  Telemetry::instance().reset();
  DetectionResult R = detectRaces(T, Technique::Maximal, Options);
  MetricsSnapshot Metrics = MetricsRegistry::global().snapshot();
  Telemetry::instance().reset();
  Telemetry::setEnabled(false);

  ASSERT_EQ(R.raceCount(), 1u);
  EXPECT_EQ(R.Races[0].LocFirst, Healthy.Races[0].LocFirst);
  EXPECT_EQ(R.Races[0].LocSecond, Healthy.Races[0].LocSecond);
  EXPECT_FALSE(R.Races[0].WitnessValid);
  EXPECT_TRUE(R.Races[0].Witness.empty());
  EXPECT_TRUE(R.Unknowns.empty()) << "the decision itself succeeded";
  EXPECT_EQ(R.Stats.SolverCalls, 1u);
  EXPECT_EQ(R.Stats.SolverTimeouts, 0u);
  EXPECT_EQ(Metrics.counterValue("solver.witness_resolves"), 1u);
  EXPECT_EQ(Metrics.counterValue("solver.witness_failures"), 1u);
}

TEST(Degradation, Z3OutageFallsBackToIdl) {
  Trace T = figure4Trace();
  DetectorOptions Idl;
  Idl.SolverName = "idl";
  DetectionResult Expected = detectRaces(T, Technique::Maximal, Idl);

  FaultGuard Guard;
  configureOrDie("z3.unavailable");
  DetectorOptions Z3;
  Z3.SolverName = "z3";
  DetectionResult Actual = detectRaces(T, Technique::Maximal, Z3);

  ASSERT_EQ(Actual.raceCount(), Expected.raceCount());
  for (size_t I = 0; I < Expected.Races.size(); ++I) {
    EXPECT_EQ(Actual.Races[I].LocFirst, Expected.Races[I].LocFirst);
    EXPECT_EQ(Actual.Races[I].LocSecond, Expected.Races[I].LocSecond);
  }
}

TEST(Degradation, RandomizedFaultyRunAgreesModuloUnknowns) {
  // Soundness under partial outage: whatever a fault-injected run reports
  // as a race must be a fault-free race, and every fault-free race it
  // misses must sit in its unknown section.
  for (uint64_t Seed : {1u, 2u, 3u}) {
    SyntheticSpec Spec;
    Spec.Workers = 4;
    Spec.TargetEvents = 2000;
    Spec.PlainRaces = 2;
    Spec.RvOnlyRaces = 1;
    Spec.Seed = Seed;
    Trace T = generateSynthetic(Spec);

    DetectorOptions Options;
    Options.RetryBudgets = {0.05, 0.2};
    DetectionResult Healthy = detectRaces(T, Technique::Maximal, Options);

    FaultGuard Guard;
    std::string FaultSpecStr =
        "seed=" + std::to_string(Seed) + ",solver.timeout=40%";
    configureOrDie(FaultSpecStr);
    DetectionResult Faulty = detectRaces(T, Technique::Maximal, Options);
    FaultInjector::reset();

    std::set<std::string> HealthyKeys, FaultyKeys, UnknownKeys;
    for (const RaceReport &R : Healthy.Races)
      HealthyKeys.insert(keyOf(R.Variable, R.LocFirst, R.LocSecond));
    for (const RaceReport &R : Faulty.Races)
      FaultyKeys.insert(keyOf(R.Variable, R.LocFirst, R.LocSecond));
    for (const UnknownReport &U : Faulty.Unknowns)
      UnknownKeys.insert(keyOf(U.Variable, U.LocFirst, U.LocSecond));

    for (const std::string &Key : FaultyKeys)
      EXPECT_TRUE(HealthyKeys.count(Key))
          << "seed " << Seed << ": fault-injected run invented race " << Key;
    for (const std::string &Key : HealthyKeys)
      EXPECT_TRUE(FaultyKeys.count(Key) || UnknownKeys.count(Key))
          << "seed " << Seed << ": race " << Key
          << " silently vanished under faults";
  }
}

//===----------------------------------------------------------------------===//
// Checkpoint resume through the drivers
//===----------------------------------------------------------------------===//

namespace {

/// A multi-window workload with races, an atomicity violation, and a
/// deadlock, so each driver accumulates non-trivial resumable state.
Trace resumableWorkload() {
  SyntheticSpec Spec;
  Spec.Workers = 4;
  Spec.TargetEvents = 4000;
  Spec.PlainRaces = 2;
  Spec.AtomicityPairs = 1;
  Spec.DeadlockCycles = 1;
  Spec.AlignWindow = 1000;
  Trace T = generateSynthetic(Spec);
  return T;
}

/// Multi-window options; pass an empty \p Dir for the checkpoint-free
/// baseline with the same windowing.
DetectorOptions checkpointOptions(const Trace &T, const std::string &Dir) {
  DetectorOptions Options;
  Options.WindowSize = 1000;
  Options.CheckpointDir = Dir;
  if (!Dir.empty())
    Options.CheckpointFingerprint = checkpointHash(writeTraceText(T));
  return Options;
}

} // namespace

TEST(CheckpointResume, RaceDriverResumesToIdenticalResult) {
  Trace T = resumableWorkload();
  DetectionResult Fresh =
      detectRaces(T, Technique::Maximal, checkpointOptions(T, ""));

  std::string Dir = freshDir("rvp_resume_race");
  DetectorOptions Options = checkpointOptions(T, Dir);
  DetectionResult First = detectRaces(T, Technique::Maximal, Options);
  ASSERT_GT(First.Stats.Windows, 1u) << "workload must span windows";

  // Second run finds the final snapshot, restores, and skips every
  // window: no new solver work, identical report.
  DetectionResult Resumed = detectRaces(T, Technique::Maximal, Options);
  EXPECT_EQ(Resumed.Stats.SolverCalls, First.Stats.SolverCalls);
  ASSERT_EQ(Resumed.raceCount(), Fresh.raceCount());
  for (size_t I = 0; I < Fresh.Races.size(); ++I) {
    EXPECT_EQ(Resumed.Races[I].LocFirst, Fresh.Races[I].LocFirst);
    EXPECT_EQ(Resumed.Races[I].LocSecond, Fresh.Races[I].LocSecond);
    EXPECT_EQ(Resumed.Races[I].Witness, Fresh.Races[I].Witness);
    EXPECT_EQ(Resumed.Races[I].WitnessValid, Fresh.Races[I].WitnessValid);
  }
}

TEST(CheckpointResume, AtomicityDriverResumesToIdenticalResult) {
  Trace T = resumableWorkload();
  AtomicityResult Fresh = detectAtomicityViolations(T, checkpointOptions(T, ""));

  std::string Dir = freshDir("rvp_resume_atom");
  DetectorOptions Options = checkpointOptions(T, Dir);
  AtomicityResult First = detectAtomicityViolations(T, Options);
  AtomicityResult Resumed = detectAtomicityViolations(T, Options);
  EXPECT_EQ(Resumed.Stats.SolverCalls, First.Stats.SolverCalls);
  ASSERT_EQ(Resumed.Violations.size(), Fresh.Violations.size());
  for (size_t I = 0; I < Fresh.Violations.size(); ++I) {
    EXPECT_EQ(Resumed.Violations[I].Variable, Fresh.Violations[I].Variable);
    EXPECT_EQ(Resumed.Violations[I].LocFirst, Fresh.Violations[I].LocFirst);
    EXPECT_EQ(Resumed.Violations[I].LocRemote, Fresh.Violations[I].LocRemote);
    EXPECT_EQ(Resumed.Violations[I].LocSecond, Fresh.Violations[I].LocSecond);
  }
}

TEST(CheckpointResume, DeadlockDriverResumesToIdenticalResult) {
  Trace T = resumableWorkload();
  DeadlockResult Fresh = detectDeadlocks(T, checkpointOptions(T, ""));

  std::string Dir = freshDir("rvp_resume_dl");
  DetectorOptions Options = checkpointOptions(T, Dir);
  DeadlockResult First = detectDeadlocks(T, Options);
  DeadlockResult Resumed = detectDeadlocks(T, Options);
  EXPECT_EQ(Resumed.Stats.SolverCalls, First.Stats.SolverCalls);
  ASSERT_EQ(Resumed.Deadlocks.size(), Fresh.Deadlocks.size());
  for (size_t I = 0; I < Fresh.Deadlocks.size(); ++I) {
    EXPECT_EQ(Resumed.Deadlocks[I].LocRequestA, Fresh.Deadlocks[I].LocRequestA);
    EXPECT_EQ(Resumed.Deadlocks[I].LocRequestB, Fresh.Deadlocks[I].LocRequestB);
  }
}

TEST(CheckpointResume, UnknownsSurviveTheSnapshot) {
  // Unknown entries are resumable state too: a run whose solver always
  // times out checkpoints its unknowns, and the resumed run reloads them
  // instead of silently dropping the section.
  Trace T = figure4Trace();
  std::string Dir = freshDir("rvp_resume_unknown");
  DetectorOptions Options = checkpointOptions(T, Dir);

  {
    FaultGuard Guard;
    configureOrDie("solver.timeout,session.corrupt");
    DetectionResult Faulty = detectRaces(T, Technique::Maximal, Options);
    ASSERT_FALSE(Faulty.Unknowns.empty());
  }

  // Resume fault-free: every window is already covered, so the unknowns
  // come straight from the snapshot.
  DetectionResult Resumed = detectRaces(T, Technique::Maximal, Options);
  EXPECT_FALSE(Resumed.Unknowns.empty());
  EXPECT_EQ(Resumed.Stats.UnknownCops, Resumed.Unknowns.size());
}
