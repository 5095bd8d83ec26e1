//===- tests/DriverStatsTest.cpp - The run record and its views -----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The window driver counts every number of a run once, in its
/// DetectionStats, and the telemetry flush, the checkpoint payload and
/// statsToJson all read the one table statsFields(). These tests pin the
/// table's shape, the checkpoint round trip through it, and the one
/// encoder count whose source moved into the record
/// (analysis.ranges_folded counts decision-path folds only). A payload
/// read back from disk is outside input: fixed-seed, structure-aware
/// mutations of real payloads must either resume with well-formed
/// findings or leave the driver's state as it was.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticPrune.h"
#include "detect/Checkpoint.h"
#include "detect/Stream.h"
#include "detect/WindowDriver.h"
#include "lang/Parser.h"
#include "runtime/Interpreter.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "trace/TraceBuilder.h"
#include "workloads/Catalog.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace rvp;

namespace {

/// The trace `rvpredict detect <Workload> --schedule=rr` records from a
/// program under tests/golden.
Trace recordGolden(const char *Workload) {
  std::ifstream In(std::string(RVP_GOLDEN_DIR) + "/" + Workload);
  EXPECT_TRUE(In);
  std::stringstream Source;
  Source << In.rdbuf();
  RoundRobinScheduler RoundRobin(3);
  Trace T;
  RunResult Run;
  std::string Error;
  EXPECT_TRUE(recordTrace(Source.str(), T, Run, Error, &RoundRobin)) << Error;
  return T;
}

Trace propsTrace() { return recordGolden("props_workload.rv"); }

StreamOptions propertyOptions(const char *Property) {
  StreamOptions Opts;
  std::string Error;
  EXPECT_TRUE(setAnalysisOption(Opts, "property", Property, Error)) << Error;
  EXPECT_TRUE(setAnalysisOption(Opts, "window", "24", Error)) << Error;
  EXPECT_TRUE(setAnalysisOption(Opts, "witness", "true", Error)) << Error;
  EXPECT_TRUE(finishAnalysisOptions(Opts, Error)) << Error;
  return Opts;
}

/// Three nested critical sections of t1 around a read of x, a second read
/// of x in the outermost one, and t2's remote write of x.
Trace nestedLocksTrace() {
  TraceBuilder B;
  B.acquire("t1", "a"); // 0
  B.acquire("t1", "b"); // 1
  B.acquire("t1", "c"); // 2
  B.read("t1", "x", 0); // 3
  B.release("t1", "c"); // 4
  B.release("t1", "b"); // 5
  B.read("t1", "x", 0); // 6
  B.release("t1", "a"); // 7
  B.write("t2", "x", 1); // 8
  return B.build();
}

/// A payload with every required line and no finding.
const char *const EmptyPayload = "stats 0 0 0 0 0 0 0 0\n"
                                 "tallies 0 0 0 0 0 0 0 0 0\n"
                                 "values\nseen\nqcsig\n";

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &Line : Lines)
    Out += Line + "\n";
  return Out;
}

/// One structure-aware mutation of a checkpoint payload: a field (half of
/// the time one of a line's first six, where a finding names its events)
/// swapped for an event id of any kind, -1, 2^64, an empty token or hex
/// garbage; a line dropped, duplicated or swapped with another; or the
/// payload cut at a random byte.
std::string mutatePayload(const std::string &Payload, uint64_t NumEvents,
                          Rng &R) {
  std::vector<std::string> Lines;
  for (std::string_view Line : split(Payload, '\n'))
    if (!Line.empty())
      Lines.emplace_back(Line);
  size_t L = R.below(Lines.size());
  switch (R.below(5)) {
  case 0:
  case 1: { // swap one field
    std::vector<std::string> Fields;
    for (std::string_view F : split(Lines[L], ' '))
      Fields.emplace_back(F);
    size_t Head = std::min<size_t>(Fields.size(), 6);
    std::string &Field =
        Fields[R.below(R.chance(1, 2) ? Head : Fields.size())];
    switch (R.below(5)) {
    case 0:
      Field = std::to_string(R.below(NumEvents));
      break;
    case 1:
      Field = "-1";
      break;
    case 2:
      Field = "18446744073709551616";
      break;
    case 3:
      Field.clear();
      break;
    default:
      Field = formatString("%llxg%c", static_cast<unsigned long long>(R.next()),
                           static_cast<char>('!' + R.below(90)));
      break;
    }
    std::string Line;
    for (size_t I = 0; I < Fields.size(); ++I)
      Line += (I ? " " : "") + Fields[I];
    Lines[L] = Line;
    return joinLines(Lines);
  }
  case 2:
    Lines.erase(Lines.begin() + L);
    return joinLines(Lines);
  case 3:
    Lines.insert(Lines.begin() + L, Lines[L]);
    return joinLines(Lines);
  default:
    if (R.chance(1, 2)) {
      std::swap(Lines[L], Lines[R.below(Lines.size())]);
      return joinLines(Lines);
    }
    return Payload.substr(0, R.below(Payload.size()));
  }
}

/// Every finding line of \p Payload names events of the shape the
/// policies enumerate: a conflicting pair in trace order (race), a
/// critical section with two of its accesses to one variable and another
/// thread's access to it (viol), two acquires (dl).
void expectFindingsWellFormed(const Trace &T, const std::string &Payload) {
  for (std::string_view Line : split(Payload, '\n')) {
    if (Line.empty())
      continue;
    std::vector<std::string_view> F = split(Line, ' ');
    std::vector<EventId> E;
    for (size_t I = 1; I < F.size() && I < 6; ++I) {
      int64_t Id = 0;
      if (parseInt(F[I], Id) && Id >= 0 && static_cast<uint64_t>(Id) < T.size())
        E.push_back(static_cast<EventId>(Id));
    }
    if (F[0] == "race") {
      ASSERT_GE(E.size(), 2u) << Line;
      EXPECT_TRUE(E[0] < E[1] && conflicting(T[E[0]], T[E[1]])) << Line;
    } else if (F[0] == "viol") {
      ASSERT_GE(E.size(), 5u) << Line;
      const Event &Acq = T[E[0]], &Rel = T[E[1]];
      const Event &First = T[E[2]], &Remote = T[E[3]], &Second = T[E[4]];
      EXPECT_TRUE(Acq.isAcquire() && Rel.isRelease() &&
                  Acq.Target == Rel.Target && Acq.Tid == Rel.Tid)
          << Line;
      EXPECT_TRUE(E[0] < E[2] && E[2] < E[4] && E[4] < E[1]) << Line;
      EXPECT_TRUE(First.isAccess() && Second.isAccess() &&
                  Remote.isAccess() && First.Tid == Acq.Tid &&
                  Second.Tid == Acq.Tid && Remote.Tid != Acq.Tid &&
                  First.Target == Second.Target &&
                  Remote.Target == First.Target)
          << Line;
    } else if (F[0] == "dl") {
      ASSERT_GE(E.size(), 2u) << Line;
      EXPECT_TRUE(T[E[0]].isAcquire() && T[E[1]].isAcquire()) << Line;
    }
  }
}

/// Every field the checkpoint payload holds, plus the unknown count it
/// re-derives.
void expectSameCheckpointedCounts(const DetectionStats &Want,
                                  const DetectionStats &Got) {
  for (const StatsField &F : statsFields()) {
    if (F.Slot >= 0) {
      EXPECT_EQ(Got.*F.Member, Want.*F.Member)
          << (F.Counter ? F.Counter : F.JsonKey);
    }
  }
  EXPECT_EQ(Got.UnknownCops, Want.UnknownCops);
}

} // namespace

TEST(StatsFields, EachFieldHasOneRowAndEachSlotOneField) {
  std::span<const StatsField> Fields = statsFields();
  std::set<std::string> Names;
  std::set<int> Slots;
  for (size_t I = 0; I < Fields.size(); ++I) {
    const StatsField &F = Fields[I];
    for (size_t J = 0; J < I; ++J)
      EXPECT_FALSE(Fields[J].Member == F.Member) << "row " << I;
    EXPECT_TRUE(F.Counter || F.JsonKey) << "a field nothing reports";
    if (F.Counter) {
      EXPECT_TRUE(Names.insert(F.Counter).second) << F.Counter;
    }
    if (F.JsonKey) {
      EXPECT_TRUE(Names.insert(F.JsonKey).second) << F.JsonKey;
    }
    if (F.Slot >= 0) {
      EXPECT_TRUE(Slots.insert(F.Slot).second)
          << "slot " << static_cast<int>(F.Slot);
    }
  }
  // The payload's 8 stats and 9 tallies, each held by one field except
  // the retired slot 12 (written as 0, ignored on read).
  ASSERT_EQ(Slots.size(), 16u);
  EXPECT_EQ(*Slots.begin(), 0);
  EXPECT_EQ(*Slots.rbegin(), 16);
  EXPECT_EQ(Slots.count(12), 0u);
}

TEST(DriverCheckpoint, EveryWindowRoundTripsThroughAFreshDriver) {
  Trace T = propsTrace();
  for (const char *Property : {"race", "atomicity", "deadlock"}) {
    SCOPED_TRACE(Property);
    StreamOptions Opts = propertyOptions(Property);
    std::unique_ptr<QueryPolicy> PolicyA = makePolicy(T, Opts);
    WindowDriver A(T, Opts.Detect, *PolicyA);
    std::vector<Span> Windows = splitWindows(T, Opts.Detect.WindowSize);
    ASSERT_EQ(Windows.size(), 3u);
    for (Span W : Windows) {
      A.analyze(W);
      std::string Payload = A.saveState();

      std::unique_ptr<QueryPolicy> PolicyB = makePolicy(T, Opts);
      WindowDriver B(T, Opts.Detect, *PolicyB);
      ASSERT_TRUE(B.resume(Payload)) << Payload;
      EXPECT_EQ(B.saveState(), Payload);
      DriverOutput Finished = B.finish();
      expectSameCheckpointedCounts(A.output().Stats, Finished.Stats);
      EXPECT_EQ(Finished.Stats.ResumedWindows, A.output().Stats.Windows);
      EXPECT_EQ(PolicyB->numFindings(), PolicyA->numFindings());
    }
    EXPECT_GT(PolicyA->numFindings(), 0u);
  }
}

TEST(DriverCheckpoint, PayloadMissingATallyIsRejectedWithoutSideEffects) {
  Trace T = propsTrace();
  StreamOptions Opts = propertyOptions("race");
  std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Opts);
  WindowDriver Driver(T, Opts.Detect, *Policy);
  std::vector<Span> Windows = splitWindows(T, Opts.Detect.WindowSize);
  Driver.analyze(Windows[0]);
  std::string Good = Driver.saveState();
  Driver.analyze(Windows[1]);
  std::string Before = Driver.saveState();
  DetectionStats StatsBefore = Driver.output().Stats;

  // Drop the last field of the tallies line.
  size_t Begin = Good.find("tallies");
  ASSERT_NE(Begin, std::string::npos);
  size_t End = Good.find('\n', Begin);
  size_t LastField = Good.rfind(' ', End);
  std::string Bad = Good.substr(0, LastField) + Good.substr(End);
  ASSERT_NE(Bad, Good);

  EXPECT_FALSE(Driver.resume(Bad));
  EXPECT_EQ(Driver.saveState(), Before);
  expectSameCheckpointedCounts(StatsBefore, Driver.output().Stats);
  EXPECT_EQ(Driver.output().Stats.ResumedWindows, 0u);
  // The well-formed payload still restores.
  EXPECT_TRUE(Driver.resume(Good));
  EXPECT_EQ(Driver.saveState(), Good);
}

TEST(DriverCheckpoint, PayloadLayoutIsStable) {
  // Checkpoint directories outlive the binary that wrote them: each
  // counted field keeps its line and slot. Slot 12 held the retired
  // backend-fallback count: a payload with a nonzero value there still
  // resumes, and saving writes 0 in its place.
  Trace T = propsTrace();
  StreamOptions Opts = propertyOptions("race");
  std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Opts);
  WindowDriver Driver(T, Opts.Detect, *Policy);
  std::string Payload = "stats 1 2 3 4 5 6 7 8\n"
                        "tallies 9 10 11 12 13 14 15 16 17\n"
                        "values\nseen\nqcsig\n";
  ASSERT_TRUE(Driver.resume(Payload));
  EXPECT_EQ(Driver.saveState(), "stats 1 2 3 4 5 6 7 8\n"
                                "tallies 9 10 11 12 0 14 15 16 17\n"
                                "values\nseen\nqcsig\n");
  const DetectionStats &S = Driver.output().Stats;
  const uint64_t *Want[] = {
      &S.Windows,          &S.Cops,           &S.QcPassed,
      &S.CopsPrunedStatic, &S.SolverCalls,    &S.SolverTimeouts,
      &S.SolverRetries,    &S.DegradedSessions, &S.QcHits,
      &S.QcMisses,         &S.SignaturePruned, &S.SpeculativeSolves,
      nullptr,             &S.WcpRaces,       &S.WcpPruned,
      &S.WcpResidue,       &S.WcpShortCircuits};
  for (uint64_t I = 0; I < std::size(Want); ++I) {
    if (Want[I]) {
      EXPECT_EQ(*Want[I], I + 1) << "slot " << I;
    }
  }
  EXPECT_EQ(S.ResumedWindows, 1u);
}

TEST(DriverCheckpoint, TenTallyPayloadIsRejectedAndEveryWindowRedone) {
  // Payloads written before the tier cross-check's tally was retired
  // carry a tenth tally. rvpredict's fingerprint did not change with it,
  // so such a snapshot still reaches resume: it must be rejected whole,
  // and the run must redo every window to the report of a run without
  // checkpoints.
  Trace T = propsTrace();
  StreamOptions Opts = propertyOptions("race");
  auto report = [&](const DetectorOptions &Detect, DetectionStats &Stats) {
    std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Opts);
    DriverOutput Out = runWindowDriver(T, Detect, *Policy);
    Stats = Out.Stats;
    // The header's wall time differs between runs.
    std::string Text = Policy->renderReport(std::move(Out), Opts.Render);
    size_t In = Text.find(" in ");
    return Text.erase(In, Text.find('\n') - In);
  };
  DetectionStats FreshStats;
  const std::string Fresh = report(Opts.Detect, FreshStats);
  ASSERT_NE(Fresh.find("race on"), std::string::npos) << Fresh;

  std::string Payload;
  {
    std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Opts);
    WindowDriver Driver(T, Opts.Detect, *Policy);
    std::vector<Span> Windows = splitWindows(T, Opts.Detect.WindowSize);
    ASSERT_EQ(Windows.size(), 3u);
    Driver.analyze(Windows[0]);
    Driver.analyze(Windows[1]);
    Payload = Driver.saveState();
  }
  Payload.insert(Payload.find('\n', Payload.find("tallies")), " 0");

  DetectorOptions Detect = Opts.Detect;
  Detect.CheckpointDir = ::testing::TempDir() + "rvp_ckpt_ten_tallies";
  Detect.CheckpointFingerprint = 21;
  std::error_code Ec;
  std::filesystem::remove_all(Detect.CheckpointDir, Ec);
  CheckpointStore Store(Detect.CheckpointDir, Detect.CheckpointFingerprint);
  ASSERT_TRUE(Store.save(1, Payload));
  DetectionStats Stats;
  EXPECT_EQ(report(Detect, Stats), Fresh);
  EXPECT_EQ(Stats.ResumedWindows, 0u);
  EXPECT_EQ(Stats.Windows, 3u);
  EXPECT_EQ(Stats.SolverCalls, FreshStats.SolverCalls);
}

TEST(DriverStats, RangesFoldedCountsDecisionPathFoldsOnly) {
  // staticflow's constant guard is folded on the decision path only; the
  // witness checker's own guard lookups must not count. Under --tier=smt
  // every COP reaches the encoder, so the count is the same with and
  // without witnesses.
  std::optional<BenchmarkCase> Case = findBenchmark("staticflow");
  ASSERT_TRUE(Case);
  Trace T;
  std::string Error;
  ASSERT_TRUE(benchmarkTrace(*Case, T, Error)) << Error;
  std::optional<Program> Parsed = parseProgram(Case->Source, Error);
  ASSERT_TRUE(Parsed) << Error;
  StaticPruneOracle Oracle(*Parsed);
  Oracle.bind(T);

  uint64_t Folded[2] = {0, 0};
  for (bool Witness : {true, false}) {
    DetectorOptions Options;
    Options.Tier = DetectTier::Smt;
    Options.CollectWitnesses = Witness;
    Options.StaticPruner = &Oracle;
    Options.CfFold = &Oracle;
    Telemetry::setEnabled(true);
    Telemetry::instance().reset();
    DetectionResult R = detectRaces(T, Technique::Maximal, Options);
    uint64_t Flushed =
        MetricsRegistry::global().snapshot().counterValue(
            "analysis.ranges_folded");
    Telemetry::instance().reset();
    Telemetry::setEnabled(false);
    EXPECT_EQ(Flushed, R.Stats.RangesFolded);
    EXPECT_GT(R.Stats.SolverCalls, 0u);
    Folded[Witness] = R.Stats.RangesFolded;
  }
  EXPECT_GE(Folded[true], 1u);
  EXPECT_EQ(Folded[true], Folded[false]);
}

TEST(DriverStats, LedgerSecondsAreThePhaseSeconds) {
  // One clock per timed region: the seconds of the ledger records (which
  // the cop and window trace events render too) are the window, solve
  // and witness phases' own measurements, not a second clock's.
  Trace T = recordGolden("stats_workload.rv");
  DetectorOptions Options;
  Options.Tier = DetectTier::Smt;
  Options.CollectWitnesses = true;
  Options.Jobs = 1;
  Telemetry::setEnabled(true);
  Telemetry::instance().reset();
  DetectionResult R = detectRaces(T, Technique::Maximal, Options);
  Telemetry::instance().reset();
  Telemetry::setEnabled(false);

  double Solve = 0, Witness = 0, Window = 0;
  uint64_t Solved = 0;
  for (const CopCost &C : R.Stats.TopCosts.topCops()) {
    Solved += C.Solved;
    Solve += C.SolveSeconds;
    Witness += C.WitnessSeconds;
  }
  std::vector<WindowCost> Windows = R.Stats.TopCosts.topWindows();
  for (const WindowCost &W : Windows)
    Window += W.Seconds;
  // The ledger kept every record, so its sums cover the whole run.
  ASSERT_EQ(Solved, R.Stats.SolverCalls);
  ASSERT_EQ(Windows.size(), R.Stats.Windows);
  ASSERT_GT(R.Stats.WitnessResolves, 0u);

  const PhaseSnapshot &Phases = R.Stats.Telemetry.Phases;
  for (const char *Name : {"window", "solve", "witness"})
    ASSERT_NE(Phases.find(Name), nullptr) << Name;
  EXPECT_DOUBLE_EQ(Window, Phases.find("window")->Seconds);
  EXPECT_DOUBLE_EQ(Solve, Phases.find("solve")->Seconds);
  EXPECT_DOUBLE_EQ(Witness, Phases.find("witness")->Seconds);
}

TEST(DriverCheckpoint, RaceLineMustNameAConflictingPairInTraceOrder) {
  Trace T = nestedLocksTrace();
  StreamOptions Opts = propertyOptions("race");
  std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Opts);
  WindowDriver Driver(T, Opts.Detect, *Policy);
  const std::string Empty = EmptyPayload, Before = Driver.saveState();
  for (const char *Bad : {"race 2 8 0\n",   // event 2 acquires a lock
                          "race 8 3 0\n",   // out of trace order
                          "race 3 6 0\n",   // one thread
                          "race 3 3 0\n"}) { // one event
    SCOPED_TRACE(Bad);
    EXPECT_FALSE(Driver.resume(Empty + Bad));
    EXPECT_EQ(Driver.saveState(), Before);
  }
  std::string Good = Empty + "race 3 8 0\n";
  ASSERT_TRUE(Driver.resume(Good));
  EXPECT_EQ(Driver.saveState(), Good);
  EXPECT_NE(Policy->renderFinding(0, Opts.Render).find("x"),
            std::string::npos);
}

TEST(DriverCheckpoint, ViolationLineMustHaveTheCandidateShape) {
  Trace T = nestedLocksTrace();
  StreamOptions Opts = propertyOptions("atomicity");
  std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Opts);
  WindowDriver Driver(T, Opts.Detect, *Policy);
  const std::string Empty = EmptyPayload, Before = Driver.saveState();
  for (const char *Bad : {"viol 0 7 2 8 3 0\n", // event 2 acquires a lock
                          "viol 0 5 3 8 6 0\n", // 5 releases another lock
                          "viol 1 5 3 8 6 0\n", // 6 is outside the region
                          "viol 0 7 6 8 3 0\n", // local pair out of order
                          "viol 0 7 3 6 6 0\n", // the remote is local
                          "viol 3 7 3 8 6 0\n", // 3 is no acquire
                          "viol 0 7 3 8 3 0\n"}) { // one local access
    SCOPED_TRACE(Bad);
    EXPECT_FALSE(Driver.resume(Empty + Bad));
    EXPECT_EQ(Driver.saveState(), Before);
  }
  std::string Good = Empty + "viol 0 7 3 8 6 0\n";
  ASSERT_TRUE(Driver.resume(Good));
  EXPECT_EQ(Driver.saveState(), Good);
  EXPECT_NE(Policy->renderFinding(0, Opts.Render).find("x"),
            std::string::npos);
}

TEST(DriverCheckpoint, MutatedPayloadsResumeOrLeaveTheStateAlone) {
  Trace T = propsTrace();
  Rng R(20261017);
  for (const char *Property : {"race", "atomicity", "deadlock"}) {
    SCOPED_TRACE(Property);
    StreamOptions Opts = propertyOptions(Property);
    std::vector<Span> Windows = splitWindows(T, Opts.Detect.WindowSize);
    ASSERT_EQ(Windows.size(), 3u);
    // The snapshots after two windows and after all three (the deadlock
    // is found in the last one).
    std::string Payloads[2];
    {
      std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Opts);
      WindowDriver Driver(T, Opts.Detect, *Policy);
      Driver.analyze(Windows[0]);
      Driver.analyze(Windows[1]);
      Payloads[0] = Driver.saveState();
      Driver.analyze(Windows[2]);
      Payloads[1] = Driver.saveState();
      ASSERT_GT(Policy->numFindings(), 0u);
    }
    size_t Resumed = 0, Rejected = 0;
    for (int I = 0; I < 200; ++I) {
      bool AfterTwo = I % 2 == 0;
      std::string Mutant = mutatePayload(Payloads[!AfterTwo], T.size(), R);
      SCOPED_TRACE(Mutant);
      std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Opts);
      WindowDriver Driver(T, Opts.Detect, *Policy);
      Driver.analyze(Windows[0]);
      std::string Before = Driver.saveState();
      if (!Driver.resume(Mutant)) {
        ++Rejected;
        EXPECT_EQ(Driver.saveState(), Before);
        continue;
      }
      ++Resumed;
      expectFindingsWellFormed(T, Driver.saveState());
      if (AfterTwo)
        Driver.analyze(Windows[2]);
      for (size_t F = 0; F < Policy->numFindings(); ++F)
        Policy->renderFinding(F, Opts.Render);
      Policy->renderReport(Driver.finish(), Opts.Render);
    }
    // The mix exercises both outcomes.
    EXPECT_GT(Resumed, 0u);
    EXPECT_GT(Rejected, 0u);
  }
}
