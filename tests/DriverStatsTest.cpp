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
/// (analysis.ranges_folded counts decision-path folds only).
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticPrune.h"
#include "detect/Stream.h"
#include "detect/WindowDriver.h"
#include "lang/Parser.h"
#include "runtime/Interpreter.h"
#include "support/Telemetry.h"
#include "workloads/Catalog.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace rvp;

namespace {

/// The trace `rvpredict detect props_workload.rv --schedule=rr` records.
Trace propsTrace() {
  std::ifstream In(std::string(RVP_GOLDEN_DIR) + "/props_workload.rv");
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

StreamOptions propertyOptions(const char *Property) {
  StreamOptions Opts;
  std::string Error;
  EXPECT_TRUE(setAnalysisOption(Opts, "property", Property, Error)) << Error;
  EXPECT_TRUE(setAnalysisOption(Opts, "window", "24", Error)) << Error;
  EXPECT_TRUE(setAnalysisOption(Opts, "witness", "true", Error)) << Error;
  EXPECT_TRUE(finishAnalysisOptions(Opts, Error)) << Error;
  return Opts;
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
  // The payload's 8 stats and 10 tallies, each held by one field.
  ASSERT_EQ(Slots.size(), 18u);
  EXPECT_EQ(*Slots.begin(), 0);
  EXPECT_EQ(*Slots.rbegin(), 17);
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
  // counted field keeps its line and slot.
  Trace T = propsTrace();
  StreamOptions Opts = propertyOptions("race");
  std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Opts);
  WindowDriver Driver(T, Opts.Detect, *Policy);
  std::string Payload = "stats 1 2 3 4 5 6 7 8\n"
                        "tallies 9 10 11 12 13 14 15 16 17 18\n"
                        "values\nseen\nqcsig\n";
  ASSERT_TRUE(Driver.resume(Payload));
  EXPECT_EQ(Driver.saveState(), Payload);
  const DetectionStats &S = Driver.output().Stats;
  uint64_t Want[] = {S.Windows,          S.Cops,           S.QcPassed,
                     S.CopsPrunedStatic, S.SolverCalls,    S.SolverTimeouts,
                     S.SolverRetries,    S.DegradedSessions, S.QcHits,
                     S.QcMisses,         S.SignaturePruned, S.SpeculativeSolves,
                     S.BackendFallbacks, S.WcpRaces,       S.WcpPruned,
                     S.WcpResidue,       S.WcpShortCircuits, S.WcpMismatches};
  for (uint64_t I = 0; I < std::size(Want); ++I)
    EXPECT_EQ(Want[I], I + 1) << "slot " << I;
  EXPECT_EQ(S.ResumedWindows, 1u);
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
