//===- tests/ModeEquivalenceTest.cpp - Reference modes as tests -----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The default detection path against its two references, in process and
/// rendered through the path `rvpredict detect` prints from (makePolicy →
/// runWindowDriver → renderReport), with wall-clock timing normalized:
///
///  * the whole-window cone (the policy's Encoding.Slice off): cone-of-
///    influence slicing is equisatisfiable (docs/ENCODER.md), so reports,
///    witnesses and summary counts must be byte-identical;
///  * the one-shot fallback: the session.corrupt fault poisons every
///    session query, so each SolveHost quarantines its session twice and
///    decides the rest of the window with fresh one-shot solvers.
///    Incremental solving must be invisible (docs/INCREMENTAL_SOLVING.md).
///
/// The matrix: rv and said under both schedules at one and four jobs, plus
/// static pruning, on prune_workload.rv; atomicity and deadlock at one and
/// four jobs on props_workload.rv; and, against the one-shot fallback, the
/// cp and hb relations, which never reach a solver. prune_workload.rv asks
/// the solver one satisfiable query, so rv and said also run on
/// props_workload.rv at the smt tier, whose windows hold unsatisfiable
/// queries too, and rv at the default tier in 37-event windows, whose
/// seam cuts through a critical section. Non-vacuity checks make sure the
/// default run really slices and really decides through sessions.
/// DetectorPropertyTest repeats both comparisons on fuzzed traces.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticPrune.h"
#include "detect/Stream.h"
#include "detect/WindowDriver.h"
#include "lang/Parser.h"
#include "runtime/Interpreter.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace rvp;

namespace {

/// One `rvpredict detect <Program> --seed=1 --witness=true ...` run.
struct Row {
  const char *Program; ///< under tests/golden
  const char *Schedule;
  uint32_t Jobs;
  std::vector<std::pair<const char *, const char *>> Keys;
  bool StaticPrune = false;

  std::string label() const {
    std::string Label = std::string(Program) + " schedule=" + Schedule +
                        " jobs=" + std::to_string(Jobs);
    for (const auto &[Key, Value] : Keys)
      Label += std::string(" ") + Key + "=" + Value;
    return Label + (StaticPrune ? " static-prune" : "");
  }
};

/// The rows that reach a solver: the matrix of the module comment.
std::vector<Row> solverRows() {
  std::vector<Row> Rows;
  for (const char *Tech : {"rv", "said"}) {
    for (const char *Schedule : {"rr", "random"})
      for (uint32_t Jobs : {1u, 4u})
        Rows.push_back({"prune_workload.rv", Schedule, Jobs,
                        {{"technique", Tech}}});
    Rows.push_back({"prune_workload.rv", "rr", 2, {{"technique", Tech}},
                    /*StaticPrune=*/true});
  }
  for (const char *Tech : {"rv", "said"})
    for (uint32_t Jobs : {1u, 4u})
      Rows.push_back(
          {"props_workload.rv", "rr", Jobs,
           {{"technique", Tech}, {"tier", "smt"}, {"window", "24"}}});
  for (const char *Property : {"atomicity", "deadlock"})
    for (uint32_t Jobs : {1u, 4u})
      Rows.push_back({"props_workload.rv", "rr", Jobs,
                      {{"property", Property}, {"window", "24"}}});
  // At 37 events the seam cuts through a critical section, so the WCP
  // tier, the encoder and the witness checks of the second window read a
  // section open at window entry (Trace::lockPairsTouching), concurrently
  // with four jobs.
  for (uint32_t Jobs : {1u, 4u})
    Rows.push_back({"props_workload.rv", "rr", Jobs,
                    {{"technique", "rv"}, {"window", "37"}}});
  return Rows;
}

enum class Mode {
  Default,
  WholeWindow, ///< the policy's Encoding.Slice off
  OneShot,     ///< session.corrupt: every host drops to one-shot solving
};

struct Outcome {
  std::string Report; ///< timing normalized
  DetectionStats Stats;
};

std::string readGolden(const char *Name) {
  std::ifstream In(std::string(RVP_GOLDEN_DIR) + "/" + Name);
  EXPECT_TRUE(In) << Name;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

Outcome detect(const Row &R, Mode M) {
  std::string Source = readGolden(R.Program);
  RoundRobinScheduler RoundRobin(3);
  RandomScheduler Random(1);
  Scheduler *S = std::string(R.Schedule) == "rr"
                     ? static_cast<Scheduler *>(&RoundRobin)
                     : &Random;
  Trace T;
  RunResult Run;
  std::string Error;
  EXPECT_TRUE(recordTrace(Source, T, Run, Error, S)) << Error;

  StreamOptions Opts;
  EXPECT_TRUE(setAnalysisOption(Opts, "witness", "true", Error)) << Error;
  for (const auto &[Key, Value] : R.Keys)
    EXPECT_TRUE(setAnalysisOption(Opts, Key, Value, Error)) << Error;
  EXPECT_TRUE(finishAnalysisOptions(Opts, Error)) << Error;
  Opts.Detect.Jobs = R.Jobs;
  std::unique_ptr<Program> Parsed;
  std::unique_ptr<StaticPruneOracle> Oracle;
  if (R.StaticPrune) {
    std::optional<Program> P = parseProgram(Source, Error);
    EXPECT_TRUE(P) << Error;
    Parsed = std::make_unique<Program>(std::move(*P));
    Oracle = std::make_unique<StaticPruneOracle>(*Parsed);
    Oracle->bind(T);
    Opts.Detect.StaticPruner = Oracle.get();
    Opts.Detect.CfFold = Oracle.get();
  }

  std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Opts);
  Policy->Encoding.Slice = M != Mode::WholeWindow;
  EXPECT_TRUE(FaultInjector::configure(
      M == Mode::OneShot ? faults::SessionCorrupt : "", Error))
      << Error;
  DriverOutput Out = runWindowDriver(T, Opts.Detect, *Policy);
  FaultInjector::reset();
  Outcome O;
  O.Stats = Out.Stats;
  O.Report =
      std::regex_replace(Policy->renderReport(std::move(Out), Opts.Render),
                         std::regex(" in [0-9.]+s"), "");
  return O;
}

/// detect() with telemetry on, returning the run's registry counters.
Outcome detectObserved(const Row &R, Mode M, MetricsSnapshot &Metrics) {
  Telemetry::setEnabled(true);
  Telemetry::instance().reset();
  Outcome O = detect(R, M);
  Metrics = MetricsRegistry::global().snapshot();
  Telemetry::instance().reset();
  Telemetry::setEnabled(false);
  return O;
}

/// The workload's one race at the smt tier: the default hybrid tier
/// short-circuits its COPs before the encoder and the session run
/// (docs/TIERS.md), which would make the counters legitimately zero.
const Row SmtRow = {"prune_workload.rv", "rr", 1,
                    {{"technique", "rv"}, {"tier", "smt"}}};

} // namespace

TEST(ModeEquivalence, SlicedConeMatchesWholeWindowCone) {
  for (const Row &R : solverRows())
    EXPECT_EQ(detect(R, Mode::Default).Report,
              detect(R, Mode::WholeWindow).Report)
        << "the whole-window cone changed the output for " << R.label();

  // Non-vacuity: the default run reports the race and really restricts
  // its encodings; the whole window allocates an order variable per
  // window event per formula, and the cone is a strict subset of that.
  MetricsSnapshot Sliced, Whole;
  Outcome Default = detectObserved(SmtRow, Mode::Default, Sliced);
  detectObserved(SmtRow, Mode::WholeWindow, Whole);
  EXPECT_NE(Default.Report.find("1 race"), std::string::npos)
      << Default.Report;
  uint64_t ConeEvents = Sliced.counterValue("encoder.cone_events");
  EXPECT_GT(ConeEvents, 0u);
  EXPECT_GT(Sliced.counterValue("encoder.sliced_atoms"), 0u);
  EXPECT_LT(ConeEvents, Whole.counterValue("encoder.order_vars"));
  EXPECT_LT(ConeEvents, Whole.counterValue("encoder.cone_events"));
}

TEST(ModeEquivalence, SessionsMatchOneShotFallback) {
  std::vector<Row> Rows = solverRows();
  // The relation techniques never reach a solver: the fault is a no-op.
  for (const char *Tech : {"cp", "hb"})
    Rows.push_back({"prune_workload.rv", "rr", 1, {{"technique", Tech}}});
  for (const Row &R : Rows)
    EXPECT_EQ(detect(R, Mode::Default).Report,
              detect(R, Mode::OneShot).Report)
        << "the one-shot fallback changed the output for " << R.label();

  // Non-vacuity: the default run reports the race and routes its queries
  // through sessions; the faulted run really falls back, and the decision
  // count does not depend on the mode.
  MetricsSnapshot Sessions, OneShotMetrics;
  Outcome Default = detectObserved(SmtRow, Mode::Default, Sessions);
  Outcome OneShot = detectObserved(SmtRow, Mode::OneShot, OneShotMetrics);
  EXPECT_NE(Default.Report.find("1 race"), std::string::npos)
      << Default.Report;
  EXPECT_GT(Sessions.counterValue("solver.incremental_calls"), 0u);
  EXPECT_EQ(Default.Stats.DegradedSessions, 0u);
  EXPECT_GE(OneShot.Stats.DegradedSessions, 2u);
  EXPECT_GT(Default.Stats.SolverCalls, 0u);
  EXPECT_EQ(Default.Stats.SolverCalls, OneShot.Stats.SolverCalls);
}
