//===- bench/bench_detectors.cpp - Detector throughput ------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Scalability of the four techniques with trace length (the paper's
/// claim: HB/CP are fast, the SMT-based detectors remain practical with
/// windowing; our technique generates fewer constraints than Said et
/// al.'s whole-trace consistency and solves faster), plus the quick-check
/// ablation of Section 4. Two A/B pairs run the maximal detector with and
/// without a pipeline stage; select one with --benchmark_filter:
///
///   * `BM_MaximalStaticPrune|BM_MaximalNoPrune`: the static pruner and
///     cf fold on a lock-heavy MiniRV loop (docs/STATIC_ANALYSIS.md);
///   * `BM_MaximalHybridTier|BM_MaximalSmtTier`: the WCP tier in front of
///     the solver, and the solver alone (docs/TIERS.md).
///
/// Each arm reports a `races` counter. On these workloads the two arms of
/// a pair agree, and the BenchSmoke test checks that they do.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticPrune.h"
#include "detect/Atomicity.h"
#include "detect/Cop.h"
#include "detect/Deadlock.h"
#include "detect/Detect.h"
#include "lang/Parser.h"
#include "runtime/Interpreter.h"
#include "runtime/Scheduler.h"
#include "trace/TraceIO.h"
#include "trace/Window.h"
#include "workloads/Synthetic.h"

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

using namespace rvp;

namespace {

Trace makeTrace(uint64_t Events) {
  SyntheticSpec Spec;
  Spec.Name = "bench";
  Spec.Workers = 8;
  Spec.TargetEvents = Events;
  Spec.PlainRaces = 4;
  Spec.CpOnlyRaces = 2;
  Spec.SaidOnlyRaces = 2;
  Spec.HbNotSaidRaces = 2;
  Spec.RvOnlyRaces = 2;
  Spec.QcOnlyPairs = 4;
  Spec.OrderedPairs = 8;
  Spec.AtomicityPairs = 4;
  Spec.DeadlockCycles = 4;
  Spec.Seed = 5;
  return generateSynthetic(Spec);
}

void runDetector(benchmark::State &State, Technique Tech,
                 bool UseQuickCheck = true) {
  Trace T = makeTrace(static_cast<uint64_t>(State.range(0)));
  DetectorOptions Options;
  Options.PerCopBudgetSeconds = 30;
  Options.UseQuickCheck = UseQuickCheck;
  Options.CollectWitnesses = false;
  size_t Races = 0;
  uint64_t SolverCalls = 0;
  DetectionStats Stats;
  for (auto _ : State) {
    DetectionResult R = detectRaces(T, Tech, Options);
    Races = R.raceCount();
    SolverCalls = R.Stats.SolverCalls;
    Stats = R.Stats;
    benchmark::DoNotOptimize(R);
  }
  State.counters["races"] = static_cast<double>(Races);
  State.counters["solves"] = static_cast<double>(SolverCalls);
  State.counters["windows"] = static_cast<double>(Stats.Windows);
  State.counters["qc"] = static_cast<double>(Stats.QcPassed);
  State.counters["timeouts"] = static_cast<double>(Stats.SolverTimeouts);
  State.counters["events/s"] = benchmark::Counter(
      static_cast<double>(T.size()), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Hb(benchmark::State &State) { runDetector(State, Technique::Hb); }
void BM_Cp(benchmark::State &State) { runDetector(State, Technique::Cp); }
void BM_Said(benchmark::State &State) {
  runDetector(State, Technique::Said);
}
void BM_Maximal(benchmark::State &State) {
  runDetector(State, Technique::Maximal);
}
void BM_MaximalNoQuickCheck(benchmark::State &State) {
  runDetector(State, Technique::Maximal, /*UseQuickCheck=*/false);
}

void BM_Atomicity(benchmark::State &State) {
  Trace T = makeTrace(static_cast<uint64_t>(State.range(0)));
  DetectorOptions Options;
  Options.PerCopBudgetSeconds = 30;
  Options.CollectWitnesses = false;
  size_t Found = 0;
  for (auto _ : State) {
    AtomicityResult R = detectAtomicityViolations(T, Options);
    Found = R.Violations.size();
    benchmark::DoNotOptimize(R);
  }
  State.counters["violations"] = static_cast<double>(Found);
}

void BM_Deadlock(benchmark::State &State) {
  Trace T = makeTrace(static_cast<uint64_t>(State.range(0)));
  DetectorOptions Options;
  Options.PerCopBudgetSeconds = 30;
  Options.CollectWitnesses = false;
  size_t Found = 0;
  for (auto _ : State) {
    DeadlockResult R = detectDeadlocks(T, Options);
    Found = R.Deadlocks.size();
    benchmark::DoNotOptimize(R);
  }
  State.counters["deadlocks"] = static_cast<double>(Found);
}

// ------------------------------------------------------ ingest layers

/// An eclipse-shaped trace (Table 1's largest row) of about \p Events.
Trace makeEclipseTrace(int64_t Events) {
  SyntheticSpec Spec = realSystemSpec("eclipse");
  Spec.TargetEvents = static_cast<uint64_t>(Events);
  return generateSynthetic(Spec);
}

/// \p T with every name behind one 24-byte prefix, as in the package
/// names of real Java traces, so that no name fits the 16 bytes a name
/// table slot holds inline and names share their first 16 bytes.
Trace withLongNames(const Trace &T) {
  const std::string Prefix = "org.eclipse.ui.internal.";
  Trace Out;
  for (ThreadId Id = 0; Id < T.numThreads(); ++Id)
    Out.internThread(Prefix + T.threadName(Id));
  for (VarId Id = 0; Id < T.numVars(); ++Id)
    Out.setInitialValue(Out.internVar(Prefix + T.varName(Id)),
                        T.initialValueOf(Id));
  for (LockId Id = 0; Id < T.numLocks(); ++Id)
    Out.internLock(Prefix + T.lockName(Id));
  for (Event E : T.events()) {
    if (E.Loc != UnknownLoc)
      E.Loc = Out.internLoc(Prefix + T.locName(E.Loc));
    Out.append(E);
  }
  return Out;
}

/// The trace reader alone on \p Text: tokenize, intern, check and append
/// each line.
void timeParse(benchmark::State &State, const std::string &Text) {
  for (auto _ : State) {
    std::string Error;
    std::optional<Trace> T = parseTraceText(Text, Error);
    if (!T)
      State.SkipWithError(Error.c_str());
    benchmark::DoNotOptimize(T);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Text.size()));
}

void BM_ParseTrace(benchmark::State &State) {
  timeParse(State, writeTraceText(makeEclipseTrace(State.range(0))));
}

/// The same trace with names over 16 bytes (BM_ParseTrace's are at most
/// 9): the name tables' compare against the stored string.
void BM_ParseTraceLongNames(benchmark::State &State) {
  timeParse(State,
            writeTraceText(withLongNames(makeEclipseTrace(State.range(0)))));
}

/// COP enumeration alone, over the default windows.
void BM_CollectCops(benchmark::State &State) {
  Trace T = makeEclipseTrace(State.range(0));
  std::vector<Span> Windows = splitWindows(T, DefaultWindowSize);
  size_t Cops = 0;
  for (auto _ : State) {
    Cops = 0;
    for (Span W : Windows) {
      std::vector<Cop> C = collectCops(T, W);
      Cops += C.size();
      benchmark::DoNotOptimize(C);
    }
  }
  State.counters["cops"] = static_cast<double>(Cops);
}

// ----------------------------------------------------- static prune A/B

/// A MiniRV workload built for the static pruner: per loop iteration the
/// two concurrent threads touch `a` only under lock m (prunable by the
/// common-must-lock rule), t3's and main's `c` accesses are serialized by
/// top-level fork/join (prunable by the interval rule), t1's nested
/// fork/join of t4 orders the `d` accesses (prunable only by the static
/// MHB rule — t4 is always-live to the interval analysis), the read-only
/// `gate` guard on the racy write is a provably constant branch (dropped
/// by the value-range fold), and `b` carries the real races that keep the
/// comparison honest.
std::string prunableSource(uint32_t Iters) {
  std::string N = std::to_string(Iters);
  return "shared a;\n"
         "shared b;\n"
         "shared c;\n"
         "shared d;\n"
         "shared gate = 1;\n"
         "lock m;\n"
         "thread t4 { d = d + 1; }\n"
         "thread t1 {\n"
         "  local i = 0;\n"
         "  while (i < " + N + ") {\n"
         "    sync m { a = a + 1; }\n"
         "    i = i + 1;\n"
         "  }\n"
         "  d = 1;\n"
         "  spawn t4;\n"
         "  join t4;\n"
         "  local h = d;\n"
         "  if (gate == 1) { b = h; }\n"
         "}\n"
         "thread t2 {\n"
         "  local i = 0;\n"
         "  while (i < " + N + ") {\n"
         "    sync m { a = a + 2; }\n"
         "    i = i + 1;\n"
         "  }\n"
         "  b = 2;\n"
         "}\n"
         "thread t3 {\n"
         "  local i = 0;\n"
         "  while (i < " + N + ") {\n"
         "    c = c + 1;\n"
         "    i = i + 1;\n"
         "  }\n"
         "}\n"
         "main {\n"
         "  spawn t1;\n"
         "  spawn t2;\n"
         "  join t1;\n"
         "  join t2;\n"
         "  spawn t3;\n"
         "  join t3;\n"
         "  c = 0;\n"
         "}\n";
}

/// Counts which rule pruned each COP the oracle it wraps is asked about:
/// the bench's per-rule breakdown (a detection run counts only the total
/// and the MHB rule). The driver consults the pruner from one thread.
class RuleCountingPruner : public CopPruner {
public:
  explicit RuleCountingPruner(const CopPruner &Inner) : Inner(Inner) {}

  Rule prunable(const Trace &T, EventId A, EventId B) const override {
    Rule R = Inner.prunable(T, A, B);
    ++Counts[static_cast<size_t>(R)];
    return R;
  }

  uint64_t count(Rule R) const { return Counts[static_cast<size_t>(R)]; }
  void reset() { Counts.fill(0); }

private:
  const CopPruner &Inner;
  mutable std::array<uint64_t, 4> Counts{};
};

/// Program, recorded trace, and bound oracle; the oracle holds references
/// into both, so the three live and die together.
struct PruneWorkload {
  PruneWorkload(Program Prog, Trace Tr)
      : P(std::move(Prog)), T(std::move(Tr)), Oracle(P) {
    Oracle.bind(T);
  }

  Program P;
  Trace T;
  StaticPruneOracle Oracle;
};

PruneWorkload &pruneWorkload(uint32_t Iters) {
  static std::map<uint32_t, std::unique_ptr<PruneWorkload>> Cache;
  std::unique_ptr<PruneWorkload> &Slot = Cache[Iters];
  if (!Slot) {
    std::string Error;
    std::optional<Program> P = parseProgram(prunableSource(Iters), Error);
    if (!P) {
      std::fprintf(stderr, "prune workload parse error: %s\n",
                   Error.c_str());
      std::abort();
    }
    Trace T;
    RunResult Result;
    RoundRobinScheduler S(3);
    if (!recordTrace(prunableSource(Iters), T, Result, Error, &S)) {
      std::fprintf(stderr, "prune workload run error: %s\n", Error.c_str());
      std::abort();
    }
    Slot = std::make_unique<PruneWorkload>(std::move(*P), std::move(T));
  }
  return *Slot;
}

void runPruneBench(benchmark::State &State, bool UsePruner) {
  PruneWorkload &W = pruneWorkload(static_cast<uint32_t>(State.range(0)));
  DetectorOptions Options;
  Options.PerCopBudgetSeconds = 30;
  Options.CollectWitnesses = false;
  RuleCountingPruner Stages(W.Oracle);
  Options.StaticPruner = UsePruner ? &Stages : nullptr;
  Options.CfFold = UsePruner ? &W.Oracle : nullptr;
  DetectionStats Stats;
  size_t Races = 0;
  for (auto _ : State) {
    Stages.reset();
    DetectionResult R = detectRaces(W.T, Technique::Maximal, Options);
    Races = R.raceCount();
    Stats = R.Stats;
    benchmark::DoNotOptimize(R);
  }
  using Rule = CopPruner::Rule;
  State.counters["races"] = static_cast<double>(Races);
  State.counters["cops"] = static_cast<double>(Stats.Cops);
  State.counters["pruned"] = static_cast<double>(Stats.CopsPrunedStatic);
  State.counters["pruned_interval"] =
      static_cast<double>(Stages.count(Rule::Interval));
  State.counters["pruned_lockset"] =
      static_cast<double>(Stages.count(Rule::Lockset));
  State.counters["pruned_mhb"] = static_cast<double>(Stages.count(Rule::Mhb));
  State.counters["solves"] = static_cast<double>(Stats.SolverCalls);
  State.counters["events/s"] = benchmark::Counter(
      static_cast<double>(W.T.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_MaximalStaticPrune(benchmark::State &State) {
  runPruneBench(State, /*UsePruner=*/true);
}
void BM_MaximalNoPrune(benchmark::State &State) {
  runPruneBench(State, /*UsePruner=*/false);
}

// ------------------------------------------------------- WCP tier A/B

/// Times the maximal detector with the solver-only and hybrid tiers on
/// the same multi-COP synthetic trace. Witnesses stay off, so the hybrid
/// tier reports its WCP verdicts directly (trust mode, docs/TIERS.md) —
/// the maximum solver saving; byte-identity of the verified configuration
/// is the WcpGolden test's job.
void runTierBench(benchmark::State &State, DetectTier Tier) {
  Trace T = makeTrace(static_cast<uint64_t>(State.range(0)));
  DetectorOptions Options;
  Options.PerCopBudgetSeconds = 30;
  Options.CollectWitnesses = false;
  Options.Tier = Tier;
  DetectionStats Stats;
  size_t Races = 0;
  for (auto _ : State) {
    DetectionResult R = detectRaces(T, Technique::Maximal, Options);
    Races = R.raceCount();
    Stats = R.Stats;
    benchmark::DoNotOptimize(R);
  }
  State.counters["races"] = static_cast<double>(Races);
  State.counters["solves"] = static_cast<double>(Stats.SolverCalls);
  State.counters["wcp_pruned"] = static_cast<double>(Stats.WcpPruned);
  State.counters["solves_saved"] =
      static_cast<double>(Stats.WcpShortCircuits);
  State.counters["events/s"] = benchmark::Counter(
      static_cast<double>(T.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_MaximalHybridTier(benchmark::State &State) {
  runTierBench(State, DetectTier::Hybrid);
}
void BM_MaximalSmtTier(benchmark::State &State) {
  runTierBench(State, DetectTier::Smt);
}

} // namespace

BENCHMARK(BM_Hb)->Arg(2000)->Arg(8000)->Arg(32000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cp)->Arg(2000)->Arg(8000)->Arg(32000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Said)->Arg(2000)->Arg(8000)->Arg(32000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Maximal)->Arg(2000)->Arg(8000)->Arg(32000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MaximalNoQuickCheck)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Atomicity)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Deadlock)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParseTrace)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParseTraceLongNames)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CollectCops)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MaximalStaticPrune)
    ->Arg(10)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MaximalNoPrune)->Arg(10)->Arg(40)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MaximalHybridTier)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MaximalSmtTier)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
