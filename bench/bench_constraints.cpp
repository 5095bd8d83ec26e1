//===- bench/bench_constraints.cpp - Encoding ablations ------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Ablations of the constraint encoding (Section 4):
///
///  * the `Oa := Ob` substitution vs. the naive explicit-adjacency
///    encoding (formula size and end-to-end detection time);
///  * maximal (control-flow) constraints vs. Said et al.'s whole-trace
///    read-write consistency (constraint counts — the reason our
///    technique solves faster);
///  * raw constraint-generation throughput;
///  * cone-of-influence slicing vs. the full window encoding
///    (docs/ENCODER.md) on the high-COP catalog row: the
///    `BM_ConeEncodeSliced|BM_ConeEncodeUnsliced` pair, selected with
///    --benchmark_filter, whose `atoms/cop` counters compare the per-COP
///    formula sizes.
///
//===----------------------------------------------------------------------===//

#include "detect/Closure.h"
#include "detect/Cop.h"
#include "detect/Detect.h"
#include "detect/RaceEncoder.h"
#include "workloads/Catalog.h"
#include "workloads/Synthetic.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace rvp;

namespace {

Trace makeTrace(uint64_t Events) {
  SyntheticSpec Spec;
  Spec.Name = "encode-bench";
  Spec.Workers = 6;
  Spec.TargetEvents = Events;
  Spec.PlainRaces = 4;
  Spec.RvOnlyRaces = 4;
  Spec.SaidOnlyRaces = 4;
  Spec.OrderedPairs = 4;
  Spec.Seed = 17;
  return generateSynthetic(Spec);
}

void BM_DetectSubstitution(benchmark::State &State) {
  Trace T = makeTrace(static_cast<uint64_t>(State.range(0)));
  DetectorOptions Options;
  Options.SubstituteRaceVars = true;
  Options.CollectWitnesses = false;
  for (auto _ : State) {
    DetectionResult R = detectRaces(T, Technique::Maximal, Options);
    benchmark::DoNotOptimize(R);
  }
}

void BM_DetectNaiveAdjacency(benchmark::State &State) {
  Trace T = makeTrace(static_cast<uint64_t>(State.range(0)));
  DetectorOptions Options;
  Options.SubstituteRaceVars = false;
  Options.CollectWitnesses = false;
  for (auto _ : State) {
    DetectionResult R = detectRaces(T, Technique::Maximal, Options);
    benchmark::DoNotOptimize(R);
  }
}

/// Formula sizes: maximal vs. Said encoding for the same COPs.
void BM_FormulaSize(benchmark::State &State) {
  Trace T = makeTrace(2000);
  Span S = T.fullSpan();
  EventClosure Mhb(T, S, ClosureConfig::mhb());
  RaceEncoder Encoder(T, S, Mhb, T.initialValues());
  std::vector<Cop> Cops = collectCops(T, S);
  double MaximalNodes = 0, SaidNodes = 0;
  size_t Queries = 0;
  for (auto _ : State) {
    MaximalNodes = SaidNodes = 0;
    Queries = 0;
    for (const Cop &C : Cops) {
      if (Queries >= 16)
        break;
      ++Queries;
      FormulaBuilder FbMaximal;
      Encoder.encodeMaximalRace(FbMaximal, C.First, C.Second);
      MaximalNodes += static_cast<double>(FbMaximal.numNodes());
      FormulaBuilder FbSaid;
      Encoder.encodeSaidRace(FbSaid, C.First, C.Second);
      SaidNodes += static_cast<double>(FbSaid.numNodes());
    }
    benchmark::DoNotOptimize(MaximalNodes);
  }
  State.counters["maximal_nodes/query"] =
      MaximalNodes / static_cast<double>(Queries);
  State.counters["said_nodes/query"] =
      SaidNodes / static_cast<double>(Queries);
}

/// Raw encoding throughput (no solving).
void BM_EncodeThroughput(benchmark::State &State) {
  Trace T = makeTrace(static_cast<uint64_t>(State.range(0)));
  Span S = T.fullSpan();
  EventClosure Mhb(T, S, ClosureConfig::mhb());
  RaceEncoder Encoder(T, S, Mhb, T.initialValues());
  std::vector<Cop> Cops = collectCops(T, S);
  if (Cops.empty()) {
    State.SkipWithError("no COPs in the trace");
    return;
  }
  size_t Next = 0;
  for (auto _ : State) {
    const Cop &C = Cops[Next++ % Cops.size()];
    FormulaBuilder FB;
    NodeRef Root = Encoder.encodeMaximalRace(FB, C.First, C.Second);
    benchmark::DoNotOptimize(Root);
  }
}

//===----------------------------------------------------------------------===//
// Cone-slicing A/B
//===----------------------------------------------------------------------===//

/// The high-COP catalog row: many pattern threads, few variables, so each
/// window carries a heavy per-COP encode load whose cones are tiny next to
/// the window (see workloads/Catalog.cpp).
const Trace &highcopTrace() {
  static Trace T = [] {
    auto Case = findBenchmark("highcop");
    Trace Built;
    std::string Error;
    if (!Case || !benchmarkTrace(*Case, Built, Error)) {
      std::fprintf(stderr, "error: cannot build bench:highcop: %s\n",
                   Error.c_str());
      std::exit(1);
    }
    return Built;
  }();
  return T;
}

/// One window encoding over the full highcop span, shared by a sliced and
/// a whole-window encoder.
struct SliceAbContext {
  const Trace &T;
  Span S;
  EventClosure Mhb;
  RaceEncoder Sliced;
  RaceEncoder Unsliced;
  std::vector<Cop> Cops;

  SliceAbContext()
      : T(highcopTrace()), S(T.fullSpan()), Mhb(T, S, ClosureConfig::mhb()),
        Sliced(T, S, Mhb, T.initialValues()),
        Unsliced(Sliced.sharedWindowEncoding(),
                 [] {
                   EncoderOptions O;
                   O.Slice = false;
                   return O;
                 }()),
        Cops(collectCops(T, S)) {}
};

SliceAbContext &sliceAb() {
  static SliceAbContext Ctx;
  return Ctx;
}

/// One iteration encodes the window's first SampleCops COPs, so the
/// counters are per-COP means over a fixed sample: the same numbers
/// whatever iteration count the timing settles on.
constexpr size_t SampleCops = 16;

void runConeEncodeBench(benchmark::State &State, bool Slice) {
  SliceAbContext &Ctx = sliceAb();
  if (Ctx.Cops.empty()) {
    State.SkipWithError("no COPs in the trace");
    return;
  }
  const RaceEncoder &Encoder = Slice ? Ctx.Sliced : Ctx.Unsliced;
  const size_t Sample = std::min(SampleCops, Ctx.Cops.size());
  uint64_t Atoms = 0, ConeEvents = 0;
  for (auto _ : State) {
    Atoms = ConeEvents = 0;
    for (size_t I = 0; I < Sample; ++I) {
      const Cop &C = Ctx.Cops[I];
      FormulaBuilder FB;
      EncodeStats Stats;
      NodeRef Root = Encoder.encodeMaximalRace(FB, C.First, C.Second, &Stats);
      Atoms += Stats.SlicedAtoms;
      ConeEvents += Stats.ConeEvents;
      benchmark::DoNotOptimize(Root);
    }
  }
  const double N = static_cast<double>(Sample);
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Sample));
  State.counters["window_events"] = static_cast<double>(Ctx.S.size());
  State.counters["atoms/cop"] = static_cast<double>(Atoms) / N;
  State.counters["cone_events/cop"] = static_cast<double>(ConeEvents) / N;
}

void BM_ConeEncodeSliced(benchmark::State &State) {
  runConeEncodeBench(State, /*Slice=*/true);
}
void BM_ConeEncodeUnsliced(benchmark::State &State) {
  runConeEncodeBench(State, /*Slice=*/false);
}

} // namespace

BENCHMARK(BM_DetectSubstitution)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DetectNaiveAdjacency)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FormulaSize)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EncodeThroughput)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ConeEncodeSliced)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConeEncodeUnsliced)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
