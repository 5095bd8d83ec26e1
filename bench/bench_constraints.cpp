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
///    (docs/ENCODER.md) on the high-COP catalog row, behind the
///    `--slice` / `--no-slice` A/B flags. Either flag also writes the
///    comparison to BENCH_encoding.json (override with
///    `--stats-json=<path>`):
///
///      bench_constraints --slice --no-slice --benchmark_filter=Cone
///                        --stats-json=BENCH_encoding.json
///
//===----------------------------------------------------------------------===//

#include "detect/Closure.h"
#include "detect/Cop.h"
#include "detect/Detect.h"
#include "detect/RaceEncoder.h"
#include "detect/WindowDriver.h"
#include "support/BuildInfo.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "workloads/Catalog.h"
#include "workloads/Synthetic.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

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
// Cone-slicing A/B (--slice / --no-slice)
//===----------------------------------------------------------------------===//

uint32_t JobsFlag = 1;
bool SliceFlag = false;
bool NoSliceFlag = false;

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
/// a whole-window (--no-slice) encoder.
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

void runConeEncodeBench(benchmark::State &State, bool Slice) {
  SliceAbContext &Ctx = sliceAb();
  if (Ctx.Cops.empty()) {
    State.SkipWithError("no COPs in the trace");
    return;
  }
  const RaceEncoder &Encoder = Slice ? Ctx.Sliced : Ctx.Unsliced;
  size_t Next = 0;
  uint64_t Atoms = 0, ConeEvents = 0;
  for (auto _ : State) {
    const Cop &C = Ctx.Cops[Next++ % Ctx.Cops.size()];
    FormulaBuilder FB;
    EncodeStats Stats;
    NodeRef Root = Encoder.encodeMaximalRace(FB, C.First, C.Second, &Stats);
    Atoms = Stats.SlicedAtoms;
    ConeEvents = Stats.ConeEvents;
    benchmark::DoNotOptimize(Root);
  }
  State.counters["window_events"] = static_cast<double>(Ctx.S.size());
  State.counters["atoms/cop"] = static_cast<double>(Atoms);
  State.counters["cone_events"] = static_cast<double>(ConeEvents);
}

/// One end-to-end race run through the policy path `rvpredict detect`
/// uses, with the decision-path cone computed or the whole window.
DriverOutput detectWith(const Trace &T, Technique Tech,
                        const DetectorOptions &Options, bool Slice,
                        size_t &Races) {
  std::unique_ptr<QueryPolicy> Policy = makeRacePolicy(T, Tech, Options);
  Policy->Encoding.Slice = Slice;
  DriverOutput Out = runWindowDriver(T, Options, *Policy);
  Races = Policy->numFindings();
  return Out;
}

/// A/B dump behind --slice/--no-slice (this is the source of the
/// checked-in BENCH_encoding.json): per-COP emitted atoms and encode time
/// for the sliced vs. the whole-window encoding, plus end-to-end detect
/// runs per SMT-backed technique. Decisions must agree — slicing is
/// equisatisfiable — so only formula size and time move.
int dumpEncodingJson(const std::string &Path) {
  SliceAbContext &Ctx = sliceAb();

  using Clock = std::chrono::steady_clock;
  const size_t Queries = std::min<size_t>(Ctx.Cops.size(), 48);
  uint64_t SlicedAtoms = 0, ConeEvents = 0, CacheHits = 0;
  uint64_t UnslicedAtoms = 0, SlicedNodes = 0, UnslicedNodes = 0;
  double SlicedSeconds = 0, UnslicedSeconds = 0;
  for (size_t I = 0; I < Queries; ++I) {
    const Cop &C = Ctx.Cops[I];
    {
      FormulaBuilder FB;
      EncodeStats Stats;
      Clock::time_point Start = Clock::now();
      Ctx.Sliced.encodeMaximalRace(FB, C.First, C.Second, &Stats);
      SlicedSeconds += std::chrono::duration<double>(Clock::now() - Start)
                           .count();
      SlicedAtoms += Stats.SlicedAtoms;
      ConeEvents += Stats.ConeEvents;
      CacheHits += Stats.CacheHit ? 1 : 0;
      SlicedNodes += FB.numNodes();
    }
    {
      FormulaBuilder FB;
      EncodeStats Stats;
      Clock::time_point Start = Clock::now();
      Ctx.Unsliced.encodeMaximalRace(FB, C.First, C.Second, &Stats);
      UnslicedSeconds += std::chrono::duration<double>(Clock::now() - Start)
                             .count();
      UnslicedAtoms += Stats.SlicedAtoms;
      UnslicedNodes += FB.numNodes();
    }
  }
  double N = static_cast<double>(Queries ? Queries : 1);

  JsonObject SlicedJson;
  SlicedJson.field("seconds", SlicedSeconds)
      .field("atoms_per_cop", static_cast<double>(SlicedAtoms) / N)
      .field("cone_events_per_cop", static_cast<double>(ConeEvents) / N)
      .field("nodes_per_cop", static_cast<double>(SlicedNodes) / N)
      .field("skeleton_cache_hits", CacheHits);
  JsonObject UnslicedJson;
  UnslicedJson.field("seconds", UnslicedSeconds)
      .field("atoms_per_cop", static_cast<double>(UnslicedAtoms) / N)
      .field("nodes_per_cop", static_cast<double>(UnslicedNodes) / N);
  JsonObject Encode;
  Encode.field("window_events", static_cast<uint64_t>(Ctx.S.size()))
      .field("cops", static_cast<uint64_t>(Queries))
      .raw("sliced", SlicedJson.str())
      .raw("unsliced", UnslicedJson.str())
      .field("atom_reduction",
             SlicedAtoms ? static_cast<double>(UnslicedAtoms) /
                               static_cast<double>(SlicedAtoms)
                         : 0.0);

  // End-to-end: the detector with and without slicing, per technique.
  Telemetry::setEnabled(true);
  DetectorOptions Options;
  Options.PerCopBudgetSeconds = 30;
  Options.CollectWitnesses = false;
  Options.Jobs = JobsFlag;
  JsonObject Techs;
  const std::pair<Technique, const char *> Runs[] = {
      {Technique::Maximal, "rv"},
      {Technique::Said, "said"},
  };
  for (const auto &[Tech, Key] : Runs) {
    size_t SlicedRaces = 0, FullRaces = 0;
    Telemetry::instance().reset();
    DriverOutput SlicedRun =
        detectWith(Ctx.T, Tech, Options, /*Slice=*/true, SlicedRaces);
    std::string SlicedStats = statsToJson(SlicedRun.Stats, techniqueName(Tech));
    Telemetry::instance().reset();
    DriverOutput FullRun =
        detectWith(Ctx.T, Tech, Options, /*Slice=*/false, FullRaces);

    JsonObject Cmp;
    Cmp.field("races", static_cast<uint64_t>(SlicedRaces))
        .field("races_agree", SlicedRaces == FullRaces)
        .field("speedup", SlicedRun.Stats.Seconds > 0
                              ? FullRun.Stats.Seconds / SlicedRun.Stats.Seconds
                              : 0.0)
        .raw("sliced", SlicedStats)
        .raw("unsliced", statsToJson(FullRun.Stats, techniqueName(Tech)));
    Techs.raw(Key, Cmp.str());
  }
  Telemetry::setEnabled(false);

  JsonObject Out;
  appendRunMetadata(Out);
  Out.field("workload", "highcop")
      .field("events", static_cast<uint64_t>(Ctx.T.size()))
      .field("jobs", static_cast<uint64_t>(JobsFlag))
      .raw("encode", Encode.str())
      .raw("techniques", Techs.str());
  std::string Json = Out.str() + "\n";
  if (Path == "-") {
    std::fputs(Json.c_str(), stdout);
    return 0;
  }
  std::ofstream File(Path);
  if (!File) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return 1;
  }
  File << Json;
  return 0;
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

// Custom main: peel off --slice, --no-slice, --jobs=<n>, and
// --stats-json=<path> (google-benchmark rejects unknown flags), register
// the cone A/B benchmarks the flags ask for, run, then write the A/B dump
// (default BENCH_encoding.json when either slicing flag is present).
int main(int Argc, char **Argv) {
  std::string StatsJsonPath;
  int Kept = 1;
  for (int I = 1; I < Argc; ++I) {
    constexpr const char *Flag = "--stats-json=";
    constexpr const char *Jobs = "--jobs=";
    if (std::strncmp(Argv[I], Flag, std::strlen(Flag)) == 0)
      StatsJsonPath = Argv[I] + std::strlen(Flag);
    else if (std::strncmp(Argv[I], Jobs, std::strlen(Jobs)) == 0)
      JobsFlag = static_cast<uint32_t>(
          std::strtoul(Argv[I] + std::strlen(Jobs), nullptr, 10));
    else if (std::strcmp(Argv[I], "--slice") == 0)
      SliceFlag = true;
    else if (std::strcmp(Argv[I], "--no-slice") == 0)
      NoSliceFlag = true;
    else
      Argv[Kept++] = Argv[I];
  }
  Argc = Kept;

  if (SliceFlag)
    benchmark::RegisterBenchmark("BM_ConeEncodeSliced",
                                 [](benchmark::State &S) {
                                   runConeEncodeBench(S, /*Slice=*/true);
                                 })
        ->Unit(benchmark::kMillisecond);
  if (NoSliceFlag)
    benchmark::RegisterBenchmark("BM_ConeEncodeUnsliced",
                                 [](benchmark::State &S) {
                                   runConeEncodeBench(S, /*Slice=*/false);
                                 })
        ->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (SliceFlag || NoSliceFlag)
    return dumpEncodingJson(StatsJsonPath.empty() ? "BENCH_encoding.json"
                                                  : StatsJsonPath);
  return 0;
}
