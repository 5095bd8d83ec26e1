//===- rvbench/Traced.cpp - Traced per-layer run --------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The per-layer half: the same inputs, run in process through each layer's
// public functions. The harness records a span around every call (kept in
// memory, written at exit) and reads the phase tree and counters the
// drivers already emit when Telemetry is on. Untraced iterations of the
// same calls, interleaved with the traced ones, give the tracing overhead.
//
// Every workload reports every per-layer metric; a layer a workload does
// not exercise reads 0.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "detect/Report.h"
#include "detect/Stream.h"
#include "server/Framing.h"
#include "support/MemStats.h"
#include "support/StringUtils.h"
#include "trace/Consistency.h"
#include "trace/TraceIO.h"

#include <map>

using namespace rvp;

namespace rvbench {

namespace {

/// One in-process iteration's per-layer values, by metric name.
using Sample = std::map<std::string, double>;

/// The phase children of a driver window (docs/OBSERVABILITY.md).
const char *const LeafPhases[] = {"cop-enum", "static-prune", "wcp",
                                  "closure",  "quick-check",  "encode",
                                  "solve",    "witness"};

/// Seconds of every outermost phase named \p Name under \p N.
double phaseSeconds(const PhaseSnapshot &N, std::string_view Name) {
  if (N.Name == Name)
    return N.Seconds;
  double Sum = 0;
  for (const PhaseSnapshot &C : N.Children)
    Sum += phaseSeconds(C, Name);
  return Sum;
}

double gaugeValue(const MetricsSnapshot &M, std::string_view Name) {
  for (const auto &[Key, Value] : M.Gauges)
    if (Key == Name)
      return Value;
  return 0;
}

HistogramSnapshot histogram(const MetricsSnapshot &M, std::string_view Name) {
  for (const auto &[Key, Value] : M.Histograms)
    if (Key == Name)
      return Value;
  return HistogramSnapshot();
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Detector totals one iteration adds up across its driver calls.
struct DriverTotals {
  double Windows = 0, Cops = 0, SolverCalls = 0, ShortCircuits = 0;
  /// Findings the solver decided (WCP short-circuits excluded).
  double SolverFindings = 0;

  void add(const DetectionStats &S, size_t Findings, bool Race) {
    Windows += static_cast<double>(S.Windows);
    Cops += static_cast<double>(S.Cops);
    SolverCalls += static_cast<double>(S.SolverCalls);
    ShortCircuits += static_cast<double>(S.WcpShortCircuits);
    double Short = Race ? static_cast<double>(S.WcpShortCircuits) : 0;
    SolverFindings += std::max(0.0, static_cast<double>(Findings) - Short);
  }
};

/// Metrics read from the telemetry snapshot the iteration left behind.
void addTelemetry(const DriverTotals &D, Sample &S) {
  TelemetrySnapshot T = Telemetry::instance().snapshot();
  const MetricsSnapshot &M = T.Metrics;
  double Leaves = 0;
  auto Phase = [&](const char *Metric, const char *Name) {
    S[Metric] = phaseSeconds(T.Phases, Name);
  };
  for (const char *Name : LeafPhases)
    Leaves += phaseSeconds(T.Phases, Name);
  Phase("detect.cop_enum_s", "cop-enum");
  Phase("detect.closure_s", "closure");
  Phase("detect.quick_check_s", "quick-check");
  Phase("detect.wcp_s", "wcp");
  Phase("detect.encode_s", "encode");
  Phase("detect.solve_s", "solve");
  Phase("detect.witness_s", "witness");
  S["detect.unattributed_s"] = std::max(0.0, S["detect.total_s"] - Leaves);
  S["detect.windows"] = D.Windows;
  S["detect.cops"] = D.Cops;
  double Hits = static_cast<double>(M.counterValue("detect.qc_hits"));
  double Misses = static_cast<double>(M.counterValue("detect.qc_misses"));
  S["detect.qc_pass_ratio"] = ratio(Hits, Hits + Misses);
  S["solver.calls"] = D.SolverCalls;
  S["solver.sat_ratio"] = ratio(D.SolverFindings, D.SolverCalls);
  for (const char *Name :
       {"solver.witness_resolves", "sat.conflicts", "sat.propagations",
        "encoder.cone_events", "encoder.sliced_atoms", "wcp.races",
        "wcp.pruned_cops"})
    S[Name] = static_cast<double>(M.counterValue(Name));
  S["wcp.short_circuit_ratio"] =
      ratio(D.ShortCircuits, D.ShortCircuits + D.SolverCalls);
  // The race driver times each COP decision; the atomicity and deadlock
  // drivers leave only the backend's per-call histogram.
  HistogramSnapshot Lat = histogram(M, "solver.latency_seconds");
  if (Lat.Count == 0)
    Lat = histogram(M, "solver.idl.latency_seconds");
  S["smt.latency_p50_ms"] = Lat.P50 * 1e3;
  S["smt.latency_p90_ms"] = Lat.P90 * 1e3;
  S["mem.trace_peak_mb"] = gaugeValue(M, "mem.trace_peak_bytes") / 1e6;
  S["mem.formula_dag_peak_mb"] =
      static_cast<double>(MemStats::peak(MemPool::FormulaDag)) / 1e6;
  S["mem.clauses_peak_mb"] =
      static_cast<double>(MemStats::peak(MemPool::Clauses)) / 1e6;
}

/// Starts one in-process iteration: telemetry on and zeroed when traced,
/// off otherwise.
void beginIteration(bool Traced) {
  Telemetry::setEnabled(Traced);
  if (Traced)
    Telemetry::instance().reset();
}

/// A span when traced, a bare timer otherwise; returns seconds and adds
/// them to the iteration's "covered_s".
template <typename Fn>
double timed(bool Traced, const char *Name, int Parent, Sample &S,
             Fn &&Body) {
  double Secs = 0;
  if (!Traced) {
    double Start = now();
    Body();
    Secs = now() - Start;
  } else {
    int Id = beginSpan(Name, Parent);
    Body();
    Secs = endSpan(Id);
  }
  S["covered_s"] += Secs;
  return Secs;
}

DetectorOptions batchOptions(const DetectCall &Call) {
  // What `rvpredict detect --jobs=1` sets up for the same flags.
  DetectorOptions D;
  D.WindowSize = 10000;
  D.Jobs = 1;
  D.Tier = DetectTier::Hybrid;
  D.CollectWitnesses = Call.Witness;
  return D;
}

/// One pass over the batch workload's calls, exactly what each
/// `rvpredict detect` child does after option parsing: read, parse, check
/// consistency, detect, render.
Sample batchIteration(const Workload &W, const std::string &TracePath,
                      bool Traced, Result &R) {
  beginIteration(Traced);
  Sample S;
  DriverTotals Totals;
  double Bytes = 0;
  int Root = Traced ? beginSpan("iteration", -1) : -1;
  double Start = now();
  for (const DetectCall &Call : W.Calls) {
    std::string Text;
    S["trace.read_s"] += timed(Traced, "trace.read", Root, S,
                               [&] { readFile(TracePath, Text); });
    Bytes += static_cast<double>(Text.size());
    std::optional<Trace> T;
    std::string Error;
    S["trace.parse_s"] += timed(Traced, "trace.parse", Root, S, [&] {
      T = parseTraceText(Text, Error, TraceParseOptions());
    });
    if (!T) {
      R.check(false, "in-process parse: " + Error);
      break;
    }
    ConsistencyResult C;
    S["trace.consistency_s"] +=
        timed(Traced, "trace.consistency", Root, S, [&] {
          C = checkConsistency(*T, ConsistencyMode::Fragment);
        });
    R.check(C.Ok, "in-process consistency: " + C.Message);

    DetectorOptions D = batchOptions(Call);
    std::string Report;
    size_t Findings = 0, Unknowns = 0;
    double Detect = 0, Render = 0;
    switch (Call.Prop) {
    case Property::Race: {
      DetectionResult Res;
      Detect = timed(Traced, "detect.race", Root, S, [&] {
        Res = detectRaces(*T, Technique::Maximal, D);
      });
      ReportRenderOptions Opts;
      Opts.WitnessTag = Call.Witness;
      Render = timed(Traced, "report.render", Root, S, [&] {
        Report = renderRaceReport(*T, Technique::Maximal, Res, Opts);
      });
      Findings = Res.raceCount();
      Unknowns = Res.Unknowns.size();
      Totals.add(Res.Stats, Findings, /*Race=*/true);
      break;
    }
    case Property::Atomicity: {
      AtomicityResult Res;
      Detect = timed(Traced, "detect.atomicity", Root, S,
                     [&] { Res = detectAtomicityViolations(*T, D); });
      Render = timed(Traced, "report.render", Root, S,
                     [&] { Report = renderAtomicityReport(Res); });
      Findings = Res.Violations.size();
      Unknowns = Res.Unknowns.size();
      Totals.add(Res.Stats, Findings, /*Race=*/false);
      S["detect.atomicity_s"] += Detect;
      break;
    }
    case Property::Deadlock: {
      DeadlockResult Res;
      Detect = timed(Traced, "detect.deadlock", Root, S,
                     [&] { Res = detectDeadlocks(*T, D); });
      Render = timed(Traced, "report.render", Root, S,
                     [&] { Report = renderDeadlockReport(*T, Res); });
      Findings = Res.Deadlocks.size();
      Unknowns = Res.Unknowns.size();
      Totals.add(Res.Stats, Findings, /*Race=*/false);
      S["detect.deadlock_s"] += Detect;
      break;
    }
    }
    S["detect.total_s"] += Detect;
    S["report.render_s"] += Render;
    uint64_t Expected = expectedFindings(W.Spec, Call.Prop);
    R.check(Findings == Expected && Unknowns == 0 &&
                headerCount(Report) == static_cast<int64_t>(Expected),
            formatString("in-process %s: %zu finding(s), %zu unknown(s), "
                         "expected %llu",
                         propertyName(Call.Prop), Findings, Unknowns,
                         static_cast<unsigned long long>(Expected)));
  }
  double Wall = now() - Start;
  if (Traced)
    endSpan(Root);
  S["wall_s"] = Wall;
  S["trace.parse_mb_per_s"] = ratio(Bytes / 1e6, S["trace.parse_s"]);
  if (Traced)
    addTelemetry(Totals, S);
  return S;
}

/// One serve-paced session replayed in process with the daemon's call
/// order: decode the DATA frame, feed, checkParse, then step while a
/// window is ready; finish after the last chunk.
Sample streamReplay(const Workload &W, const std::vector<std::string> &Chunks,
                    const std::string &Reference, bool Traced, Result &R) {
  beginIteration(Traced);
  StreamOptions SO; // the daemon's session defaults plus HELLO window=
  SO.Detect.WindowSize = W.ServeWindow;
  SO.Detect.Jobs = 1;
  SO.Detect.CollectWitnesses = true;
  SO.Render.WitnessTag = true;
  StreamDetector Det(SO);
  FrameDecoder Decoder;
  Sample S;
  std::vector<double> Steps;
  double Reparsed = 0;
  bool Ok = true;
  std::string Error;
  int Root = Traced ? beginSpan("session", -1) : -1;
  double Start = now();
  for (const std::string &Chunk : Chunks) {
    Frame F;
    S["frame.codec_s"] += timed(Traced, "frame.codec", Root, S, [&] {
      Decoder.feed(encodeFrame(FrameType::Data, Chunk));
      Ok &= Decoder.next(F, Error) == FrameDecoder::Result::Ready;
    });
    S["stream.feed_s"] +=
        timed(Traced, "stream.feed", Root, S, [&] { Det.feed(F.Payload); });
    bool Ready = false;
    S["stream.check_parse_s"] +=
        timed(Traced, "stream.check_parse", Root, S, [&] {
          if (Det.run().Dirty)
            Reparsed += static_cast<double>(Det.run().Buffer.size());
          Ok &= Det.checkParse(Error);
          Ready = Det.windowReady();
        });
    while (Ok && Ready) {
      StreamStep Step;
      double Secs = timed(Traced, "stream.step", Root, S,
                          [&] { Ok &= Det.step(Step, false, Error); });
      Steps.push_back(Secs);
      S["stream.step_s"] += Secs;
      S["stream.check_parse_s"] += timed(Traced, "stream.check_parse", Root, S,
                                         [&] { Ready = Det.windowReady(); });
    }
  }
  std::string Summary;
  S["stream.finish_s"] = timed(Traced, "stream.finish", Root, S, [&] {
    Ok &= Det.finish(Summary, Error);
  });
  double Wall = now() - Start;
  if (Traced)
    endSpan(Root);
  R.check(Ok && normalizeTiming(Summary) == Reference &&
              Det.run().WindowsDone == Chunks.size(),
          "in-process stream replay: " +
              (Ok ? std::string("summary differs from batch detect")
                  : Error));

  S["wall_s"] = Wall;
  size_t Half = std::min<size_t>(50, Steps.size());
  S["stream.step_first50_ms"] =
      median({Steps.begin(), Steps.begin() + Half}) * 1e3;
  S["stream.step_last50_ms"] = median({Steps.end() - Half, Steps.end()}) * 1e3;
  S["stream.reparsed_mb"] = Reparsed / 1e6;
  // The daemon's only parse is the prefix re-parse inside checkParse.
  S["trace.parse_s"] = S["stream.check_parse_s"];
  S["trace.parse_mb_per_s"] = ratio(Reparsed / 1e6, S["trace.parse_s"]);
  S["detect.total_s"] = S["stream.step_s"] + S["stream.finish_s"];
  if (Traced) {
    DriverTotals Totals;
    Totals.add(Det.run().Stats, Det.run().Findings, /*Race=*/true);
    addTelemetry(Totals, S);
  }
  return S;
}

/// Every per-layer metric, in report order, with its unit.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"trace.read_s", "s"},
    {"trace.parse_s", "s"},
    {"trace.parse_mb_per_s", "MB/s"},
    {"trace.consistency_s", "s"},
    {"detect.total_s", "s"},
    {"detect.cop_enum_s", "s"},
    {"detect.closure_s", "s"},
    {"detect.quick_check_s", "s"},
    {"detect.wcp_s", "s"},
    {"detect.encode_s", "s"},
    {"detect.solve_s", "s"},
    {"detect.witness_s", "s"},
    {"detect.unattributed_s", "s"},
    {"detect.atomicity_s", "s"},
    {"detect.deadlock_s", "s"},
    {"detect.windows", "count"},
    {"detect.cops", "count"},
    {"detect.qc_pass_ratio", "ratio"},
    {"solver.calls", "count"},
    {"solver.sat_ratio", "ratio"},
    {"solver.witness_resolves", "count"},
    {"smt.latency_p50_ms", "ms"},
    {"smt.latency_p90_ms", "ms"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"encoder.cone_events", "count"},
    {"encoder.sliced_atoms", "count"},
    {"wcp.races", "count"},
    {"wcp.pruned_cops", "count"},
    {"wcp.short_circuit_ratio", "ratio"},
    {"report.render_s", "s"},
    {"stream.feed_s", "s"},
    {"stream.check_parse_s", "s"},
    {"stream.step_s", "s"},
    {"stream.step_first50_ms", "ms"},
    {"stream.step_last50_ms", "ms"},
    {"stream.reparsed_mb", "MB"},
    {"stream.finish_s", "s"},
    {"frame.codec_s", "s"},
    {"mem.trace_peak_mb", "MB"},
    {"mem.formula_dag_peak_mb", "MB"},
    {"mem.clauses_peak_mb", "MB"},
};

/// Share of the iteration's wall time no harness span covers.
double unattributedFrac(const Sample &S) {
  double Wall = S.at("wall_s");
  return Wall > 0 ? std::max(0.0, Wall - S.at("covered_s")) / Wall : 0;
}

} // namespace

void runTraced(const Options &O, const Workload &W,
               const std::vector<std::string> &Traces, Result &R) {
  std::vector<Sample> Traced;
  std::vector<double> TracedWall, PlainWall;
  if (!W.Serve) {
    // Untraced and traced iterations of one trace alternate, cycling
    // through the panel, for --seconds.
    double Start = now();
    size_t Next = 0;
    do {
      const std::string &Path = Traces[Next++ % Traces.size()];
      PlainWall.push_back(
          batchIteration(W, Path, /*Traced=*/false, R).at("wall_s"));
      Traced.push_back(batchIteration(W, Path, /*Traced=*/true, R));
      TracedWall.push_back(Traced.back().at("wall_s"));
    } while (now() - Start < O.Seconds || Traced.size() < (O.Quick ? 1u : 2u));
  } else {
    std::string Text;
    readFile(Traces[0], Text);
    std::vector<std::string> Chunks = splitChunks(Text, W.ServeWindow);
    std::string Reference = serveReference(O, W, Traces[0], R);
    // The daemon run supplies the server-layer counters, the generator's
    // lateness and the FIN-to-SUMMARY time.
    runServePaced(O, W, Chunks, Reference, /*StatsJson=*/true, R);
    PlainWall.push_back(
        streamReplay(W, Chunks, Reference, /*Traced=*/false, R).at("wall_s"));
    Traced.push_back(streamReplay(W, Chunks, Reference, /*Traced=*/true, R));
    TracedWall.push_back(Traced.back().at("wall_s"));
  }
  Telemetry::setEnabled(false);

  for (const auto &[Name, Unit] : LayerMetrics) {
    std::vector<double> Values;
    for (const Sample &S : Traced) {
      auto It = S.find(Name);
      Values.push_back(It == S.end() ? 0 : It->second);
    }
    R.metric(Name, median(Values), Unit);
  }
  if (!W.Serve) {
    for (const char *Name :
         {"server.windows_analyzed", "server.backpressure_events",
          "server.degraded_windows"})
      R.metric(Name, 0, "count");
    R.metric("serve.window_p95_ms", 0, "ms");
    R.metric("serve.gen_late_ms", 0, "ms");
    R.metric("serve.summary_ms", 0, "ms");
  }
  std::vector<double> Unattributed;
  for (const Sample &S : Traced)
    Unattributed.push_back(unattributedFrac(S));
  R.metric("run.unattributed_frac", median(Unattributed), "frac");
  R.metric("run.trace_overhead_frac",
           ratio(median(TracedWall) - median(PlainWall), median(PlainWall)),
           "frac");
  R.info("traced_iterations", static_cast<double>(Traced.size()));
  R.info("untraced_iterations", static_cast<double>(PlainWall.size()));
}

} // namespace rvbench
