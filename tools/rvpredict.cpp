//===- tools/rvpredict.cpp - Command-line driver ------------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The end-user tool: record MiniRV executions, predict races from traces,
/// and replay witnesses.
///
///   rvpredict record  <prog.rv> [--seed=N] [--schedule=rr|random]
///                     [--out=trace.txt]
///   rvpredict detect  <trace.txt|prog.rv> [--technique=rv|said|cp|hb]
///                     [--property=race|atomicity|deadlock] [--window=N]
///                     [--tier=vc|smt|hybrid] [--budget=S] [--witness[=BOOL]]
///                     [--retry-budgets=50ms,250ms,1s] [--skip-bad-events]
///                     [--jobs=N] [--static-prune] [--checkpoint=dir] [--stats]
///                     [--stats-json=out.json] [--trace-events=events.jsonl]
///                     [--profile=out.trace.json] [--inject-faults=spec]
///   rvpredict replay  <prog.rv> --trace=trace.txt
///                     (re-runs the program following the trace's schedule)
///   rvpredict fuzz    [--seed=N]   (prints a random program)
///
/// Inputs ending in `.rv` are treated as MiniRV programs (recorded on the
/// fly); anything else is parsed as a trace in the text format.
///
/// The analysis flags (--technique, --property, --window, --tier,
/// --budget, --witness, --retry-budgets and --skip-bad-events,
/// the one record takes too) go through the parser and rule set that
/// rvpredictd's defaults and its HELLO options use (detect/Stream.h,
/// docs/SERVER.md): --window is 1..4294967295 events,
/// --budget a positive number of seconds, booleans true/false/1/0, and
/// --tier=vc runs races under rv or said only.
///
/// Exit codes (see docs/ROBUSTNESS.md): 0 = clean run, nothing found;
/// 1 = the analysis found races / violations / deadlocks; 2 = usage errors
/// (bad flags, malformed values, unreadable inputs); 3 = internal errors
/// or a degraded run that left COPs undecided (an `unknown` section).
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticPrune.h"
#include "detect/Checkpoint.h"
#include "detect/Stream.h"
#include "detect/WindowDriver.h"
#include "lang/Parser.h"
#include "runtime/Interpreter.h"
#include "support/CommandLine.h"
#include "support/FaultInjector.h"
#include "support/Profile.h"
#include "support/StringUtils.h"
#include "trace/TraceIO.h"
#include "workloads/Catalog.h"
#include "workloads/Fuzzer.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>

using namespace rvp;

namespace {

/// Reads a MiniRV program through the shared reader, then applies the
/// injected read failures (trace files are read in blocks by
/// readTraceFile, which applies the same).
bool readInput(const std::string &Path, std::string &Out) {
  if (!readFile(Path, Out))
    return false;
  // Injected read failures (docs/ROBUSTNESS.md): a short read truncates
  // the content mid-stream, a garble corrupts one byte in the middle.
  // Both surface downstream as parse diagnostics, never as crashes.
  if (FaultInjector::shouldFail(faults::TraceShortRead))
    Out.resize(Out.size() / 2);
  if (FaultInjector::shouldFail(faults::TraceGarble) && !Out.empty())
    Out[Out.size() / 2] = '\x01';
  return true;
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// Loads a trace from a program (recording it), a trace file, or a
/// catalog row (`bench:<name>`, e.g. `bench:highcop` — see
/// workloads/Catalog.h). When the input was a MiniRV program, \p
/// SourceOut (if non-null) receives its text, so callers can re-analyze
/// the program statically. \p ParseOpts applies to trace files, which are
/// read in blocks, complete lines at a time, into one TraceReader.
bool loadTrace(const std::string &Path, const OptionParser &Options,
               const TraceParseOptions &ParseOpts, Trace &T,
               std::string *SourceOut = nullptr) {
  if (Path.rfind("bench:", 0) == 0) {
    std::string Name = Path.substr(6);
    std::optional<BenchmarkCase> Case = findBenchmark(Name);
    if (!Case) {
      std::fprintf(stderr, "error: unknown benchmark '%s'\n", Name.c_str());
      return false;
    }
    std::string Error;
    if (!benchmarkTrace(*Case, T, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return false;
    }
    if (SourceOut && Case->CaseKind == BenchmarkCase::Kind::Program)
      *SourceOut = Case->Source;
    return true;
  }
  if (endsWith(Path, ".rv")) {
    std::string Content;
    if (!readInput(Path, Content)) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
      return false;
    }
    if (SourceOut)
      *SourceOut = Content;
    RunResult Run;
    std::string Error;
    uint64_t Seed = Options.getInt("seed", 1);
    RoundRobinScheduler RoundRobin(3);
    RandomScheduler Random(Seed);
    std::string Schedule = Options.getString("schedule", "random");
    Scheduler *S = nullptr;
    if (Schedule == "rr")
      S = &RoundRobin;
    else if (Schedule == "random")
      S = &Random;
    else {
      std::fprintf(stderr,
                   "error: unknown --schedule value '%s' "
                   "(valid values: rr, random)\n",
                   Schedule.c_str());
      return false;
    }
    if (!recordTrace(Content, T, Run, Error, S)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return false;
    }
    if (Run.Deadlocked)
      std::fprintf(stderr, "warning: the recorded execution deadlocked\n");
    return true;
  }
  TraceParseOptions FileOpts = ParseOpts;
  FileOpts.FileName = Path;
  TraceReader Reader(FileOpts);
  if (!readTraceFile(Path, Reader)) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  if (!Reader.ok()) {
    std::fprintf(stderr, "error: %s\n", Reader.error().c_str());
    return false;
  }
  if (uint64_t Skipped = Reader.skippedEvents()) {
    std::fprintf(stderr,
                 "note: skipped %llu malformed or inconsistent event "
                 "line(s) in '%s'\n",
                 static_cast<unsigned long long>(Skipped), Path.c_str());
    if (Telemetry::enabled())
      MetricsRegistry::global().counter("trace.skipped_events").add(Skipped);
  }
  T = std::move(Reader.trace());
  return true;
}

/// Sets each of \p Keys given on the command line through the analysis
/// options parser shared with rvpredictd and HELLO (detect/Stream.h); false
/// after the diagnostic on a bad value.
bool applyAnalysisFlags(const OptionParser &Options,
                        std::initializer_list<const char *> Keys,
                        StreamOptions &Out) {
  std::string Error;
  for (const char *Key : Keys)
    if (Options.hasOption(Key) &&
        !setAnalysisOption(Out, Key, Options.getString(Key), Error)) {
      std::fprintf(stderr, "error: --%s\n", Error.c_str());
      return false;
    }
  return true;
}

int cmdRecord(const OptionParser &Options) {
  if (Options.positional().size() < 2) {
    std::fprintf(stderr, "usage: rvpredict record <prog.rv>\n");
    return ExitUsage;
  }
  StreamOptions Analysis;
  if (!applyAnalysisFlags(Options, {"skip-bad-events"}, Analysis))
    return ExitUsage;
  Trace T;
  if (!loadTrace(Options.positional()[1], Options, Analysis.Parse, T))
    return ExitUsage;
  std::string Text = writeTraceText(T);
  std::string Out = Options.getString("out", "");
  if (Out.empty()) {
    std::fputs(Text.c_str(), stdout);
    return 0;
  }
  std::ofstream File(Out);
  if (!File) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Out.c_str());
    return ExitUsage;
  }
  File << Text;
  std::printf("wrote %llu events to %s\n",
              static_cast<unsigned long long>(T.size()), Out.c_str());
  return 0;
}

int cmdDetect(const OptionParser &Options) {
  if (Options.positional().size() < 2) {
    std::fprintf(stderr, "usage: rvpredict detect <trace.txt|prog.rv>\n");
    return ExitUsage;
  }

  // Flag validation up front: every malformed value is a usage error
  // (exit 2), diagnosed before any work starts.
  uint32_t Jobs = 0;
  if (!readJobs(Options, 0, Jobs))
    return ExitUsage;
  // The analysis keys and their combination rules (docs/TIERS.md), shared
  // with rvpredictd's defaults and HELLO.
  StreamOptions Analysis;
  if (!applyAnalysisFlags(Options,
                          {"property", "technique", "tier", "window",
                           "budget", "retry-budgets", "skip-bad-events",
                           "witness"},
                          Analysis))
    return ExitUsage;
  {
    std::string Error;
    if (!finishAnalysisOptions(Analysis, Error)) {
      std::fprintf(stderr, "error: --%s\n", Error.c_str());
      return ExitUsage;
    }
  }
  DetectorOptions &Detect = Analysis.Detect;

  std::string StatsJsonPath = Options.getString("stats-json", "");
  std::string TraceEventsPath = Options.getString("trace-events", "");
  std::string ProfilePath = Options.getString("profile", "");
  if (ProfilePath == "-") {
    std::fprintf(stderr, "error: --profile needs a file path (the trace is "
                         "one JSON document, not a streamable block)\n");
    return ExitUsage;
  }
  // Telemetry must be on before loadTrace so interpreter counters from an
  // on-the-fly recording land in the same snapshot. --profile implies
  // telemetry: the collector is one more view attached to it.
  TraceEventSink Sink;
  ProfileCollector Profiler;
  if (Options.getBool("stats") || !StatsJsonPath.empty() ||
      !TraceEventsPath.empty() || !ProfilePath.empty()) {
    Telemetry::setEnabled(true);
    Telemetry::instance().reset();
    if (!TraceEventsPath.empty()) {
      std::string Error;
      if (!Sink.open(TraceEventsPath, Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return ExitUsage;
      }
      Telemetry::instance().setSink(&Sink);
    }
    if (!ProfilePath.empty()) {
      Telemetry::instance().setProfiler(&Profiler);
      Profiler.setThreadName("main");
    }
  }

  Trace T;
  std::string Source;
  if (!loadTrace(Options.positional()[1], Options, Analysis.Parse, T,
                 &Source))
    return ExitUsage;

  Detect.Jobs = Jobs;

  // Checkpointing: the fingerprint pins the trace contents and every
  // result-relevant flag (jobs excluded — reports are identical for any
  // value), so a checkpoint directory can only resume the same analysis.
  // The literals `solver=idl`, `incremental=1` and `check-tiers=0` stay
  // from when the solver backend, session solving and the tier
  // cross-check were flags, so a checkpoint directory written before is
  // not refused as another analysis'.
  Detect.CheckpointDir = Options.getString("checkpoint", "");
  if (!Detect.CheckpointDir.empty()) {
    std::string Flags = formatString(
        "technique=%s property=%s window=%u solver=idl budget=%g "
        "incremental=1 witness=%d static-prune=%d retry-budgets=%s "
        "tier=%s check-tiers=0",
        Options.getString("technique", "rv").c_str(),
        Options.getString("property", "race").c_str(), Detect.WindowSize,
        Detect.PerCopBudgetSeconds,
        Detect.CollectWitnesses ? 1 : 0,
        Options.getBool("static-prune") ? 1 : 0,
        Options.getString("retry-budgets", "").c_str(),
        tierName(Detect.Tier));
    Detect.CheckpointFingerprint =
        checkpointHash(Flags, checkpointHash(writeTraceText(T)));
  }

  // Sound static COP pruning: needs the program source, so it only applies
  // to .rv inputs (a bare trace has no control-flow structure to analyze).
  std::unique_ptr<Program> PruneProgram;
  std::unique_ptr<StaticPruneOracle> Oracle;
  if (Options.getBool("static-prune")) {
    if (Source.empty()) {
      std::fprintf(stderr, "warning: --static-prune needs a .rv program "
                           "input; ignoring\n");
    } else {
      std::string ParseError;
      auto Parsed = parseProgram(Source, ParseError);
      if (!Parsed) {
        std::fprintf(stderr, "error: %s\n", ParseError.c_str());
        return ExitUsage;
      }
      PruneProgram = std::make_unique<Program>(std::move(*Parsed));
      Oracle = std::make_unique<StaticPruneOracle>(*PruneProgram);
      Oracle->bind(T);
      Detect.StaticPruner = Oracle.get();
      Detect.CfFold = Oracle.get();
      if (Telemetry::enabled())
        MetricsRegistry::global()
            .gauge("analysis.vars_thread_local")
            .set(Oracle->threadLocalVars());
    }
  }

  // One dispatch for every property, the one streaming sessions use, so
  // batch and streamed reports come from the same code.
  std::unique_ptr<QueryPolicy> Policy = makePolicy(T, Analysis);
  DriverOutput Out = runWindowDriver(T, Detect, *Policy);
  const size_t Findings = Policy->numFindings();
  const size_t Unknowns = Out.Unknowns.size();
  const DetectionStats Stats = Out.Stats;
  std::fputs(Policy->renderReport(std::move(Out), Analysis.Render).c_str(),
             stdout);

  // Both stats renderings draw from the same DetectionStats + telemetry
  // snapshot; race stats are labeled by technique, the others by property.
  const char *What = Analysis.Property == StreamProperty::Race
                         ? techniqueName(Analysis.Tech)
                         : Policy->Phase;
  if (Options.getBool("stats"))
    std::fputs(renderStatsTable(Stats, What).c_str(), stdout);
  if (!StatsJsonPath.empty() &&
      !writeStatsJson(StatsJsonPath, statsToJson(Stats, What)))
    return ExitInternal;
  // The profile spans the whole run; a write failure is an internal error
  // (the analysis itself succeeded).
  if (!ProfilePath.empty()) {
    Telemetry::instance().setProfiler(nullptr);
    std::string Error;
    if (!Profiler.writeFile(ProfilePath, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return ExitInternal;
    }
  }
  // Exit code: findings → 1; a degraded run that left candidates
  // undecided → 3 (the report may be incomplete); clean and empty → 0.
  if (Unknowns)
    return ExitInternal;
  return Findings ? ExitFindings : ExitSuccess;
}

int cmdReplay(const OptionParser &Options) {
  if (Options.positional().size() < 2 || !Options.hasOption("trace")) {
    std::fprintf(stderr,
                 "usage: rvpredict replay <prog.rv> --trace=trace.txt\n");
    return ExitUsage;
  }
  std::string Source;
  if (!readInput(Options.positional()[1], Source)) {
    std::fprintf(stderr, "error: cannot open program\n");
    return ExitUsage;
  }
  TraceReader Recorded{TraceParseOptions{}};
  if (!readTraceFile(Options.getString("trace"), Recorded)) {
    std::fprintf(stderr, "error: cannot open trace\n");
    return ExitUsage;
  }
  if (!Recorded.ok()) {
    std::fprintf(stderr, "error: %s\n", Recorded.error().c_str());
    return ExitUsage;
  }
  std::vector<ThreadId> Schedule;
  for (const Event &E : Recorded.trace().events())
    Schedule.push_back(E.Tid);

  std::string Error;
  Trace Replayed;
  RunResult Run;
  ReplayScheduler S(std::move(Schedule));
  if (!recordTrace(Source, Replayed, Run, Error, &S)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return ExitUsage;
  }
  std::printf("replayed %llu events; schedule %s\n",
              static_cast<unsigned long long>(Replayed.size()),
              S.diverged() ? "DIVERGED" : "followed exactly");
  for (const RuntimeError &E : Run.Errors)
    std::printf("runtime error at line %u: %s\n", E.Line,
                E.Message.c_str());
  std::fputs(writeTraceText(Replayed).c_str(), stdout);
  return 0;
}

int cmdFuzz(const OptionParser &Options) {
  std::fputs(fuzzProgram(Options.getInt("seed", 1)).c_str(), stdout);
  return 0;
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Options(
      "rvpredict: maximal sound predictive race detection\n"
      "subcommands: record, detect, replay, fuzz");
  Options.addOption("seed", "schedule / fuzz seed", "1");
  Options.addOption("schedule", "rr or random", "random");
  Options.addOption("out", "output file for record", "");
  Options.addOption("technique", "rv, said, cp, or hb", "rv");
  Options.addOption("property", "race, atomicity, or deadlock", "race");
  Options.addOption("window", "window size in events", "10000");
  Options.addOption("budget", "per-COP solver budget (s)", "60");
  Options.addOption("jobs",
                    "solver worker threads, 0..256 (0 or omitted = one per "
                    "hardware thread)",
                    "0");
  Options.addOption("static-prune",
                    "skip COPs a static analysis of the program proves "
                    "race-free (.rv inputs only)",
                    "false");
  Options.addOption("tier",
                    "race pipeline tier: vc (WCP vector clocks only), smt "
                    "(solver only), or hybrid (WCP prunes and "
                    "short-circuits ahead of the solver)",
                    "hybrid");
  Options.addOption("witness",
                    "unset: validate witnesses, print their tags only; "
                    "true: also print the reorderings; false: collect none "
                    "(hybrid then reports WCP verdicts unverified)");
  Options.addOption("stats", "print detection statistics", "false");
  Options.addOption("stats-json", "write stats as JSON ('-' for stdout)", "");
  Options.addOption("trace-events",
                    "write per-window/COP/solve JSONL events "
                    "('-' for stdout)",
                    "");
  Options.addOption("profile",
                    "write a Chrome/Perfetto trace of the run "
                    "(load in ui.perfetto.dev or chrome://tracing)",
                    "");
  Options.addOption("trace", "trace file for replay", "");
  Options.addOption("retry-budgets",
                    "escalating per-COP retry budgets for unknown results, "
                    "e.g. 50ms,250ms,1s (empty = no retries)",
                    "");
  Options.addOption("checkpoint",
                    "directory for per-window checkpoints; rerunning with "
                    "the same flags resumes from the last completed window",
                    "");
  Options.addOption("skip-bad-events",
                    "skip malformed trace lines (counted in stats) instead "
                    "of failing the parse",
                    "false");
  Options.addOption("inject-faults",
                    "deterministic fault injection spec, e.g. "
                    "'seed=7,solver.timeout=3,trace.garble' "
                    "(also read from RV_FAULTS)",
                    "");
  if (!Options.parse(Argc, Argv))
    return ExitUsage;
  // Fault injection configures process-wide before any subcommand runs;
  // the env var lets test harnesses reach child processes they don't exec
  // directly.
  std::string FaultSpec = Options.getString("inject-faults", "");
  if (FaultSpec.empty())
    if (const char *Env = std::getenv("RV_FAULTS"))
      FaultSpec = Env;
  if (!FaultSpec.empty()) {
    std::string FaultError;
    if (!FaultInjector::configure(FaultSpec, FaultError)) {
      std::fprintf(stderr, "error: bad --inject-faults spec: %s\n",
                   FaultError.c_str());
      return ExitUsage;
    }
  }
  if (Options.positional().empty()) {
    std::fprintf(stderr,
                 "usage: rvpredict <record|detect|replay|fuzz> ...\n");
    return ExitUsage;
  }
  const std::string &Cmd = Options.positional()[0];
  if (Cmd == "record")
    return cmdRecord(Options);
  if (Cmd == "detect")
    return cmdDetect(Options);
  if (Cmd == "replay")
    return cmdReplay(Options);
  if (Cmd == "fuzz")
    return cmdFuzz(Options);
  std::fprintf(stderr, "error: unknown subcommand '%s'\n", Cmd.c_str());
  return ExitUsage;
}
