//===- detect/Stream.cpp - Incremental window-at-a-time detection ---------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Stream.h"

#include "detect/Resilience.h"
#include "detect/WindowDriver.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"
#include "trace/Window.h"

#include <cstdlib>
#include <limits>

using namespace rvp;

namespace {

/// Every value name of one analysis key, parsed here and nowhere else.
template <typename T> using NameTable = std::pair<std::string_view, T>[];

constexpr NameTable<StreamProperty> PropertyNames = {
    {"race", StreamProperty::Race},
    {"atomicity", StreamProperty::Atomicity},
    {"deadlock", StreamProperty::Deadlock}};
constexpr NameTable<Technique> TechniqueNames = {{"rv", Technique::Maximal},
                                                 {"said", Technique::Said},
                                                 {"cp", Technique::Cp},
                                                 {"hb", Technique::Hb}};
constexpr NameTable<DetectTier> TierNames = {{"vc", DetectTier::Vc},
                                             {"smt", DetectTier::Smt},
                                             {"hybrid", DetectTier::Hybrid}};
/// Strict booleans; a bare CLI flag arrives as "true".
constexpr NameTable<bool> BoolNames = {
    {"true", true}, {"1", true}, {"false", false}, {"0", false}};

template <typename T, size_t N>
bool lookup(const std::pair<std::string_view, T> (&Table)[N],
            std::string_view Name, T &Out) {
  for (const auto &[Key, Value] : Table)
    if (Key == Name) {
      Out = Value;
      return true;
    }
  return false;
}

} // namespace

struct StreamDetector::Session {
  Session(const Trace &T, const StreamOptions &Opts)
      : Policy(makePolicy(T, Opts)), Driver(T, Opts.Detect, *Policy) {}

  std::unique_ptr<QueryPolicy> Policy;
  WindowDriver Driver;
};

bool rvp::parseStreamProperty(std::string_view Name, StreamProperty &Out) {
  return lookup(PropertyNames, Name, Out);
}

bool rvp::setAnalysisOption(StreamOptions &Opts, std::string_view Key,
                            std::string_view Value, std::string &Error) {
  const std::string Text(Value);
  auto Bad = [&](const char *Expected) {
    Error = std::string(Key) + " must be " + Expected + " (got '" + Text +
            "')";
    return false;
  };
  DetectorOptions &D = Opts.Detect;
  if (Key == "property")
    return lookup(PropertyNames, Value, Opts.Property) ||
           Bad("race, atomicity, or deadlock");
  if (Key == "technique")
    return lookup(TechniqueNames, Value, Opts.Tech) ||
           Bad("rv, said, cp, or hb");
  if (Key == "tier")
    return lookup(TierNames, Value, D.Tier) || Bad("vc, smt, or hybrid");
  if (Key == "window") {
    int64_t N = 0;
    if (!parseInt(Value, N) || N <= 0 ||
        N > std::numeric_limits<uint32_t>::max())
      return Bad("a positive event count up to 4294967295");
    D.WindowSize = static_cast<uint32_t>(N);
    return true;
  }
  if (Key == "budget") {
    char *End = nullptr;
    double Seconds = std::strtod(Text.c_str(), &End);
    if (End == Text.c_str() || *End != '\0' || !(Seconds > 0))
      return Bad("a positive number of seconds");
    D.PerCopBudgetSeconds = Seconds;
    return true;
  }
  if (Key == "solver") {
    if (Value != "idl" && Value != "z3")
      return Bad("idl or z3");
    D.SolverName = Text;
    return true;
  }
  if (Key == "retry-budgets") {
    std::string BudgetError;
    if (parseBudgetList(Text, D.RetryBudgets, BudgetError))
      return true;
    Error = "retry-budgets: " + BudgetError;
    return false;
  }
  bool *Flag = Key == "skip-bad-events" ? &Opts.Parse.SkipBadEvents
               : Key == "witness"       ? &D.CollectWitnesses
                                        : nullptr;
  if (Flag) {
    if (!lookup(BoolNames, Value, *Flag))
      return Bad("true, false, 1, or 0");
    // Unset, witness means collect and validate witnesses but print only
    // their tags; set, it turns both on or both off.
    if (Key == "witness")
      Opts.Render.WitnessEvents = *Flag;
    return true;
  }
  Error = "unknown analysis option '" + std::string(Key) + "'";
  return false;
}

bool rvp::finishAnalysisOptions(StreamOptions &Opts, std::string &Error) {
  DetectorOptions &D = Opts.Detect;
  const bool Race = Opts.Property == StreamProperty::Race;
  const bool SolverTech =
      Opts.Tech == Technique::Maximal || Opts.Tech == Technique::Said;
  // The WCP vector-clock tier covers races under the solver-backed
  // techniques only (docs/TIERS.md).
  if (D.Tier == DetectTier::Vc && !Race) {
    Error = "tier=vc detects races only; atomicity and deadlock need the "
            "solver (use tier=hybrid or tier=smt)";
    return false;
  }
  if (D.Tier == DetectTier::Vc && !SolverTech) {
    Error = std::string("tier=vc replaces the solver pipeline of the rv and "
                        "said techniques; ") +
            techniqueName(Opts.Tech) +
            " has its own dedicated detector (drop tier=vc)";
    return false;
  }
  // The vc tier never talks to a solver, so it cannot derive witness
  // models; everything it prints is an unwitnessed (weakly sound) report.
  D.CollectWitnesses = D.CollectWitnesses && D.Tier != DetectTier::Vc;
  Opts.Render.VcTier = D.Tier == DetectTier::Vc;
  Opts.Render.WitnessTag =
      Opts.Tech == Technique::Maximal && D.CollectWitnesses;
  return true;
}

std::unique_ptr<QueryPolicy> rvp::makePolicy(const Trace &T,
                                             const StreamOptions &Opts) {
  switch (Opts.Property) {
  case StreamProperty::Race:
    return makeRacePolicy(T, Opts.Tech, Opts.Detect);
  case StreamProperty::Atomicity:
    return makeAtomicityPolicy(T, Opts.Detect);
  case StreamProperty::Deadlock:
    return makeDeadlockPolicy(T, Opts.Detect);
  }
  RVP_UNREACHABLE("unknown stream property");
}

StreamDetector::StreamDetector(StreamOptions Opts) : Opts(std::move(Opts)) {}

StreamDetector::~StreamDetector() = default;

void StreamDetector::reset() {
  Live.reset(); // first: it refers to Run.Reader's trace
  Recovered.reset();
  Run = DetectorRun();
}

std::string StreamDetector::state() const {
  if (Recovered)
    return *Recovered;
  return Live ? Live->Driver.saveState() : std::string();
}

void StreamDetector::feed(std::string_view Text) {
  if (Run.Finished || Text.empty())
    return;
  // Chunks can end mid-line; only complete lines move into the parse
  // buffer, so the parser never sees a torn event.
  Run.Pending.append(Text);
  size_t Cut = Run.Pending.rfind('\n');
  if (Cut == std::string::npos)
    return;
  Run.Buffer.append(Run.Pending, 0, Cut + 1);
  Run.Pending.erase(0, Cut + 1);
  Run.Dirty = true;
}

bool StreamDetector::checkParse(std::string &Error) {
  if (!Run.Reader)
    Run.Reader = std::make_unique<TraceReader>(Opts.Parse);
  if (Run.Dirty) {
    Run.Reader->read(Run.Buffer);
    Run.Buffer.clear();
    Run.Dirty = false;
    Run.SkippedEvents = Run.Reader->skippedEvents();
  }
  Error = Run.Reader->error();
  return Run.Reader->ok();
}

uint64_t StreamDetector::totalWindows(const Trace &T, bool Final) const {
  // Full windows only until FIN: the tail may still grow.
  return windowCount(T.size(), Opts.Detect.WindowSize, Final);
}

uint64_t StreamDetector::pendingWindows() {
  std::string Error;
  if (!checkParse(Error))
    return 0;
  uint64_t Total = totalWindows(Run.Reader->trace(), Run.Finished);
  return Total > Run.WindowsDone ? Total - Run.WindowsDone : 0;
}

bool StreamDetector::windowReady() {
  return !Run.Finished && pendingWindows() > 0;
}

bool StreamDetector::ensureSession(std::string &Error) {
  if (!Live)
    Live = std::make_unique<Session>(Run.Reader->trace(), Opts);
  if (!Recovered)
    return true;
  // Kept on failure, so every later step fails the same way.
  if (!Live->Driver.resume(*Recovered) ||
      Live->Driver.output().Stats.Windows != Run.WindowsDone) {
    Error = "resume state does not match the replayed trace";
    return false;
  }
  Recovered.reset();
  return true;
}

bool StreamDetector::step(StreamStep &Out, bool Degrade,
                          std::string &Error) {
  Error.clear();
  if (!checkParse(Error))
    return false;
  const Trace &T = Run.Reader->trace();
  if (Run.WindowsDone >= totalWindows(T, Run.Finished))
    return false;
  if (!ensureSession(Error))
    return false;

  // Load shedding answers this window from the linear WCP tier. The
  // verdicts are weakly sound (docs/TIERS.md) and carry no witnesses; the
  // caller marks the window `degraded` so consumers know.
  bool Degraded = Degrade && Opts.Property == StreamProperty::Race;
  Out = StreamStep();
  Out.Window = Run.WindowsDone;
  Out.Degraded = Degraded;
  size_t PrevFindings = Run.Findings, PrevUnknowns = Run.Unknowns;
  {
    ScopedPhaseTimer Phase(Live->Policy->Phase);
    Live->Driver.analyze(
        windowAt(T.size(), Opts.Detect.WindowSize, Run.WindowsDone),
        Degraded);
  }
  const QueryPolicy &Policy = *Live->Policy;
  const std::vector<UnknownReport> &Unknowns = Live->Driver.output().Unknowns;
  for (size_t I = PrevFindings; I < Policy.numFindings(); ++I)
    Out.Delta += Policy.renderFinding(I, Opts.Render);
  for (size_t I = PrevUnknowns; I < Unknowns.size(); ++I)
    Out.Delta += renderUnknownLine(Unknowns[I]);
  Run.Findings = Policy.numFindings();
  Run.Unknowns = Unknowns.size();
  Run.Stats = Live->Driver.output().Stats;
  Out.NewFindings = Run.Findings - PrevFindings;
  Out.NewUnknowns = Run.Unknowns > PrevUnknowns
                        ? Run.Unknowns - PrevUnknowns
                        : 0;
  if (Degraded)
    ++Run.DegradedWindows;
  Run.WindowsDone = Run.Stats.Windows;
  return true;
}

bool StreamDetector::finish(std::string &Summary, std::string &Error,
                            std::vector<StreamStep> *Steps) {
  Error.clear();
  if (Run.Complete) {
    Summary = Run.SummaryText;
    return true;
  }
  if (!Run.Finished) {
    if (!Run.Pending.empty()) { // the input need not end with a newline
      Run.Buffer += Run.Pending;
      Run.Pending.clear();
      Run.Dirty = true;
    }
    Run.Finished = true;
  }
  if (!checkParse(Error))
    return false;
  // A replay that ends short of the recovered windows is a different
  // trace: analyze it from scratch.
  if (Recovered &&
      totalWindows(Run.Reader->trace(), false) < Run.WindowsDone) {
    Recovered.reset();
    Run.WindowsDone = 0;
  }

  // Drain the tail one window at a time so callers still get per-window
  // deltas for everything that arrived after the last step().
  for (;;) {
    StreamStep S;
    if (!step(S, /*Degrade=*/false, Error)) {
      if (!Error.empty())
        return false;
      break;
    }
    if (Steps)
      Steps->push_back(std::move(S));
  }

  // End the driver session: its counters land in the registry exactly
  // once, and the cumulative report renders from the live findings.
  if (!ensureSession(Error))
    return false;
  QueryPolicy &Policy = *Live->Policy;
  DriverOutput Out = Live->Driver.finish();
  Run.Findings = Policy.numFindings();
  Run.Unknowns = Out.Unknowns.size();
  Run.Stats = Out.Stats;
  Summary = Policy.renderReport(std::move(Out), Opts.Render);
  Run.SummaryText = Summary;
  Run.Complete = true;
  return true;
}
