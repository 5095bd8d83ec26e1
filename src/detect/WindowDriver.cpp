//===- detect/WindowDriver.cpp - One window loop, many query policies -----===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/WindowDriver.h"

#include "detect/Checkpoint.h"
#include "detect/Resilience.h"
#include "detect/WitnessChecker.h"
#include "smt/Solver.h"
#include "support/CommandLine.h"
#include "support/FaultInjector.h"
#include "support/MemStats.h"
#include "support/Profile.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

using namespace rvp;

const EventClosure &WindowContext::mhb() {
  if (!Mhb) {
    ScopedPhaseTimer ClosurePhase("closure");
    Mhb.emplace(T, Window, ClosureConfig::mhb());
  }
  return *Mhb;
}

const RaceEncoder &WindowContext::encoder() {
  if (!Encoder) {
    const EventClosure &Closure = mhb();
    ScopedPhaseTimer EncodePhase("encode");
    Encoder =
        std::make_unique<RaceEncoder>(T, Window, Closure, Values, EncOpts);
  }
  return *Encoder;
}

namespace {

const char *outcomeOf(SatResult Sat) {
  return Sat == SatResult::Sat     ? "sat"
         : Sat == SatResult::Unsat ? "unsat"
                                   : "timeout";
}

/// Prune provenance of a decided candidate from its outcome: what killed
/// the pair, "none" for a finding.
const char *stageForOutcome(const char *Outcome) {
  if (std::strcmp(Outcome, "unsat") == 0)
    return "unsat";
  if (std::strcmp(Outcome, "timeout") == 0)
    return "budget";
  return "none";
}

/// Trace-event outcome of a candidate a prune stage rejected.
const char *rejectOutcome(const char *Stage) {
  if (std::strcmp(Stage, "static-prune") == 0)
    return "static-pruned";
  if (std::strcmp(Stage, "wcp") == 0)
    return "wcp-ordered";
  return "qc-fail";
}

bool parseU64(std::string_view S, uint64_t &Out) {
  int64_t V = 0;
  if (!parseInt(S, V) || V < 0)
    return false;
  Out = static_cast<uint64_t>(V);
  return true;
}

bool parseHex(std::string_view S, uint64_t &Out) {
  if (S.empty() || S.size() > 16)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    int D;
    if (C >= '0' && C <= '9')
      D = C - '0';
    else if (C >= 'a' && C <= 'f')
      D = C - 'a' + 10;
    else
      return false;
    V = V << 4 | static_cast<uint64_t>(D);
  }
  Out = V;
  return true;
}

/// What deciding one candidate produced: on demand in the collect loop
/// (one job) or ahead of it on a pool worker (jobs > 1).
struct Decision {
  /// Went through a SolveHost (a WCP short-circuit does not).
  bool Solved = false;
  SatResult Sat = SatResult::Unknown;
  /// Escalation attempts the host spent.
  uint32_t Attempts = 1;
  const char *Backend = "none";
  double EncodeSeconds = 0;
  double SolveSeconds = 0;
  double WitnessSeconds = 0;
  uint64_t MemDeltaBytes = 0;
  uint64_t ConeEvents = 0;
  /// Formula size of this query (cop trace events only).
  uint64_t FormulaNodes = 0;
  uint64_t DifferenceAtoms = 0;
  uint64_t OrderVars = 0;
  std::vector<EventId> Witness;
  bool WitnessValid = false;
  /// The finding's witness solve was not Sat: reported without a witness.
  bool WitnessFailed = false;
};

/// Window-scoped solve state of one thread: the SolveHost (the
/// incremental session, or the one-shot solver it falls back to, plus the
/// degradation policy) and the shared hash-consing builder.
struct SolveCtx {
  FormulaBuilder FB;
  std::unique_ptr<SolveHost> Host;
};

} // namespace

namespace rvp {

class WindowDriver::Impl {
public:
  Impl(const Trace &T, const DetectorOptions &Options, QueryPolicy &Policy)
      : T(T), Options(Options), Policy(Policy) {
    if (Policy.Solves) {
      uint32_t Jobs = Options.Jobs == 0 ? ThreadPool::defaultWorkerCount()
                                        : Options.Jobs;
      if (Jobs > 1)
        Pool = std::make_unique<ThreadPool>(Jobs);
      Out.Stats.Jobs = Jobs;
    }
  }

  void analyze(Span Window, bool Degraded) {
    Timer Clock;
    // Variables first seen in this window (a streamed trace grows) start
    // at their initial values.
    for (auto Var = static_cast<VarId>(Values.size()); Var < T.numVars();
         ++Var)
      Values.push_back(T.initialValueOf(Var));
    ++Out.Stats.Windows;
    processWindow(Window, Degraded);
    for (EventId Id = Window.Begin; Id < Window.End; ++Id)
      if (T[Id].isWrite())
        Values[T[Id].Target] = T[Id].Data;
    Out.Stats.UnknownCops = Out.Unknowns.size();
    Out.Stats.Seconds += Clock.seconds();
  }

  DriverOutput finish() {
    if (Telemetry::enabled()) {
      flushTelemetry();
      Out.Stats.Telemetry = Telemetry::instance().snapshot();
    }
    return std::move(Out);
  }

  const DriverOutput &output() const { return Out; }

private:
  void processWindow(Span Window, bool Degraded) {
    ScopedPhaseTimer WindowPhase("window");
    Timer WindowClock;
    uint64_t SolvesBefore = Out.Stats.SolverCalls;
    WindowContext W(T, Window, Values, Policy.Encoding, Degraded);
    std::vector<Candidate> Cands;
    Policy.enumerate(W, Cands);
    tally(Cands);
    collect(W, Cands);

    double Seconds = WindowClock.seconds();
    if (TraceEventSink *Sink = activeSink()) {
      JsonObject O;
      O.field("type", "window")
          .field("index", Out.Stats.Windows - 1)
          .field("begin", static_cast<uint64_t>(Window.Begin))
          .field("end", static_cast<uint64_t>(Window.End))
          .field("cops", static_cast<uint64_t>(Cands.size()))
          .field("seconds", Seconds);
      Sink->write(O);
    }
    if (Telemetry::enabled()) {
      WindowCost Cost;
      Cost.Index = Out.Stats.Windows - 1;
      Cost.Cops = Cands.size();
      Cost.Solves = Out.Stats.SolverCalls - SolvesBefore;
      Cost.Seconds = Seconds;
      Out.Stats.TopCosts.recordWindow(Cost);
    }
    // Live counter tracks, sampled once per window barrier — enough
    // resolution to see trends in Perfetto without bloating the trace.
    if (ProfileCollector *P = ProfileCollector::active()) {
      P->counter("cops", static_cast<double>(Out.Stats.Cops));
      P->counter("races", static_cast<double>(Policy.numFindings()));
      P->counter("solver-calls", static_cast<double>(Out.Stats.SolverCalls));
      P->counter("mem.formula_bytes",
                 static_cast<double>(MemStats::current(MemPool::Formula)));
      P->counter("mem.rss_bytes",
                 static_cast<double>(MemStats::currentRssBytes()));
    }
  }

  /// Window-start accounting: every enumerated candidate is a COP of
  /// Table 1, and every one the static pruner left is quick-checked.
  void tally(const std::vector<Candidate> &Cands) {
    Out.Stats.Cops += Cands.size();
    for (const Candidate &C : Cands) {
      if (C.PreReject && std::strcmp(C.PreReject, "static-prune") == 0) {
        ++Out.Stats.CopsPrunedStatic;
        continue;
      }
      if (!C.QcPass) {
        ++QcMisses;
        continue;
      }
      ++QcHits;
      if (Policy.QcBySignature)
        QcSignatures.insert(C.Sig);
    }
    if (Policy.QcBySignature)
      Out.Stats.QcPassed = QcSignatures.size();
  }

  /// Whether \p C reaches a decision as far as window start can tell.
  bool decidable(const Candidate &C) const {
    if (C.PreReject || C.Reject || Seen.count(C.Sig))
      return false;
    return C.How == Candidate::Verdict::Solve ||
           (C.How == Candidate::Verdict::ShortCircuit &&
            Options.CollectWitnesses);
  }

  /// The one collect loop, in candidate order.
  void collect(WindowContext &W, const std::vector<Candidate> &Cands) {
    std::vector<SolveCtx> Contexts(Pool ? Pool->numWorkers() + 1 : 1);
    std::vector<Decision> Ahead;
    if (Pool)
      decideAhead(W, Cands, Contexts, Ahead);

    for (size_t I = 0; I < Cands.size(); ++I) {
      const Candidate &C = Cands[I];
      if (C.PreReject) {
        rejected(C, C.PreReject);
        continue;
      }
      if (Seen.count(C.Sig)) {
        ++SigPruned; // signature pruning (Section 4)
        if (Pool && Ahead[I].Solved)
          ++SpeculativeSolves;
        emitCopEvent(C, "pruned", "signature");
        continue;
      }
      if (C.Reject) {
        rejected(C, C.Reject);
        continue;
      }
      if (!Policy.QcBySignature && Options.UseQuickCheck)
        ++Out.Stats.QcPassed;
      switch (C.How) {
      case Candidate::Verdict::Ordered:
        emitCopEvent(C, "ordered", "ordered");
        break;
      case Candidate::Verdict::Racy:
        emitCopEvent(C, "race", "none");
        reportFinding(C, {}, false);
        break;
      case Candidate::Verdict::WcpRacy:
        ++Out.Stats.WcpRaces;
        emitCopEvent(C, "race", "wcp");
        reportFinding(C, {}, false);
        break;
      case Candidate::Verdict::Solve:
      case Candidate::Verdict::ShortCircuit: {
        Decision D;
        if (Pool)
          D = std::move(Ahead[I]);
        else
          decide(W, C, Contexts.back(), D);
        account(C, D);
        break;
      }
      }
    }
    for (const SolveCtx &Ctx : Contexts)
      if (Ctx.Host)
        absorbHostStats(Ctx.Host->stats());
  }

  /// Jobs > 1: decides every candidate that survives the window-start
  /// filters as an independent task — own builder, own host per worker,
  /// read-only window state. The collect loop then accepts or discards
  /// the results in candidate order, so reports and stats match one job.
  /// One caveat: a candidate near the per-COP budget can tip from
  /// sat/unsat to timeout under contention (wall-clock budgets are the
  /// one scheduling-dependent input).
  void decideAhead(WindowContext &W, const std::vector<Candidate> &Cands,
                   std::vector<SolveCtx> &Contexts,
                   std::vector<Decision> &Ahead) {
    Ahead.resize(Cands.size());
    std::vector<size_t> Todo;
    for (size_t I = 0; I < Cands.size(); ++I)
      if (decidable(Cands[I]))
        Todo.push_back(I);
    if (Todo.empty())
      return;
    W.encoder(); // shared window state is built on this thread
    const bool Observing = Telemetry::enabled();
    std::vector<PhaseTree> WorkerTrees(Observing ? Pool->numWorkers() : 0);
    Pool->parallelFor(0, Todo.size(), [&](size_t K) {
      int Worker = Pool->currentWorkerIndex();
      std::optional<ThreadPhaseScope> PhaseScope;
      if (Observing && Worker >= 0)
        PhaseScope.emplace(&WorkerTrees[Worker]);
      // The trailing context belongs to the main thread, which helps
      // drain the queue and reports worker index -1.
      SolveCtx &Ctx = Contexts[Worker >= 0 ? static_cast<size_t>(Worker)
                                           : Contexts.size() - 1];
      decide(W, Cands[Todo[K]], Ctx, Ahead[Todo[K]]);
    });
    if (Observing) {
      // The main thread is inside the "window" phase here, so the merge
      // nests each worker's encode/solve/witness times under it.
      PhaseTree &Main = Telemetry::instance().phases();
      for (const PhaseTree &Tree : WorkerTrees)
        Main.absorb(Tree);
    }
  }

  /// Decides one candidate. Touches only immutable window state, \p Ctx,
  /// \p D and the (thread-safe) registry, so it can run on any worker.
  void decide(WindowContext &W, const Candidate &C, SolveCtx &Ctx,
              Decision &D) const {
    if (C.How == Candidate::Verdict::ShortCircuit) {
      // The WCP tier proved the pair racy: no decision-path encode, no
      // session solve. With witnesses on, the witness solve the Smt tier
      // runs for the same pair is the verdict, so every outcome matches
      // the Smt tier byte for byte; with witnesses off the WCP verdict
      // stands (the vc-tier semantics; --check-tiers is the standing
      // oracle).
      if (Options.CollectWitnesses)
        D.Sat = witness(W, C, D);
      return;
    }

    const RaceEncoder &Encoder = W.encoder();
    if (!Ctx.Host)
      Ctx.Host = std::make_unique<SolveHost>(
          Options.SolverName, Options.PerCopBudgetSeconds,
          Options.RetryBudgets, Options.RetryJitterSeed + Out.Stats.Windows);
    // One builder per window (per worker), so shared subformulas are
    // hash-consed once and the session's learned clauses stay meaningful.
    FormulaBuilder &FB = Ctx.FB;
    size_t NodesBefore = FB.numNodes();
    NodeRef Root;
    EncodeStats Enc;
    {
      ScopedPhaseTimer EncodePhase("encode");
      Timer EncodeClock;
      Root = Policy.encode(Encoder, FB, C, &Enc);
      D.EncodeSeconds = EncodeClock.seconds();
    }
    D.ConeEvents = Enc.ConeEvents;
    D.MemDeltaBytes = (FB.numNodes() - NodesBefore) * sizeof(FormulaNode);
    if (Telemetry::enabled())
      recordFormulaMetrics(FB, NodesBefore, Root);
    if (activeSink()) {
      D.FormulaNodes = FB.numNodes() - NodesBefore;
      for (size_t I = NodesBefore; I < FB.numNodes(); ++I)
        if (FB.node(static_cast<NodeRef>(I)).Kind == FormulaKind::Atom)
          ++D.DifferenceAtoms;
      D.OrderVars = FB.collectVars(Root).size();
    }

    SolveHost::Outcome Decided;
    {
      ScopedPhaseTimer SolvePhase("solve");
      Timer SolveClock;
      Decided = Ctx.Host->decide(FB, Root);
      D.SolveSeconds = SolveClock.seconds();
    }
    D.Solved = true;
    D.Sat = Decided.Sat;
    D.Attempts = Decided.Attempts;
    D.Backend = Ctx.Host->backendName();
    if (Telemetry::enabled())
      MetricsRegistry::global()
          .histogram("solver.latency_seconds")
          .record(D.SolveSeconds);
    if (D.Sat == SatResult::Sat && Policy.WitnessOnSat &&
        Options.CollectWitnesses)
      D.WitnessFailed = witness(W, C, D) != SatResult::Sat;
  }

  /// The canonical witness, however the verdict was reached: encode the
  /// query sliced into a fresh builder through a fresh encoder on the
  /// window's shared encoding (no cf folding, no encoder counters), solve
  /// it one-shot, extend the cone model to the whole window by gap
  /// placement (docs/ENCODER.md) and validate the order. A fresh builder
  /// because the simplifier canonicalizes And/Or children by node
  /// reference, so a shared builder's numbering would reshape the model.
  /// Leaves \p D's witness empty unless the solve is Sat. Tallied as
  /// solver.witness_resolves, not as a decision: solver_calls is
  /// mode-invariant.
  SatResult witness(WindowContext &W, const Candidate &C, Decision &D) const {
    // The window's encoding is built (on first use) outside the phase.
    std::shared_ptr<const WindowEncoding> Shared =
        W.encoder().sharedWindowEncoding();
    ScopedPhaseTimer WitnessPhase("witness");
    Timer WitnessClock;
    EncoderOptions Opts;
    Opts.SubstituteRaceVars = Policy.Encoding.SubstituteRaceVars;
    Opts.Counters = false;
    RaceEncoder Encoder(std::move(Shared), Opts);
    FormulaBuilder FB;
    ConeInfo Cone;
    EncodeStats Stats;
    Stats.Cone = &Cone;
    NodeRef Root = Policy.encode(Encoder, FB, C, &Stats);
    std::unique_ptr<SmtSolver> Solver = createSolverByName(Options.SolverName);
    if (!Solver)
      Solver = createIdlSolver();
    if (Telemetry::enabled())
      MetricsRegistry::global().counter("solver.witness_resolves").inc();
    OrderModel Model;
    SatResult Sat = Solver->solve(
        FB, Root, Deadline::after(Options.PerCopBudgetSeconds), &Model);
    if (Sat == SatResult::Sat) {
      const bool Merged =
          Policy.FirstLeadsSecond && Policy.Encoding.SubstituteRaceVars;
      D.Witness = placeByGaps(Encoder.windowEncoding(), Cone.Events, Model,
                              Merged ? C.First : InvalidEvent,
                              Merged ? C.Second : InvalidEvent);
      D.WitnessValid = Policy.checkWitness(W, C, D.Witness);
    }
    D.WitnessSeconds = WitnessClock.seconds();
    return Sat;
  }

  /// Folds one decided candidate into the run, in candidate order.
  void account(const Candidate &C, Decision &D) {
    const bool Short = C.How == Candidate::Verdict::ShortCircuit;
    const char *Outcome = outcomeOf(D.Sat);
    if (Short && !Options.CollectWitnesses) {
      D.Sat = SatResult::Sat; // no witness to derive: the WCP verdict stands
      Outcome = "race";
    }
    const char *Stage =
        Short && D.Sat == SatResult::Sat ? "wcp" : stageForOutcome(Outcome);
    if (Short) {
      ++Out.Stats.WcpShortCircuits;
      if (D.Sat == SatResult::Sat)
        ++Out.Stats.WcpRaces;
    } else {
      ++Out.Stats.SolverCalls;
      if (Policy.WcpResidue)
        ++Out.Stats.WcpResidue;
      // --check-tiers: WCP claimed a race the full pipeline refutes — the
      // windowed over-report weak soundness permits beyond the first
      // race. Counted here, surfaced as an error by the front end.
      if (Options.CheckTiers && C.WcpClaimsRace && D.Sat == SatResult::Unsat)
        ++Out.Stats.WcpMismatches;
      emitSolveEvent(C, Outcome, D);
    }
    if (D.Sat == SatResult::Unknown) {
      ++Out.Stats.SolverTimeouts;
      parkUnknown(C, D.Attempts);
    }
    if (D.WitnessFailed && Telemetry::enabled())
      MetricsRegistry::global().counter("solver.witness_failures").inc();
    emitCopEvent(C, Outcome, Stage, Short ? nullptr : &D);
    recordCopCost(C, Outcome, D);
    if (D.Sat == SatResult::Sat)
      reportFinding(C, std::move(D.Witness), D.WitnessValid);
  }

  void rejected(const Candidate &C, const char *Stage) {
    if (std::strcmp(Stage, "wcp") == 0)
      ++Out.Stats.WcpPruned;
    emitCopEvent(C, rejectOutcome(Stage), Stage);
  }

  void reportFinding(const Candidate &C, std::vector<EventId> Witness,
                     bool WitnessValid) {
    Policy.report(C, std::move(Witness), WitnessValid);
    Seen.insert(C.Sig);
    // A signature provisionally parked in the unknown section (an earlier
    // candidate ran out of budget) has now been decided: the finding
    // supersedes the maybe-entry.
    if (!UnknownSigs.erase(C.Sig))
      return;
    auto It = std::find(UnknownSigList.begin(), UnknownSigList.end(), C.Sig);
    Out.Unknowns.erase(Out.Unknowns.begin() + (It - UnknownSigList.begin()));
    UnknownSigList.erase(It);
  }

  /// Parks an undecided candidate in the unknown section (one entry per
  /// signature, first candidate seen) — never among the findings, so
  /// degradation keeps the report sound.
  void parkUnknown(const Candidate &C, uint32_t Attempts) {
    if (!UnknownSigs.insert(C.Sig).second)
      return;
    UnknownReport U = describe(C.First, C.Second);
    U.Attempts = Attempts;
    UnknownSigList.push_back(C.Sig);
    Out.Unknowns.push_back(std::move(U));
  }

  /// Display names of a defining pair; a pair of lock requests names no
  /// variable.
  UnknownReport describe(EventId First, EventId Second) const {
    UnknownReport U;
    U.First = First;
    U.Second = Second;
    U.LocFirst = T.locName(T[First].Loc);
    U.LocSecond = T.locName(T[Second].Loc);
    if (T[First].isAccess())
      U.Variable = T.varName(T[First].Target);
    return U;
  }

  void absorbHostStats(const ResilienceStats &S) {
    Out.Stats.SolverRetries += S.Retries;
    Out.Stats.DegradedSessions += S.DegradedSessions;
    BackendFallbacks += S.BackendFallbacks;
  }

public:
  // ----------------------------------------------------- checkpointing

  /// Serializes everything the run accumulates across windows
  /// (docs/ROBUSTNESS.md). Only event ids, counters and signatures are
  /// stored; display strings are re-derived from the trace on restore, so
  /// the payload stays small and cannot drift from the trace (the store's
  /// fingerprint pins trace and flags).
  std::string serializeState() const {
    const DetectionStats &S = Out.Stats;
    std::string Payload = "stats";
    for (uint64_t V : {S.Windows, S.Cops, S.QcPassed, S.CopsPrunedStatic,
                       S.SolverCalls, S.SolverTimeouts, S.SolverRetries,
                       S.DegradedSessions})
      Payload += formatString(" %llu", static_cast<unsigned long long>(V));
    Payload += "\ntallies";
    for (uint64_t V :
         {QcHits, QcMisses, SigPruned, SpeculativeSolves, BackendFallbacks,
          S.WcpRaces, S.WcpPruned, S.WcpResidue, S.WcpShortCircuits,
          S.WcpMismatches})
      Payload += formatString(" %llu", static_cast<unsigned long long>(V));
    Payload += "\nvalues";
    for (Value V : Values)
      Payload += formatString(" %lld", static_cast<long long>(V));
    Payload += "\n";
    appendKeySet(Payload, "seen", Seen);
    appendKeySet(Payload, "qcsig", QcSignatures);
    for (size_t I = 0; I < Policy.numFindings(); ++I)
      Payload += Policy.checkpointLine(I) + "\n";
    for (size_t I = 0; I < Out.Unknowns.size(); ++I) {
      const UnknownReport &U = Out.Unknowns[I];
      Payload += formatString(
          "unknown %llu %llu %u %llx\n",
          static_cast<unsigned long long>(U.First),
          static_cast<unsigned long long>(U.Second),
          static_cast<unsigned>(U.Attempts),
          static_cast<unsigned long long>(UnknownSigList[I]));
    }
    return Payload;
  }

  static void appendKeySet(std::string &Out, const char *Tag,
                           const std::unordered_set<uint64_t> &Set) {
    // Sorted so the same state always serializes to the same bytes.
    std::vector<uint64_t> Keys(Set.begin(), Set.end());
    std::sort(Keys.begin(), Keys.end());
    Out += Tag;
    for (uint64_t K : Keys)
      Out += formatString(" %llx", static_cast<unsigned long long>(K));
    Out += "\n";
  }

  /// Inverse of serializeState; the restored windows count as resumed.
  /// All-or-nothing: any malformed or out-of-range field rejects the
  /// snapshot (the run then starts from scratch, which is always sound —
  /// checkpoints only save time).
  bool restoreState(const std::string &Payload) {
    auto parseEvent = [&](std::string_view S, EventId &Id) {
      uint64_t V = 0;
      if (!parseU64(S, V) || V >= T.size())
        return false;
      Id = static_cast<EventId>(V);
      return true;
    };
    uint64_t S[8] = {0}, Tally[10] = {0};
    std::vector<Value> NewValues;
    std::unordered_set<uint64_t> NewSeen, NewQc, NewUnkSet;
    std::vector<uint64_t> NewUnkList;
    std::vector<UnknownReport> NewUnknowns;
    std::vector<std::string> NewFindings;
    bool SawStats = false, SawTallies = false, SawValues = false;

    for (std::string_view Line : split(Payload, '\n')) {
      Line = trim(Line);
      if (Line.empty())
        continue;
      std::vector<std::string_view> F = split(Line, ' ');
      if (F[0] == "stats" || F[0] == "tallies") {
        bool IsStats = F[0] == "stats";
        uint64_t *Dst = IsStats ? S : Tally;
        size_t N = IsStats ? std::size(S) : std::size(Tally);
        if (F.size() != N + 1)
          return false;
        for (size_t I = 0; I < N; ++I)
          if (!parseU64(F[I + 1], Dst[I]))
            return false;
        (IsStats ? SawStats : SawTallies) = true;
      } else if (F[0] == "values") {
        for (size_t I = 1; I < F.size(); ++I) {
          int64_t V = 0;
          if (!parseInt(F[I], V))
            return false;
          NewValues.push_back(static_cast<Value>(V));
        }
        SawValues = true;
      } else if (F[0] == "seen" || F[0] == "qcsig") {
        auto &Set = F[0] == "seen" ? NewSeen : NewQc;
        for (size_t I = 1; I < F.size(); ++I) {
          uint64_t K = 0;
          if (!parseHex(F[I], K))
            return false;
          Set.insert(K);
        }
      } else if (F[0] == "unknown") {
        EventId First = InvalidEvent, Second = InvalidEvent;
        uint64_t Attempts = 0, Sig = 0;
        if (F.size() != 5 || !parseEvent(F[1], First) ||
            !parseEvent(F[2], Second) || !parseU64(F[3], Attempts) ||
            Attempts == 0 || !parseHex(F[4], Sig) ||
            !NewUnkSet.insert(Sig).second)
          return false;
        NewUnknowns.push_back(describe(First, Second));
        NewUnknowns.back().Attempts = static_cast<uint32_t>(Attempts);
        NewUnkList.push_back(Sig);
      } else {
        NewFindings.emplace_back(Line); // the policy validates these
      }
    }
    if (!SawStats || !SawTallies || !SawValues ||
        NewValues.size() > T.numVars() ||
        !Policy.restoreFindings(NewFindings))
      return false;
    DetectionStats &St = Out.Stats;
    St.Windows = S[0];
    St.Cops = S[1];
    St.QcPassed = S[2];
    St.CopsPrunedStatic = S[3];
    St.SolverCalls = S[4];
    St.SolverTimeouts = S[5];
    St.SolverRetries = S[6];
    St.DegradedSessions = S[7];
    QcHits = Tally[0];
    QcMisses = Tally[1];
    SigPruned = Tally[2];
    SpeculativeSolves = Tally[3];
    BackendFallbacks = Tally[4];
    St.WcpRaces = Tally[5];
    St.WcpPruned = Tally[6];
    St.WcpResidue = Tally[7];
    St.WcpShortCircuits = Tally[8];
    St.WcpMismatches = Tally[9];
    Values = std::move(NewValues);
    Seen = std::move(NewSeen);
    QcSignatures = std::move(NewQc);
    UnknownSigs = std::move(NewUnkSet);
    UnknownSigList = std::move(NewUnkList);
    Out.Unknowns = std::move(NewUnknowns);
    St.UnknownCops = Out.Unknowns.size();
    ResumedWindows = St.Windows;
    return true;
  }

private:
  // ------------------------------------------------------- telemetry

  /// The run's one flush into the process-wide registry: the same
  /// counters for every property, so disabled telemetry costs nothing on
  /// the hot path.
  void flushTelemetry() {
    const DetectionStats &S = Out.Stats;
    MetricsRegistry &Reg = MetricsRegistry::global();
    Reg.counter("detect.windows").add(S.Windows);
    Reg.counter("detect.cops").add(S.Cops);
    Reg.counter("detect.qc_hits").add(QcHits);
    Reg.counter("detect.qc_misses").add(QcMisses);
    Reg.counter("detect.qc_passed_signatures").add(S.QcPassed);
    Reg.counter("detect.signature_pruned").add(SigPruned);
    Reg.counter("analysis.cops_pruned_static").add(S.CopsPrunedStatic);
    Reg.counter(Policy.FindingsCounter).add(Policy.numFindings());
    Reg.counter("solver.calls").add(S.SolverCalls);
    Reg.counter("solver.timeouts").add(S.SolverTimeouts);
    Reg.counter("solver.retries").add(S.SolverRetries);
    Reg.counter("solver.degraded_sessions").add(S.DegradedSessions);
    Reg.counter("solver.backend_fallbacks").add(BackendFallbacks);
    Reg.counter("detect.unknown_cops").add(S.UnknownCops);
    Reg.counter("detect.resumed_windows").add(ResumedWindows);
    Reg.counter("detect.speculative_solves").add(SpeculativeSolves);
    if (Policy.WcpTier) {
      Reg.counter("wcp.races").add(S.WcpRaces);
      Reg.counter("wcp.pruned_cops").add(S.WcpPruned);
      Reg.counter("wcp.residue_cops").add(S.WcpResidue);
      Reg.counter("wcp.check_mismatches").add(S.WcpMismatches);
    }
    Reg.gauge("detect.jobs").set(S.Jobs);
    // Memory gauges: the accounted pools plus process RSS. Trace storage
    // is owned outside the detectors, so its gauge is set directly from
    // the (immutable) event array instead of through a MemCharge.
    MemStats::publishGauges(Reg);
    double TraceBytes =
        static_cast<double>(T.size()) * static_cast<double>(sizeof(Event));
    Reg.gauge("mem.trace_bytes").set(TraceBytes);
    Reg.gauge("mem.trace_peak_bytes").set(TraceBytes);
  }

  /// Formula-size accounting after one encode: total nodes, difference
  /// atoms, distinct cf boolean variables, and order variables reachable
  /// from the root. Only the nodes this query added to the builder count
  /// (\p NodesBefore), so with the window's shared builder
  /// encoder.nodes measures real encoding work, not re-reads of shared
  /// structure.
  static void recordFormulaMetrics(const FormulaBuilder &FB,
                                   size_t NodesBefore, NodeRef Root) {
    uint64_t Atoms = 0;
    std::unordered_set<uint32_t> BoolIds;
    for (size_t I = NodesBefore; I < FB.numNodes(); ++I) {
      const FormulaNode &N = FB.node(static_cast<NodeRef>(I));
      if (N.Kind == FormulaKind::Atom)
        ++Atoms;
      else if (N.Kind == FormulaKind::BoolVar)
        BoolIds.insert(N.VarA);
    }
    MetricsRegistry &Reg = MetricsRegistry::global();
    Reg.counter("encoder.formulas").inc();
    Reg.counter("encoder.nodes").add(FB.numNodes() - NodesBefore);
    Reg.counter("encoder.difference_atoms").add(Atoms);
    Reg.counter("encoder.bool_vars").add(BoolIds.size());
    Reg.counter("encoder.order_vars").add(FB.collectVars(Root).size());
  }

  static TraceEventSink *activeSink() {
    return Telemetry::enabled() ? Telemetry::instance().sink() : nullptr;
  }

  /// One cop trace event: the prune provenance (which stage decided the
  /// candidate) plus, for a solver decision \p Solved, the formula size,
  /// the encode/solve/witness split, the formula-arena delta and the
  /// escalation attempts.
  void emitCopEvent(const Candidate &C, const char *Outcome,
                    const char *Stage,
                    const Decision *Solved = nullptr) const {
    TraceEventSink *Sink = activeSink();
    if (!Sink)
      return;
    UnknownReport Names = describe(C.First, C.Second);
    JsonObject O;
    O.field("type", "cop")
        .field("window", Out.Stats.Windows - 1)
        .field("first", static_cast<uint64_t>(C.First))
        .field("second", static_cast<uint64_t>(C.Second))
        .field("loc_first", Names.LocFirst)
        .field("loc_second", Names.LocSecond)
        .field("variable", Names.Variable)
        .field("outcome", Outcome)
        .field("stage", Stage);
    if (Solved)
      O.field("formula_nodes", Solved->FormulaNodes)
          .field("difference_atoms", Solved->DifferenceAtoms)
          .field("order_vars", Solved->OrderVars)
          .field("solve_seconds", Solved->SolveSeconds)
          .field("encode_seconds", Solved->EncodeSeconds)
          .field("witness_seconds", Solved->WitnessSeconds)
          .field("mem_delta_bytes", Solved->MemDeltaBytes)
          .field("attempts", static_cast<uint64_t>(Solved->Attempts))
          .field("cone_events", Solved->ConeEvents);
    Sink->write(O);
  }

  void emitSolveEvent(const Candidate &C, const char *Outcome,
                      const Decision &D) const {
    TraceEventSink *Sink = activeSink();
    if (!Sink)
      return;
    JsonObject O;
    O.field("type", "solve")
        .field("window", Out.Stats.Windows - 1)
        .field("first", static_cast<uint64_t>(C.First))
        .field("second", static_cast<uint64_t>(C.Second))
        .field("solver", D.Backend)
        .field("outcome", Outcome)
        .field("seconds", D.SolveSeconds);
    Sink->write(O);
  }

  /// Feeds one decided candidate into the run's cost ledger
  /// (telemetry-gated; called only in candidate order on the main thread,
  /// so the ledger needs no lock).
  void recordCopCost(const Candidate &C, const char *Outcome,
                     const Decision &D) {
    if (!Telemetry::enabled())
      return;
    UnknownReport Names = describe(C.First, C.Second);
    CopCost Cost;
    Cost.Window = Out.Stats.Windows - 1;
    Cost.LocFirst = std::move(Names.LocFirst);
    Cost.LocSecond = std::move(Names.LocSecond);
    Cost.Variable = std::move(Names.Variable);
    Cost.Outcome = Outcome;
    Cost.EncodeSeconds = D.EncodeSeconds;
    Cost.SolveSeconds = D.SolveSeconds;
    Cost.WitnessSeconds = D.WitnessSeconds;
    Cost.MemDeltaBytes = D.MemDeltaBytes;
    Cost.Attempts = D.Solved ? D.Attempts : 0;
    Cost.ConeEvents = D.ConeEvents;
    Out.Stats.TopCosts.recordCop(std::move(Cost));
  }

  const Trace &T;
  const DetectorOptions &Options;
  QueryPolicy &Policy;
  DriverOutput Out;
  /// Worker pool for deciding ahead; null with one job.
  std::unique_ptr<ThreadPool> Pool;
  std::vector<Value> Values;
  /// Signatures of the findings so far (signature pruning).
  std::unordered_set<uint64_t> Seen;
  /// Distinct signatures past the quick check (QueryPolicy::QcBySignature).
  std::unordered_set<uint64_t> QcSignatures;
  /// Signatures parked in Out.Unknowns, plus the list aligned with it.
  std::unordered_set<uint64_t> UnknownSigs;
  std::vector<uint64_t> UnknownSigList;
  /// Windows a checkpoint-directory snapshot covered
  /// (detect.resumed_windows).
  uint64_t ResumedWindows = 0;
  /// Plain tallies on the hot path, flushed into the registry once per run.
  uint64_t QcHits = 0;
  uint64_t QcMisses = 0;
  uint64_t SigPruned = 0;
  /// Decisions made ahead (jobs > 1) for candidates an earlier finding of
  /// the same window made redundant; discarded so stats match one job.
  uint64_t SpeculativeSolves = 0;
  /// Backend factory failures absorbed by falling back to idl.
  uint64_t BackendFallbacks = 0;
};

} // namespace rvp

std::string rvp::findingLine(const char *Tag,
                             std::initializer_list<EventId> Events,
                             bool WitnessValid,
                             const std::vector<EventId> &Witness) {
  std::string Line = Tag;
  for (EventId Id : Events)
    Line += ' ' + std::to_string(Id);
  Line += WitnessValid ? " 1" : " 0";
  for (EventId Id : Witness)
    Line += ' ' + std::to_string(Id);
  return Line;
}

bool rvp::parseFindingLine(const Trace &T, std::string_view Line,
                           const char *Tag, size_t NumEvents,
                           std::vector<EventId> &Events, bool &WitnessValid,
                           std::vector<EventId> &Witness) {
  std::vector<std::string_view> F = split(Line, ' ');
  if (F.size() < NumEvents + 2 || F[0] != Tag)
    return false;
  Events.clear();
  Witness.clear();
  for (size_t I = 1; I < F.size(); ++I) {
    uint64_t V = 0;
    if (!parseU64(F[I], V))
      return false;
    if (I == NumEvents + 1) {
      if (V > 1)
        return false;
      WitnessValid = V != 0;
      continue;
    }
    if (V >= T.size())
      return false;
    (I <= NumEvents ? Events : Witness).push_back(static_cast<EventId>(V));
  }
  return true;
}

WindowDriver::WindowDriver(const Trace &T, const DetectorOptions &Options,
                           QueryPolicy &Policy)
    : P(std::make_unique<Impl>(T, Options, Policy)) {}

WindowDriver::~WindowDriver() = default;

void WindowDriver::analyze(Span Window, bool Degraded) {
  P->analyze(Window, Degraded);
}

const DriverOutput &WindowDriver::output() const { return P->output(); }

std::string WindowDriver::saveState() const { return P->serializeState(); }

bool WindowDriver::resume(const std::string &Payload) {
  return P->restoreState(Payload);
}

DriverOutput WindowDriver::finish() { return P->finish(); }

DriverOutput rvp::runWindowDriver(const Trace &T,
                                  const DetectorOptions &Options,
                                  QueryPolicy &Policy) {
  WindowDriver Driver(T, Options, Policy);
  // Resume: with --checkpoint, reload everything accumulated up to the
  // last completed window and continue after it. The store's fingerprint
  // pins trace and flags, so the continued run is byte-identical to an
  // uninterrupted one (docs/ROBUSTNESS.md).
  CheckpointStore Ckpt(Options.CheckpointDir, Options.CheckpointFingerprint);
  uint64_t SkipWindows = 0;
  if (Ckpt.enabled()) {
    std::string Payload;
    CheckpointLoad Outcome = CheckpointLoad::None;
    int64_t Last = Ckpt.loadLatest(Payload, &Outcome);
    if (Outcome == CheckpointLoad::FingerprintMismatch)
      CheckpointStore::refuseMismatch(Ckpt);
    if (Last >= 0 && Driver.resume(Payload))
      SkipWindows = static_cast<uint64_t>(Last) + 1;
  }
  {
    ScopedPhaseTimer DetectPhase(Policy.Phase);
    uint64_t Index = 0;
    for (Span Window : splitWindows(T, Options.WindowSize)) {
      if (Index++ < SkipWindows)
        continue;
      Driver.analyze(Window);
      if (!Ckpt.enabled())
        continue;
      Ckpt.save(Index - 1, Driver.saveState());
      if (ProfileCollector *P = ProfileCollector::active())
        P->instant("checkpoint-save", "resilience");
      // Deterministic kill point for the resume tests: dies exactly at a
      // window barrier, after the snapshot is durable.
      if (FaultInjector::shouldFail(faults::DetectAbort))
        std::_Exit(ExitInternal);
    }
  }
  return Driver.finish();
}
