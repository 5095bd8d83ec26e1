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

/// Marks on the calling thread's Perfetto track what one decision cost the
/// resilience layer: the delta of its host's stats from \p Before.
void markResilience(const ResilienceStats &Before,
                    const ResilienceStats &After) {
  ProfileCollector *P = Telemetry::instance().profiler();
  if (!P)
    return;
  for (uint64_t I = Before.Retries; I < After.Retries; ++I)
    P->instant("solver-retry", "resilience");
  for (uint64_t I = Before.DegradedSessions; I < After.DegradedSessions; ++I)
    P->instant("session-quarantine", "resilience");
  for (uint64_t I = Before.BackendFallbacks; I < After.BackendFallbacks; ++I)
    P->instant("backend-fallback", "resilience");
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

/// Measures the formula one query added to its builder since
/// \p NodesBefore, in one pass over the new nodes: with the window's shared
/// builder this is the query's own encoding work, not re-reads of shared
/// structure.
void measureFormula(const FormulaBuilder &FB, size_t NodesBefore,
                    NodeRef Root, CopCost &Record) {
  Record.FormulaNodes = FB.numNodes() - NodesBefore;
  std::unordered_set<uint32_t> BoolIds;
  for (size_t I = NodesBefore; I < FB.numNodes(); ++I) {
    const FormulaNode &N = FB.node(static_cast<NodeRef>(I));
    if (N.Kind == FormulaKind::Atom)
      ++Record.DifferenceAtoms;
    else if (N.Kind == FormulaKind::BoolVar)
      BoolIds.insert(N.VarA);
  }
  Record.BoolVars = BoolIds.size();
  Record.OrderVars = FB.collectVars(Root).size();
}

/// What deciding one candidate produced: on demand in the collect loop
/// (one job) or ahead of it on a pool worker (jobs > 1). Nothing is
/// counted where it is produced; the collect loop folds it into the run.
struct Decision {
  SatResult Sat = SatResult::Unknown;
  const char *Backend = "none";
  /// The decision-path encode (Cost.Solved only).
  EncodeStats Encode;
  /// The COP's record, Solved when it went through a SolveHost (a WCP
  /// short-circuit does not); the collect loop names it.
  CopCost Cost;
  std::vector<EventId> Witness;
  bool WitnessValid = false;
  /// A witness solve ran, and its work.
  bool WitnessResolved = false;
  SolveWork WitnessWork;
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
    // The run's seconds (the report header) are measured whether or not
    // telemetry is on, so they have a timer of their own.
    Timer Elapsed;
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
    Out.Stats.Seconds += Elapsed.seconds();
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
    // The window's one record, rendered as its trace event, its ledger
    // entry and the Perfetto counter samples of the run so far; its
    // seconds are the window phase's own.
    WindowCost Record{.Index = Out.Stats.Windows - 1,
                      .Begin = Window.Begin,
                      .End = Window.End};
    uint64_t SolvesBefore = Out.Stats.SolverCalls;
    {
      ScopedPhaseTimer WindowPhase("window", &Record.Seconds);
      WindowContext W(T, Window, Values, Policy.Encoding, Degraded);
      std::vector<Candidate> Cands;
      Policy.enumerate(W, Cands);
      tally(Cands);
      collect(W, Cands);
      Record.Cops = Cands.size();
    }
    Record.Solves = Out.Stats.SolverCalls - SolvesBefore;
    if (TraceEventSink *Sink = Telemetry::instance().sink()) {
      JsonObject O;
      O.field("type", "window")
          .field("index", static_cast<uint64_t>(Record.Index))
          .field("begin", Record.Begin)
          .field("end", Record.End)
          .field("cops", static_cast<uint64_t>(Record.Cops))
          .field("seconds", Record.Seconds);
      Sink->write(O);
    }
    if (Telemetry::enabled())
      Out.Stats.TopCosts.recordWindow(Record);
    // Live counter tracks, sampled once per window barrier — enough
    // resolution to see trends in Perfetto without bloating the trace.
    if (ProfileCollector *P = Telemetry::instance().profiler()) {
      P->counter("cops", static_cast<double>(Out.Stats.Cops));
      P->counter("races", static_cast<double>(Policy.numFindings()));
      P->counter("solver-calls", static_cast<double>(Out.Stats.SolverCalls));
      P->counter("mem.formula_dag_bytes",
                 static_cast<double>(MemStats::current(MemPool::FormulaDag)));
      P->counter("mem.rss_bytes",
                 static_cast<double>(MemStats::currentRssBytes()));
    }
  }

  /// Window-start accounting: every enumerated candidate is a COP of
  /// Table 1, and every one the static pruner left is quick-checked.
  void tally(const std::vector<Candidate> &Cands) {
    Out.Stats.Cops += Cands.size();
    for (const Candidate &C : Cands) {
      if (C.Pruned != CopPruner::Rule::None) {
        ++Out.Stats.CopsPrunedStatic;
        Out.Stats.PrunedStaticMhb += C.Pruned == CopPruner::Rule::Mhb;
        continue;
      }
      if (!C.QcPass) {
        ++Out.Stats.QcMisses;
        continue;
      }
      ++Out.Stats.QcHits;
      QcSignatures.insert(C.Sig);
    }
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
    std::vector<SolveCtx> Contexts(Pool ? Pool->numWorkers() : 1);
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
        ++Out.Stats.SignaturePruned; // signature pruning (Section 4)
        if (Pool) {
          // Decided ahead and discarded: its work still counts.
          if (Ahead[I].Cost.Solved)
            ++Out.Stats.SpeculativeSolves;
          foldWork(Ahead[I]);
        }
        emitCop(C, "pruned", "signature");
        continue;
      }
      if (C.Reject) {
        rejected(C, C.Reject);
        continue;
      }
      switch (C.How) {
      case Candidate::Verdict::Ordered:
        emitCop(C, "ordered", "ordered");
        break;
      case Candidate::Verdict::Racy:
        emitCop(C, "race", "none");
        reportFinding(C, {}, false);
        break;
      case Candidate::Verdict::WcpRacy:
        ++Out.Stats.WcpRaces;
        emitCop(C, "race", "wcp");
        reportFinding(C, {}, false);
        break;
      case Candidate::Verdict::Solve:
      case Candidate::Verdict::ShortCircuit: {
        Decision D;
        if (Pool)
          D = std::move(Ahead[I]);
        else
          decide(W, C, Contexts.front(), D);
        account(C, D);
        break;
      }
      }
    }
    for (const SolveCtx &Ctx : Contexts)
      if (Ctx.Host)
        absorbHost(*Ctx.Host);
  }

  /// Jobs > 1: decides every candidate that survives the window-start
  /// filters as an independent task — own builder and host per runner
  /// slot, read-only window state. The collect loop then accepts or
  /// discards the results in candidate order, so reports and stats match
  /// one job.
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
    Pool->parallelFor(0, Todo.size(), [&](size_t K, unsigned Slot) {
      std::optional<ThreadPhaseScope> PhaseScope;
      if (Observing)
        PhaseScope.emplace(&WorkerTrees[Slot]);
      decide(W, Cands[Todo[K]], Contexts[Slot], Ahead[Todo[K]]);
    });
    if (Observing) {
      // The main thread is inside the "window" phase here, so the merge
      // nests each worker's encode/solve/witness times under it.
      PhaseTree &Main = Telemetry::instance().phases();
      for (const PhaseTree &Tree : WorkerTrees)
        Main.absorb(Tree);
    }
  }

  /// Decides one candidate. Touches only immutable window state, \p Ctx
  /// and \p D, so it can run on any worker.
  void decide(WindowContext &W, const Candidate &C, SolveCtx &Ctx,
              Decision &D) const {
    if (C.How == Candidate::Verdict::ShortCircuit) {
      // The WCP tier proved the pair racy: no decision-path encode, no
      // session solve. With witnesses on, the witness solve the Smt tier
      // runs for the same pair is the verdict, so every outcome matches
      // the Smt tier byte for byte; with witnesses off the WCP verdict
      // stands (the vc-tier semantics; the WcpCrossCheck test checks it
      // against the solver).
      if (Options.CollectWitnesses)
        D.Sat = witness(W, C, D);
      return;
    }

    const RaceEncoder &Encoder = W.encoder();
    if (!Ctx.Host)
      Ctx.Host = std::make_unique<SolveHost>(Options.SolverName,
                                             Options.PerCopBudgetSeconds,
                                             Options.RetryBudgets);
    // One builder per window (per worker), so shared subformulas are
    // hash-consed once and the session's learned clauses stay meaningful.
    FormulaBuilder &FB = Ctx.FB;
    CopCost &Cost = D.Cost;
    size_t NodesBefore = FB.numNodes();
    NodeRef Root;
    {
      ScopedPhaseTimer EncodePhase("encode", &Cost.EncodeSeconds);
      Root = Policy.encode(Encoder, FB, C, &D.Encode);
    }
    Cost.ConeEvents = D.Encode.ConeEvents;
    Cost.MemDeltaBytes = (FB.numNodes() - NodesBefore) * sizeof(FormulaNode);
    if (Telemetry::enabled())
      measureFormula(FB, NodesBefore, Root, Cost);

    SolveHost::Outcome Decided;
    const ResilienceStats Before = Ctx.Host->stats();
    {
      ScopedPhaseTimer SolvePhase("solve", &Cost.SolveSeconds);
      Decided = Ctx.Host->decide(FB, Root);
    }
    markResilience(Before, Ctx.Host->stats());
    Cost.Solved = true;
    Cost.Attempts = Decided.Attempts;
    D.Sat = Decided.Sat;
    D.Backend = Ctx.Host->backendName();
    if (D.Sat == SatResult::Sat && Policy.WitnessOnSat &&
        Options.CollectWitnesses)
      D.WitnessFailed = witness(W, C, D) != SatResult::Sat;
  }

  /// The canonical witness, however the verdict was reached: encode the
  /// query sliced into a fresh builder through a fresh encoder on the
  /// window's shared encoding (no cf folding, never counted), solve
  /// it one-shot, extend the cone model to the whole window by gap
  /// placement (docs/ENCODER.md) and validate the order. A fresh builder
  /// because the simplifier canonicalizes And/Or children by node
  /// reference, so a shared builder's numbering would reshape the model.
  /// Leaves \p D's witness empty unless the solve is Sat. Counted as a
  /// witness resolve, not as a decision: solver_calls is mode-invariant.
  SatResult witness(WindowContext &W, const Candidate &C, Decision &D) const {
    // The window's encoding is built (on first use) outside the phase.
    std::shared_ptr<const WindowEncoding> Shared =
        W.encoder().sharedWindowEncoding();
    ScopedPhaseTimer WitnessPhase("witness", &D.Cost.WitnessSeconds);
    EncoderOptions Opts;
    Opts.SubstituteRaceVars = Policy.Encoding.SubstituteRaceVars;
    RaceEncoder Encoder(std::move(Shared), Opts);
    FormulaBuilder FB;
    ConeInfo Cone;
    EncodeStats Stats;
    Stats.Cone = &Cone;
    NodeRef Root = Policy.encode(Encoder, FB, C, &Stats);
    std::unique_ptr<SmtSolver> Solver = createSolverByName(Options.SolverName);
    if (!Solver)
      Solver = createIdlSolver();
    D.WitnessResolved = true;
    OrderModel Model;
    SatResult Sat =
        Solver->solve(FB, Root, Deadline::after(Options.PerCopBudgetSeconds),
                      &Model, &D.WitnessWork);
    if (Sat == SatResult::Sat) {
      D.Witness = placeByGaps(Encoder.windowEncoding(), Cone.Events, Model,
                              Cone.MergedFirst, Cone.MergedSecond);
      D.WitnessValid = Policy.checkWitness(W, C, D.Witness);
    }
    return Sat;
  }

  /// Folds a decision's encode and witness work into the run: every
  /// decision made, including decided-ahead ones signature pruning
  /// discards, so the encoder and solver counts match the work done.
  void foldWork(const Decision &D) {
    DetectionStats &S = Out.Stats;
    S.WitnessResolves += D.WitnessResolved;
    foldSolveWork(D.WitnessWork);
    const CopCost &Cost = D.Cost;
    if (!Cost.Solved)
      return;
    if (Telemetry::enabled())
      MetricsRegistry::global()
          .histogram("solver.latency_seconds")
          .record(Cost.SolveSeconds);
    const EncodeStats &E = D.Encode;
    ++S.Formulas;
    S.FormulaNodes += Cost.FormulaNodes;
    S.DifferenceAtoms += Cost.DifferenceAtoms;
    S.BoolVars += Cost.BoolVars;
    S.OrderVars += Cost.OrderVars;
    S.GuardedFormulas += E.Guarded;
    S.BranchConstraints += E.BranchConstraints;
    S.ReadConsistency += E.ReadConsistency;
    S.CfDefs += E.CfDefs;
    S.ConeEvents += E.ConeEvents;
    S.SlicedAtoms += E.SlicedAtoms;
    S.SkeletonCacheHits += E.CacheHit;
    S.RangesFolded += E.RangesFolded;
  }

  /// Folds one decided candidate into the run, in candidate order.
  void account(const Candidate &C, Decision &D) {
    foldWork(D);
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
      if (Policy.WcpTier) // a solved candidate is the WCP tier's residue
        ++Out.Stats.WcpResidue;
    }
    if (D.Sat == SatResult::Unknown) {
      ++Out.Stats.SolverTimeouts;
      // A short-circuit's one witness solve is its one attempt.
      parkUnknown(C, std::max(D.Cost.Attempts, 1u));
    }
    Out.Stats.WitnessFailures += D.WitnessFailed;
    if (Telemetry::enabled()) {
      nameCop(D.Cost, C, Outcome, Stage);
      emitCop(D.Cost, D.Backend);
      Out.Stats.TopCosts.recordCop(std::move(D.Cost));
    }
    if (D.Sat == SatResult::Sat)
      reportFinding(C, std::move(D.Witness), D.WitnessValid);
  }

  void rejected(const Candidate &C, const char *Stage) {
    if (std::strcmp(Stage, "wcp") == 0)
      ++Out.Stats.WcpPruned;
    emitCop(C, rejectOutcome(Stage), Stage);
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
    UnknownSigList.push_back(C.Sig);
    describe(Out.Unknowns.emplace_back(), C.First, C.Second);
    Out.Unknowns.back().Attempts = Attempts;
  }

  /// Fills \p Names (an UnknownReport or a CopCost) with a defining
  /// pair and its display names; a pair of lock requests names no
  /// variable.
  template <typename Record>
  void describe(Record &Names, EventId First, EventId Second) const {
    Names.First = First;
    Names.Second = Second;
    Names.LocFirst = T.locName(T[First].Loc);
    Names.LocSecond = T.locName(T[Second].Loc);
    if (T[First].isAccess())
      Names.Variable = T.varName(T[First].Target);
  }

  void absorbHost(const SolveHost &Host) {
    const ResilienceStats &R = Host.stats();
    Out.Stats.SolverRetries += R.Retries;
    Out.Stats.DegradedSessions += R.DegradedSessions;
    Out.Stats.BackendFallbacks += R.BackendFallbacks;
    foldSolveWork(Host.work());
  }

  void foldSolveWork(const SolveWork &W) {
    DetectionStats &S = Out.Stats;
    S.SatSearches += W.Searches;
    S.SatSessionSearches += W.SessionSearches;
    S.SatDecisions += W.Decisions;
    S.SatPropagations += W.Propagations;
    S.SatConflicts += W.Conflicts;
    S.SatRestarts += W.Restarts;
    S.SatAssumptionConflicts += W.AssumptionConflicts;
    S.IncrementalCalls += W.SessionQueries;
    S.Z3Calls += W.Z3Calls;
  }

public:
  // ----------------------------------------------------- checkpointing

  /// Serializes everything the run accumulates across windows
  /// (docs/ROBUSTNESS.md). Only event ids, counters and signatures are
  /// stored; display strings are re-derived from the trace on restore, so
  /// the payload stays small and cannot drift from the trace (the store's
  /// fingerprint pins trace and flags).
  std::string serializeState() const {
    uint64_t Counts[NumSlots] = {};
    for (const StatsField &F : statsFields())
      if (F.Slot >= 0)
        Counts[F.Slot] = Out.Stats.*F.Member;
    std::string Payload;
    const uint64_t *Next = Counts;
    for (const auto &[Tag, Width] : CountLines) {
      Payload += Tag;
      for (size_t I = 0; I < Width; ++I)
        Payload += formatString(" %llu",
                                static_cast<unsigned long long>(*Next++));
      Payload += "\n";
    }
    Payload += "values";
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

  /// The payload lines holding the counted fields' slots
  /// (StatsField::Slot), in slot order, with their widths.
  static constexpr std::pair<std::string_view, size_t> CountLines[] = {
      {"stats", 8}, {"tallies", 9}};
  static constexpr size_t NumSlots =
      CountLines[0].second + CountLines[1].second;

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
    uint64_t Counts[NumSlots] = {};
    bool SawCounts[std::size(CountLines)] = {};
    std::vector<Value> NewValues;
    std::unordered_set<uint64_t> NewSeen, NewQc, NewUnkSet;
    std::vector<uint64_t> NewUnkList;
    std::vector<UnknownReport> NewUnknowns;
    std::vector<std::string> NewFindings;
    bool SawValues = false;

    for (std::string_view Line : split(Payload, '\n')) {
      Line = trim(Line);
      if (Line.empty())
        continue;
      std::vector<std::string_view> F = split(Line, ' ');
      size_t L = 0, Slot = 0;
      while (L < std::size(CountLines) && F[0] != CountLines[L].first)
        Slot += CountLines[L++].second;
      if (L < std::size(CountLines)) {
        if (F.size() != CountLines[L].second + 1)
          return false;
        for (size_t I = 1; I < F.size(); ++I)
          if (!parseU64(F[I], Counts[Slot++]))
            return false;
        SawCounts[L] = true;
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
        describe(NewUnknowns.emplace_back(), First, Second);
        NewUnknowns.back().Attempts = static_cast<uint32_t>(Attempts);
        NewUnkList.push_back(Sig);
      } else {
        NewFindings.emplace_back(Line); // the policy validates these
      }
    }
    if (!std::all_of(std::begin(SawCounts), std::end(SawCounts),
                     [](bool Saw) { return Saw; }) ||
        !SawValues || NewValues.size() > T.numVars() ||
        !Policy.restoreFindings(NewFindings))
      return false;
    DetectionStats &St = Out.Stats;
    for (const StatsField &F : statsFields())
      if (F.Slot >= 0)
        St.*F.Member = Counts[F.Slot];
    Values = std::move(NewValues);
    Seen = std::move(NewSeen);
    QcSignatures = std::move(NewQc);
    UnknownSigs = std::move(NewUnkSet);
    UnknownSigList = std::move(NewUnkList);
    Out.Unknowns = std::move(NewUnknowns);
    St.UnknownCops = Out.Unknowns.size();
    St.ResumedWindows = St.Windows;
    return true;
  }

private:
  // ------------------------------------------------------- telemetry

  /// The run's one flush into the process-wide registry: the counted
  /// fields of the run record (statsFields()), each under its presence
  /// rule, so disabled telemetry costs nothing on the hot path.
  void flushTelemetry() {
    const DetectionStats &S = Out.Stats;
    MetricsRegistry &Reg = MetricsRegistry::global();
    // Whether the run reached the code path of each StatsField::Flush
    // rule but Nonzero, in enum order.
    const bool Reached[] = {true,
                            Policy.WcpTier,
                            S.Formulas > 0,
                            S.GuardedFormulas > 0,
                            S.SatSearches > 0,
                            S.SatSessionSearches > 0};
    for (const StatsField &F : statsFields()) {
      uint64_t Value = S.*F.Member;
      bool Flush = F.When == StatsField::Flush::Nonzero
                       ? Value > 0
                       : Reached[static_cast<size_t>(F.When)];
      if (F.Counter && Flush)
        Reg.counter(F.Counter).add(Value);
    }
    Reg.counter(Policy.FindingsCounter).add(Policy.numFindings());
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

  /// Completes \p Record as \p C's, decided at \p Stage with \p Outcome.
  void nameCop(CopCost &Record, const Candidate &C, const char *Outcome,
               const char *Stage) const {
    describe(Record, C.First, C.Second);
    Record.Window = Out.Stats.Windows - 1;
    Record.Outcome = Outcome;
    Record.Stage = Stage;
  }

  /// The cop trace event of a candidate no solver decided.
  void emitCop(const Candidate &C, const char *Outcome,
               const char *Stage) const {
    if (!Telemetry::instance().sink())
      return;
    CopCost Record;
    nameCop(Record, C, Outcome, Stage);
    emitCop(Record);
  }

  /// One cop trace event: the prune provenance (which stage decided the
  /// candidate) plus, for a solver decision, the backend \p Solver that
  /// answered, the formula size, the encode/solve/witness split, the
  /// formula-arena delta and the escalation attempts.
  void emitCop(const CopCost &R, const char *Solver = nullptr) const {
    TraceEventSink *Sink = Telemetry::instance().sink();
    if (!Sink)
      return;
    JsonObject O;
    O.field("type", "cop")
        .field("window", static_cast<uint64_t>(R.Window))
        .field("first", R.First)
        .field("second", R.Second)
        .field("loc_first", R.LocFirst)
        .field("loc_second", R.LocSecond)
        .field("variable", R.Variable)
        .field("outcome", R.Outcome)
        .field("stage", R.Stage);
    if (R.Solved)
      O.field("solver", Solver)
          .field("formula_nodes", R.FormulaNodes)
          .field("difference_atoms", R.DifferenceAtoms)
          .field("order_vars", R.OrderVars)
          .field("solve_seconds", R.SolveSeconds)
          .field("encode_seconds", R.EncodeSeconds)
          .field("witness_seconds", R.WitnessSeconds)
          .field("mem_delta_bytes", R.MemDeltaBytes)
          .field("attempts", static_cast<uint64_t>(R.Attempts))
          .field("cone_events", R.ConeEvents);
    Sink->write(O);
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
  /// Distinct signatures past the quick check (Table 1's qc_passed).
  std::unordered_set<uint64_t> QcSignatures;
  /// Signatures parked in Out.Unknowns, plus the list aligned with it.
  std::unordered_set<uint64_t> UnknownSigs;
  std::vector<uint64_t> UnknownSigList;
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
      if (ProfileCollector *P = Telemetry::instance().profiler())
        P->instant("checkpoint-save", "resilience");
      // Deterministic kill point for the resume tests: dies exactly at a
      // window barrier, after the snapshot is durable.
      if (FaultInjector::shouldFail(faults::DetectAbort))
        std::_Exit(ExitInternal);
    }
  }
  return Driver.finish();
}
