//===- detect/Detect.cpp - Predictive race detectors -------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Detect.h"

#include "detect/Closure.h"
#include "detect/Lockset.h"
#include "detect/Wcp.h"
#include "detect/WindowDriver.h"
#include "detect/WitnessChecker.h"
#include "support/BuildInfo.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <optional>
#include <unordered_map>

using namespace rvp;

const char *rvp::techniqueName(Technique Tech) {
  switch (Tech) {
  case Technique::Hb:
    return "HB";
  case Technique::Cp:
    return "CP";
  case Technique::Said:
    return "Said";
  case Technique::Maximal:
    return "RV";
  }
  RVP_UNREACHABLE("unknown technique");
}

const char *rvp::tierName(DetectTier Tier) {
  switch (Tier) {
  case DetectTier::Vc:
    return "vc";
  case DetectTier::Smt:
    return "smt";
  case DetectTier::Hybrid:
    return "hybrid";
  }
  RVP_UNREACHABLE("unknown tier");
}

std::string rvp::renderStatsTable(const DetectionStats &Stats,
                                  const char *What) {
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  std::string Out = formatString(
      "windows=%llu cops=%llu pruned_static=%llu qc=%llu solves=%llu "
      "timeouts=%llu jobs=%u\n",
      U(Stats.Windows), U(Stats.Cops), U(Stats.CopsPrunedStatic),
      U(Stats.QcPassed), U(Stats.SolverCalls), U(Stats.SolverTimeouts),
      static_cast<unsigned>(Stats.Jobs));
  // Degradation line only when something degraded, so healthy runs print
  // the classic summary unchanged (docs/ROBUSTNESS.md).
  if (Stats.SolverRetries || Stats.DegradedSessions || Stats.UnknownCops)
    Out += formatString(
        "resilience: retries=%llu degraded_sessions=%llu unknown=%llu\n",
        U(Stats.SolverRetries), U(Stats.DegradedSessions),
        U(Stats.UnknownCops));
  // Tier line only when the WCP tier ran (docs/TIERS.md): --tier=smt runs
  // print the classic summary unchanged.
  if (Stats.WcpRaces || Stats.WcpPruned || Stats.WcpResidue ||
      Stats.WcpShortCircuits)
    Out += formatString(
        "wcp: races=%llu pruned=%llu residue=%llu short_circuits=%llu\n",
        U(Stats.WcpRaces), U(Stats.WcpPruned), U(Stats.WcpResidue),
        U(Stats.WcpShortCircuits));
  if (!Stats.Telemetry.Captured)
    return Out;
  Out += formatString("phases (%s, wall seconds):\n", What);
  Stats.Telemetry.Phases.renderInto(Out);
  if (!Stats.Telemetry.Metrics.empty()) {
    Out += "metrics:\n";
    Out += Stats.Telemetry.Metrics.renderTable();
  }
  Out += Stats.TopCosts.renderTable();
  return Out;
}

std::span<const StatsField> rvp::statsFields() {
  using S = DetectionStats;
  using enum StatsField::Flush;
  static constexpr StatsField Fields[] = {
      {&S::Windows, "detect.windows", Always, 0, "windows"},
      {&S::Cops, "detect.cops", Always, 1, "cops"},
      {&S::CopsPrunedStatic, "analysis.cops_pruned_static", Always, 3,
       "cops_pruned_static"},
      {&S::QcPassed, "detect.qc_passed_signatures", Always, 2, "qc_passed"},
      {&S::SolverCalls, "solver.calls", Always, 4, "solver_calls"},
      {&S::SolverTimeouts, "solver.timeouts", Always, 5, "solver_timeouts"},
      {&S::SolverRetries, "solver.retries", Always, 6, "solver_retries"},
      {&S::DegradedSessions, "solver.degraded_sessions", Always, 7,
       "degraded_sessions"},
      {&S::UnknownCops, "detect.unknown_cops", Always, -1, "unknown_cops"},
      {&S::WcpRaces, "wcp.races", WcpTier, 13, "wcp_races"},
      {&S::WcpPruned, "wcp.pruned_cops", WcpTier, 14, "wcp_pruned_cops"},
      {&S::WcpResidue, "wcp.residue_cops", WcpTier, 15, "wcp_residue_cops"},
      {&S::WcpShortCircuits, nullptr, Always, 16, "solver_calls_saved"},
      {&S::QcHits, "detect.qc_hits", Always, 8},
      {&S::QcMisses, "detect.qc_misses", Always, 9},
      {&S::SignaturePruned, "detect.signature_pruned", Always, 10},
      {&S::SpeculativeSolves, "detect.speculative_solves", Always, 11},
      {&S::BackendFallbacks, "solver.backend_fallbacks", Always, 12},
      {&S::ResumedWindows, "detect.resumed_windows", Always},
      {&S::Formulas, "encoder.formulas", Encoded},
      {&S::FormulaNodes, "encoder.nodes", Encoded},
      {&S::DifferenceAtoms, "encoder.difference_atoms", Encoded},
      {&S::BoolVars, "encoder.bool_vars", Encoded},
      {&S::OrderVars, "encoder.order_vars", Encoded},
      {&S::ConeEvents, "encoder.cone_events", Encoded},
      {&S::SlicedAtoms, "encoder.sliced_atoms", Encoded},
      {&S::BranchConstraints, "encoder.branch_constraints", Guarded},
      {&S::ReadConsistency, "encoder.read_consistency_constraints", Nonzero},
      {&S::CfDefs, "encoder.cf_defs", Nonzero},
      {&S::SkeletonCacheHits, "encoder.skeleton_cache_hits", Nonzero},
      {&S::RangesFolded, "analysis.ranges_folded", Nonzero},
      {&S::WitnessResolves, "solver.witness_resolves", Nonzero},
      {&S::WitnessFailures, "solver.witness_failures", Nonzero},
      {&S::PrunedStaticMhb, "analysis.pruned_static_mhb", Nonzero},
      {&S::SatDecisions, "sat.decisions", Searched},
      {&S::SatPropagations, "sat.propagations", Searched},
      {&S::SatConflicts, "sat.conflicts", Searched},
      {&S::SatRestarts, "sat.restarts", Searched},
      {&S::SatAssumptionConflicts, "sat.assumption_conflicts",
       SessionSearched},
      {&S::IncrementalCalls, "solver.incremental_calls", Nonzero},
      {&S::Z3Calls, "solver.z3.calls", Nonzero},
  };
  return Fields;
}

std::string rvp::statsToJson(const DetectionStats &Stats, const char *What) {
  JsonObject O;
  // Identity triple first, so trajectory tooling can key records without
  // scanning (docs/OBSERVABILITY.md).
  appendRunMetadata(O);
  O.field("technique", What).field("seconds", Stats.Seconds);
  for (const StatsField &F : statsFields())
    if (F.JsonKey)
      O.field(F.JsonKey, Stats.*F.Member);
  O.field("jobs", static_cast<uint64_t>(Stats.Jobs));
  if (Stats.Telemetry.Captured) {
    O.raw("metrics", metricsToJson(Stats.Telemetry.Metrics));
    O.raw("phases", Stats.Telemetry.Phases.toJson());
    Stats.TopCosts.addToJson(O);
  }
  return O.str();
}

bool DetectionResult::hasRaceAt(const std::string &LocA,
                                const std::string &LocB) const {
  for (const RaceReport &R : Races) {
    if ((R.LocFirst == LocA && R.LocSecond == LocB) ||
        (R.LocFirst == LocB && R.LocSecond == LocA))
      return true;
  }
  return false;
}

namespace {

// ------------------------------------------------------------------ CP

/// The causally-precedes relation of Smaragdakis et al. [35], computed per
/// window at critical-section granularity. CP keeps the must-happen-before
/// and volatile edges of HB but only those release->acquire edges that the
/// rules justify:
///
///  (a) the two critical sections contain conflicting accesses, or
///  (b) they contain CP-ordered events,
///
/// and (c) composes with all of HB on both sides, lock edges included: A
/// is CP-before B when some active edge (r, a) has A <=hb r and a <=hb B.
/// Every active edge is itself an HB edge, so one edge covers a chain of
/// them, and the fixpoint over rule (b) needs no closure rebuild.
class CpOrder {
public:
  CpOrder(const Trace &T, Span S)
      : T(T), Window(S), Base(T, S, ClosureConfig::cpBase()),
        Hb(T, S, ClosureConfig::hb()) {
    collectSections();
    seedConflictEdges();
    while (activateByRuleB()) {
    }
  }

  /// Final CP-order query (A before B in trace order).
  bool ordered(EventId A, EventId B) const {
    return Base.ordered(A, B) || throughActiveEdge(A, B);
  }

private:
  struct Section {
    LockId Lock = 0;
    ThreadId Tid = 0;
    EventId Acq = InvalidEvent;   ///< InvalidEvent when before the window
    EventId Rel = InvalidEvent;   ///< InvalidEvent when after the window
    EventId FirstEv = InvalidEvent; ///< first in-window event of the CS
    EventId LastEv = InvalidEvent;  ///< last in-window event of the CS
    /// Accessed variables: bit0 = read, bit1 = write (non-volatile only).
    std::unordered_map<VarId, uint8_t> Access;
  };

  void collectSections() {
    for (LockId Lock = 0; Lock < T.numLocks(); ++Lock) {
      for (const LockPair &P : T.lockPairsTouching(Lock, Window)) {
        Section Sec;
        Sec.Lock = Lock;
        Sec.Tid = P.Tid;
        Sec.Acq = P.acquireIn(Window);
        Sec.Rel = P.releaseIn(Window);
        // Body range in trace positions (clipped to the window).
        EventId Lo = Sec.Acq != InvalidEvent ? Sec.Acq : Window.Begin;
        EventId Hi = Sec.Rel != InvalidEvent ? Sec.Rel : Window.End - 1;
        Sec.FirstEv = Lo;
        Sec.LastEv = Hi;
        for (EventId Id = Lo; Id <= Hi && Id < Window.End; ++Id) {
          const Event &E = T[Id];
          if (E.Tid != Sec.Tid || !E.isAccess() || E.Volatile)
            continue;
          Sec.Access[E.Target] |= E.isWrite() ? 2 : 1;
        }
        Sections.push_back(std::move(Sec));
      }
    }
    // Candidate edges: same lock, different threads, source has a release
    // in window, target has an acquire in window, forward in trace order.
    for (size_t I = 0; I < Sections.size(); ++I) {
      for (size_t J = 0; J < Sections.size(); ++J) {
        if (I == J)
          continue;
        const Section &P = Sections[I];
        const Section &Q = Sections[J];
        if (P.Lock != Q.Lock || P.Tid == Q.Tid)
          continue;
        if (P.Rel == InvalidEvent || Q.Acq == InvalidEvent)
          continue;
        if (P.Rel > Q.Acq)
          continue;
        Candidates.push_back({static_cast<uint32_t>(I),
                              static_cast<uint32_t>(J)});
      }
    }
    Active.assign(Candidates.size(), false);
  }

  static bool bodiesConflict(const Section &P, const Section &Q) {
    const auto &Small = P.Access.size() <= Q.Access.size() ? P : Q;
    const auto &Large = P.Access.size() <= Q.Access.size() ? Q : P;
    for (const auto &[Var, Flags] : Small.Access) {
      auto It = Large.Access.find(Var);
      if (It == Large.Access.end())
        continue;
      if ((Flags & 2) || (It->second & 2))
        return true;
    }
    return false;
  }

  void seedConflictEdges() {
    for (size_t C = 0; C < Candidates.size(); ++C) {
      auto [I, J] = Candidates[C];
      if (bodiesConflict(Sections[I], Sections[J]))
        activate(C);
    }
  }

  void activate(size_t C) {
    Active[C] = true;
    auto [I, J] = Candidates[C];
    ActiveEdges.emplace_back(Sections[I].Rel, Sections[J].Acq);
  }

  bool hbEq(EventId A, EventId B) const { return A == B || Hb.ordered(A, B); }

  /// Rule (c): A <=hb r and a <=hb B for some active edge (r, a).
  bool throughActiveEdge(EventId A, EventId B) const {
    for (const auto &[Rel, Acq] : ActiveEdges)
      if (hbEq(A, Rel) && hbEq(Acq, B))
        return true;
    return false;
  }

  /// Rule (b): activate candidate (i,j) when some event of CS_i is
  /// CP-before some event of CS_j through an active edge; taking the
  /// earliest event of CS_i and the latest of CS_j gives the exact
  /// existential check.
  bool activateByRuleB() {
    bool Any = false;
    for (size_t C = 0; C < Candidates.size(); ++C) {
      if (Active[C])
        continue;
      auto [I, J] = Candidates[C];
      if (throughActiveEdge(Sections[I].FirstEv, Sections[J].LastEv)) {
        activate(C);
        Any = true;
      }
    }
    return Any;
  }

  const Trace &T;
  Span Window;
  /// HB without its lock edges, and HB itself.
  EventClosure Base, Hb;
  std::vector<Section> Sections;
  std::vector<std::pair<uint32_t, uint32_t>> Candidates;
  std::vector<bool> Active;
  /// The active candidates as (release, acquire) edges.
  std::vector<std::pair<EventId, EventId>> ActiveEdges;
};

// -------------------------------------------------------------- policy

/// Race detection as a window-driver policy: a window's COPs
/// (Definition 3) after the static-prune, WCP and quick-check stages,
/// decided by a relation (HB, CP, or WCP in the vc tier) or by the maximal
/// or Said encoding.
class RacePolicy : public QueryPolicy {
public:
  RacePolicy(const Trace &T, Technique Tech, const DetectorOptions &Options)
      : T(T), Tech(Tech), Options(Options) {
    const bool SmtTech = Tech == Technique::Said || Tech == Technique::Maximal;
    // The Hb/Cp detectors are already linear-time; the WCP tier serves the
    // SMT techniques only, and the vc tier replaces their solver with it.
    Solves = SmtTech && Options.Tier != DetectTier::Vc;
    WcpTier = SmtTech && Options.Tier != DetectTier::Smt;
    WitnessOnSat = Tech == Technique::Maximal;
    Encoding.SubstituteRaceVars = Options.SubstituteRaceVars;
    // Statically constant branches lose their cf guards on the decision
    // path only; witness encodes keep the full guards, so witness orders
    // stay byte-identical to unfolded runs.
    Encoding.Fold = Options.CfFold;
  }

  void enumerate(WindowContext &W, std::vector<Candidate> &Out) override {
    std::vector<Cop> Cops;
    {
      ScopedPhaseTimer CopPhase("cop-enum");
      Cops = collectCops(T, W.Window);
    }
    if (Cops.empty())
      return;
    Out.resize(Cops.size());
    for (size_t I = 0; I < Cops.size(); ++I) {
      Out[I].First = Cops[I].First;
      Out[I].Second = Cops[I].Second;
      Out[I].Sig = RaceSignature::of(T, Cops[I].First, Cops[I].Second).key();
    }
    // Sound static pruning: decided from program structure alone, before
    // every dynamic filter — identical across schedules, jobs and windows.
    if (Options.StaticPruner) {
      ScopedPhaseTimer PrunePhase("static-prune");
      for (Candidate &C : Out) {
        C.Pruned = Options.StaticPruner->prunable(T, C.First, C.Second);
        if (C.Pruned != CopPruner::Rule::None)
          C.PreReject = "static-prune";
      }
    }
    const EventClosure &Mhb = W.mhb();
    {
      ScopedPhaseTimer QcPhase("quick-check");
      QuickCheck Qc(T, W.Window, Mhb);
      // The quick check filters the SMT pipeline and the vc tier; the
      // Hb/Cp detectors only feed Table 1's QC column.
      const bool Filters = Options.UseQuickCheck && Tech != Technique::Hb &&
                           Tech != Technique::Cp;
      for (Candidate &C : Out) {
        if (C.PreReject)
          continue;
        Cop Pair{C.First, C.Second};
        C.QcPass = Qc.pass(Pair);
        if (!C.QcPass && Filters)
          C.Reject = Qc.failStage(Pair);
      }
    }

    auto decideByRelation = [&](auto Ordered, Candidate::Verdict Racy) {
      for (Candidate &C : Out)
        C.How = Ordered(C.First, C.Second) || Ordered(C.Second, C.First)
                    ? Candidate::Verdict::Ordered
                    : Racy;
    };
    if (Tech == Technique::Hb) {
      std::optional<EventClosure> Hb;
      {
        ScopedPhaseTimer ClosurePhase("closure");
        Hb.emplace(T, W.Window, ClosureConfig::hb());
      }
      decideByRelation([&](EventId A, EventId B) { return Hb->ordered(A, B); },
                       Candidate::Verdict::Racy);
      return;
    }
    if (Tech == Technique::Cp) {
      std::optional<CpOrder> Cp;
      {
        ScopedPhaseTimer ClosurePhase("closure");
        Cp.emplace(T, W.Window);
      }
      decideByRelation([&](EventId A, EventId B) { return Cp->ordered(A, B); },
                       Candidate::Verdict::Racy);
      return;
    }
    if (!WcpTier && !W.Degraded)
      return; // --tier=smt: every survivor goes to the solver

    // The WCP tier (docs/TIERS.md): one linear vector-clock pass per
    // window.
    std::optional<WcpIndex> Wcp;
    {
      ScopedPhaseTimer WcpPhase("wcp");
      Wcp.emplace(T, W.Window, Mhb);
    }
    if (!Solves || W.Degraded) {
      // --tier=vc, or a streamed window shed to it under load: the WCP
      // detector alone decides every COP, like the Hb/Cp detectors — sound
      // in the same weak sense (every reported pair is WCP-unordered; the
      // first one is guaranteed predictable). WCP edges never point
      // against trace order.
      decideByRelation(
          [&](EventId A, EventId B) { return A < B && Wcp->wcpOrdered(A, B); },
          Candidate::Verdict::WcpRacy);
      return;
    }
    for (Candidate &C : Out) {
      if (C.PreReject)
        continue;
      // MHB prune: the closure the quick check uses, so every pair pruned
      // here would have been a qc-fail in the smt tier — reports are
      // identical, the weak-HB recheck is skipped.
      if (Wcp->mhbOrdered(C.First, C.Second) ||
          Wcp->mhbOrdered(C.Second, C.First))
        C.PreReject = "wcp";
      else if (Tech == Technique::Maximal && Wcp->racy(C.First, C.Second))
        C.How = Candidate::Verdict::ShortCircuit;
    }
  }

  NodeRef encode(const RaceEncoder &Encoder, FormulaBuilder &FB,
                 const Candidate &C, EncodeStats *Stats) const override {
    return Tech == Technique::Maximal
               ? Encoder.encodeMaximalRace(FB, C.First, C.Second, Stats)
               : Encoder.encodeSaidRace(FB, C.First, C.Second, Stats);
  }

  bool checkWitness(WindowContext &W, const Candidate &C,
                    const std::vector<EventId> &Order) const override {
    return rvp::checkWitness(T, W.Window, Order, C.First, C.Second,
                             W.encoder(), W.Values)
        .Ok;
  }

  void report(const Candidate &C, std::vector<EventId> Witness,
              bool WitnessValid) override {
    Races.push_back(makeReport(C.First, C.Second, std::move(Witness),
                               WitnessValid));
  }

  size_t numFindings() const override { return Races.size(); }

  std::string checkpointLine(size_t I) const override {
    const RaceReport &R = Races[I];
    return findingLine("race", {R.First, R.Second}, R.WitnessValid,
                       R.Witness);
  }

  bool restoreFindings(const std::vector<std::string> &Lines) override {
    std::vector<RaceReport> Restored;
    std::vector<EventId> Pair, Witness;
    bool Valid = false;
    for (const std::string &Line : Lines) {
      // A finding is a conflicting pair in trace order, as collectCops
      // enumerates them.
      if (!parseFindingLine(T, Line, "race", 2, Pair, Valid, Witness) ||
          Pair[0] >= Pair[1] || !conflicting(T[Pair[0]], T[Pair[1]]))
        return false;
      Restored.push_back(makeReport(Pair[0], Pair[1], Witness, Valid));
    }
    Races = std::move(Restored);
    return true;
  }

  std::string renderFinding(size_t I,
                            const ReportRenderOptions &Opts) const override {
    return renderRaceLine(T, Races[I], Opts);
  }

  std::string renderReport(DriverOutput Out,
                           const ReportRenderOptions &Opts) override {
    return renderRaceReport(T, Tech, result(std::move(Out)), Opts);
  }

  DetectionResult result(DriverOutput Out) {
    return {std::move(Races), std::move(Out.Unknowns), std::move(Out.Stats)};
  }

private:
  RaceReport makeReport(EventId A, EventId B, std::vector<EventId> Witness,
                        bool WitnessValid) const {
    RaceReport R;
    R.Sig = RaceSignature::of(T, A, B);
    R.First = A;
    R.Second = B;
    R.LocFirst = T.locName(T[A].Loc);
    R.LocSecond = T.locName(T[B].Loc);
    R.Variable = T.varName(T[A].Target);
    R.Witness = std::move(Witness);
    R.WitnessValid = WitnessValid;
    return R;
  }

  const Trace &T;
  Technique Tech;
  const DetectorOptions &Options;
  /// Every finding so far, in report order.
  std::vector<RaceReport> Races;
};

} // namespace

DetectionResult rvp::detectRaces(const Trace &T, Technique Tech,
                                 const DetectorOptions &Options) {
  RacePolicy Policy(T, Tech, Options);
  return Policy.result(runWindowDriver(T, Options, Policy));
}

std::unique_ptr<QueryPolicy>
rvp::makeRacePolicy(const Trace &T, Technique Tech,
                    const DetectorOptions &Options) {
  return std::make_unique<RacePolicy>(T, Tech, Options);
}
