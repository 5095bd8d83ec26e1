//===- detect/Atomicity.cpp - Maximal atomicity-violation detection ----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Atomicity.h"

#include "detect/Lockset.h"
#include "detect/WindowDriver.h"
#include "detect/WitnessChecker.h"
#include "support/Compiler.h"

#include <algorithm>
#include <ranges>

using namespace rvp;

const char *rvp::atomicityPatternName(AtomicityPattern Pattern) {
  switch (Pattern) {
  case AtomicityPattern::ReadWriteRead:
    return "r-W-r (unrepeatable read)";
  case AtomicityPattern::WriteReadWrite:
    return "w-R-w (dirty read)";
  case AtomicityPattern::WriteWriteRead:
    return "w-W-r (remote overwrite observed)";
  case AtomicityPattern::ReadWriteWrite:
    return "r-W-w (lost local update)";
  }
  RVP_UNREACHABLE("unknown atomicity pattern");
}

bool rvp::classifyAtomicity(const Event &First, const Event &Remote,
                            const Event &Second, AtomicityPattern &Out) {
  const bool F = First.isWrite();
  const bool R = Remote.isWrite();
  const bool S = Second.isWrite();
  if (!F && R && !S) {
    Out = AtomicityPattern::ReadWriteRead;
    return true;
  }
  if (F && !R && S) {
    Out = AtomicityPattern::WriteReadWrite;
    return true;
  }
  if (F && R && !S) {
    Out = AtomicityPattern::WriteWriteRead;
    return true;
  }
  if (!F && R && S) {
    Out = AtomicityPattern::ReadWriteWrite;
    return true;
  }
  return false; // remote read between non-writes etc.: serializable
}

bool AtomicityResult::hasViolationAt(const std::string &First,
                                     const std::string &Remote,
                                     const std::string &Second) const {
  for (const AtomicityReport &V : Violations)
    if (V.LocFirst == First && V.LocRemote == Remote &&
        V.LocSecond == Second)
      return true;
  return false;
}

namespace {

/// Signature of a violation: the three static locations.
uint64_t signatureOf(const Trace &T, EventId A1, EventId B, EventId A2) {
  uint64_t H = 1469598103934665603ULL;
  for (LocId Loc : {T[A1].Loc, T[B].Loc, T[A2].Loc}) {
    H ^= Loc;
    H *= 1099511628211ULL;
  }
  return H;
}

/// Atomicity as a window-driver policy: every complete critical section
/// of the window is an intended-atomic region, and a candidate is a
/// non-serializable (local, remote, local) access triple on one variable.
/// The query is `O_a1 < O_b < O_a2` — no substitution.
class AtomicityPolicy : public QueryPolicy {
public:
  AtomicityPolicy(const Trace &T, const DetectorOptions &Options)
      : T(T), Options(Options) {
    Phase = "atomicity";
    FindingsCounter = "detect.violations";
    WcpTier = Options.Tier != DetectTier::Smt;
    Encoding.Fold = Options.CfFold; // decision path only
  }

  void enumerate(WindowContext &W, std::vector<Candidate> &Out) override {
    Triples.clear();
    {
      ScopedPhaseTimer CopPhase("cop-enum");
      // The window's regions are its complete sections: pairs whose
      // acquire, so their first event, and release are both in it.
      for (LockId Lock = 0; Lock < T.numLocks(); ++Lock)
        for (const LockPair &P : T.lockPairsStartingIn(Lock, W.Window))
          if (P.AcquireId != InvalidEvent && P.ReleaseId != InvalidEvent &&
              W.Window.contains(P.ReleaseId))
            enumerateRegion(W.Window, Lock, P, Out);
    }
    if (Out.empty() || !Options.UseQuickCheck)
      return;
    // Quick filters: holding the region's lock, or an MHB order
    // incompatible with "between", make the query unsatisfiable. Under
    // the WCP tier the MHB component is its own counted prune stage
    // (docs/TIERS.md).
    const EventClosure &Mhb = W.mhb();
    ScopedPhaseTimer QcPhase("quick-check");
    LocksetIndex Locksets(T, W.Window);
    for (Candidate &C : Out) {
      const Triple &X = Triples[C.Index];
      bool MhbOrdered = Mhb.ordered(X.B, X.A1) || Mhb.ordered(X.A2, X.B);
      const std::vector<LockId> &Held = Locksets.heldAt(X.B);
      if (MhbOrdered && WcpTier)
        C.Reject = "wcp";
      else if (std::find(Held.begin(), Held.end(), X.Lock) != Held.end())
        C.Reject = "lockset";
      else if (MhbOrdered)
        C.Reject = "quick-check";
      C.QcPass = !C.Reject;
    }
  }

  NodeRef encode(const RaceEncoder &Encoder, FormulaBuilder &FB,
                 const Candidate &C, EncodeStats *Stats) const override {
    const Triple &X = Triples[C.Index];
    return Encoder.encodeBetween(FB, X.A1, X.B, X.A2, Stats);
  }

  bool checkWitness(WindowContext &W, const Candidate &C,
                    const std::vector<EventId> &Order) const override {
    const Triple &X = Triples[C.Index];
    return checkAtomicityWitness(T, W.Window, Order, X.A1, X.B, X.A2,
                                 W.encoder(), W.Values)
        .Ok;
  }

  void report(const Candidate &C, std::vector<EventId> Witness,
              bool WitnessValid) override {
    const Triple &X = Triples[C.Index];
    AtomicityReport V;
    V.RegionLock = X.Lock;
    V.RegionAcquire = X.Region.AcquireId;
    V.RegionRelease = X.Region.ReleaseId;
    V.First = X.A1;
    V.Remote = X.B;
    V.Second = X.A2;
    V.Witness = std::move(Witness);
    V.WitnessValid = WitnessValid;
    Violations.push_back(describe(std::move(V)));
  }

  size_t numFindings() const override { return Violations.size(); }

  std::string checkpointLine(size_t I) const override {
    const AtomicityReport &V = Violations[I];
    return findingLine(
        "viol",
        {V.RegionAcquire, V.RegionRelease, V.First, V.Remote, V.Second},
        V.WitnessValid, V.Witness);
  }

  bool restoreFindings(const std::vector<std::string> &Lines) override {
    std::vector<AtomicityReport> Restored;
    std::vector<EventId> E;
    for (const std::string &Line : Lines) {
      AtomicityReport V;
      if (!parseFindingLine(T, Line, "viol", 5, E, V.WitnessValid,
                            V.Witness))
        return false;
      V.RegionLock = T[E[0]].Target;
      V.RegionAcquire = E[0];
      V.RegionRelease = E[1];
      V.First = E[2];
      V.Remote = E[3];
      V.Second = E[4];
      if (!isCandidate(V))
        return false;
      Restored.push_back(describe(std::move(V)));
    }
    Violations = std::move(Restored);
    return true;
  }

  std::string renderFinding(size_t I,
                            const ReportRenderOptions &) const override {
    return renderAtomicityLine(Violations[I]);
  }

  std::string renderReport(DriverOutput Out,
                           const ReportRenderOptions &) override {
    return renderAtomicityReport(result(std::move(Out)));
  }

  AtomicityResult result(DriverOutput Out) {
    return {std::move(Violations), std::move(Out.Unknowns),
            std::move(Out.Stats)};
  }

private:
  /// One candidate: the region, its two local accesses and the intruder.
  struct Triple {
    LockId Lock = 0;
    LockPair Region;
    EventId A1 = InvalidEvent;
    EventId B = InvalidEvent;
    EventId A2 = InvalidEvent;
  };

  void enumerateRegion(Span Window, LockId Lock, const LockPair &Region,
                       std::vector<Candidate> &Out) {
    // Local same-variable access pairs inside the region.
    std::vector<EventId> Local;
    for (EventId Id = Region.AcquireId + 1; Id < Region.ReleaseId; ++Id)
      if (T[Id].Tid == Region.Tid && T[Id].isAccess() && !T[Id].Volatile)
        Local.push_back(Id);
    for (size_t I = 0; I < Local.size(); ++I) {
      for (size_t J = I + 1; J < Local.size(); ++J) {
        EventId A1 = Local[I];
        EventId A2 = Local[J];
        if (T[A1].Target != T[A2].Target)
          continue;
        // Candidate remote accesses on the same variable, in the window.
        const std::vector<EventId> &Accesses = T.accessesOf(T[A1].Target);
        auto Begin =
            std::lower_bound(Accesses.begin(), Accesses.end(), Window.Begin);
        auto End = std::lower_bound(Begin, Accesses.end(), Window.End);
        for (EventId B : std::ranges::subrange(Begin, End)) {
          AtomicityPattern Pattern;
          if (T[B].Tid == Region.Tid ||
              T[B].Volatile || !classifyAtomicity(T[A1], T[B], T[A2], Pattern))
            continue;
          Candidate C;
          C.First = A1;
          C.Second = B;
          C.Sig = signatureOf(T, A1, B, A2);
          C.Index = static_cast<uint32_t>(Triples.size());
          Triples.push_back({Lock, Region, A1, B, A2});
          Out.push_back(C);
        }
      }
    }
  }

  /// Whether \p V has the shape of an enumerateRegion candidate: a complete
  /// critical section, two of its own accesses to one variable inside it
  /// and a non-serializable remote access to that variable.
  bool isCandidate(const AtomicityReport &V) const {
    const Event &Acquire = T[V.RegionAcquire];
    if (!Acquire.isAcquire())
      return false;
    const std::vector<LockPair> &Pairs = T.lockPairsOf(Acquire.Target);
    bool Region = std::any_of(Pairs.begin(), Pairs.end(), [&](const auto &P) {
      return P.AcquireId == V.RegionAcquire && P.ReleaseId == V.RegionRelease;
    });
    auto access = [&](EventId Id, bool Local) {
      const Event &E = T[Id];
      return E.isAccess() && !E.Volatile && (E.Tid == Acquire.Tid) == Local &&
             E.Target == T[V.First].Target;
    };
    AtomicityPattern Pattern;
    return Region && V.RegionAcquire < V.First && V.First < V.Second &&
           V.Second < V.RegionRelease && access(V.First, true) &&
           access(V.Second, true) && access(V.Remote, false) &&
           classifyAtomicity(T[V.First], T[V.Remote], T[V.Second], Pattern);
  }

  /// Fills the pattern and display names from the event ids.
  AtomicityReport describe(AtomicityReport V) const {
    classifyAtomicity(T[V.First], T[V.Remote], T[V.Second], V.Pattern);
    V.Variable = T.varName(T[V.First].Target);
    V.LocFirst = T.locName(T[V.First].Loc);
    V.LocRemote = T.locName(T[V.Remote].Loc);
    V.LocSecond = T.locName(T[V.Second].Loc);
    return V;
  }

  const Trace &T;
  const DetectorOptions &Options;
  /// This window's candidates (Candidate::Index).
  std::vector<Triple> Triples;
  /// Every finding so far, in report order.
  std::vector<AtomicityReport> Violations;
};

} // namespace

AtomicityResult
rvp::detectAtomicityViolations(const Trace &T,
                               const DetectorOptions &Options) {
  AtomicityPolicy Policy(T, Options);
  return Policy.result(runWindowDriver(T, Options, Policy));
}

std::unique_ptr<QueryPolicy>
rvp::makeAtomicityPolicy(const Trace &T, const DetectorOptions &Options) {
  return std::make_unique<AtomicityPolicy>(T, Options);
}
