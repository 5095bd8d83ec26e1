//===- detect/Deadlock.cpp - Predictive deadlock detection -------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Deadlock.h"

#include "detect/WindowDriver.h"
#include "detect/WitnessChecker.h"

#include <algorithm>
#include <unordered_set>

using namespace rvp;

namespace {

uint64_t signatureOf(const Trace &T, EventId ReqA, EventId ReqB) {
  LocId A = T[ReqA].Loc;
  LocId B = T[ReqB].Loc;
  if (A > B)
    std::swap(A, B);
  return (static_cast<uint64_t>(A) << 32) | B;
}

/// Deadlock as a window-driver policy: a candidate is a pair of
/// opposite-order lock dependencies of different threads, and the query
/// is the hold-and-wait state.
class DeadlockPolicy : public QueryPolicy {
public:
  DeadlockPolicy(const Trace &T, const DetectorOptions &Options)
      : T(T), Options(Options) {
    Phase = "deadlock";
    FindingsCounter = "detect.deadlocks";
    Encoding.Fold = Options.CfFold; // decision path only
  }

  void enumerate(WindowContext &W, std::vector<Candidate> &Out) override {
    Pairs.clear();
    std::vector<LockDependency> Deps;
    {
      ScopedPhaseTimer CopPhase("cop-enum");
      Deps = collectLockDependencies(T, W.Window);
      for (size_t I = 0; I < Deps.size(); ++I) {
        for (size_t J = I + 1; J < Deps.size(); ++J) {
          const LockDependency &A = Deps[I];
          const LockDependency &B = Deps[J];
          // Opposite-order acquisition by different threads.
          if (A.Tid == B.Tid || A.OuterLock != B.InnerLock ||
              A.InnerLock != B.OuterLock)
            continue;
          Candidate C;
          C.First = A.Request;
          C.Second = B.Request;
          C.Sig = signatureOf(T, A.Request, B.Request);
          C.Index = static_cast<uint32_t>(Pairs.size());
          Pairs.push_back({A, B});
          Out.push_back(C);
        }
      }
    }
    if (Out.empty() || !Options.UseQuickCheck)
      return;
    // Cheap refutations: an MHB order between a request and the other
    // side's section makes the hold state impossible.
    const EventClosure &Mhb = W.mhb();
    ScopedPhaseTimer QcPhase("quick-check");
    for (Candidate &C : Out) {
      const LockDependency &A = Pairs[C.Index].first;
      const LockDependency &B = Pairs[C.Index].second;
      C.QcPass = !(Mhb.ordered(A.Request, B.Outer.AcquireId) ||
                   Mhb.ordered(B.Outer.ReleaseId, A.Request) ||
                   Mhb.ordered(B.Request, A.Outer.AcquireId) ||
                   Mhb.ordered(A.Outer.ReleaseId, B.Request));
      if (!C.QcPass)
        C.Reject = "quick-check";
    }
  }

  NodeRef encode(const RaceEncoder &Encoder, FormulaBuilder &FB,
                 const Candidate &C, EncodeStats *Stats) const override {
    const LockDependency &A = Pairs[C.Index].first;
    const LockDependency &B = Pairs[C.Index].second;
    return Encoder.encodeDeadlock(FB, A.Request, B.Request, A.Outer, B.Outer,
                                  Stats);
  }

  bool checkWitness(WindowContext &W, const Candidate &C,
                    const std::vector<EventId> &Order) const override {
    const LockDependency &A = Pairs[C.Index].first;
    const LockDependency &B = Pairs[C.Index].second;
    std::unordered_set<EventId> Skip = {A.Request, B.Request};
    if (A.RequestPair.ReleaseId != InvalidEvent)
      Skip.insert(A.RequestPair.ReleaseId);
    if (B.RequestPair.ReleaseId != InvalidEvent)
      Skip.insert(B.RequestPair.ReleaseId);
    return checkDeadlockWitness(T, W.Window, Order, A.Request, B.Request,
                                A.Outer, B.Outer, Skip, W.encoder(), W.Values)
        .Ok;
  }

  void report(const Candidate &C, std::vector<EventId> Witness,
              bool WitnessValid) override {
    Deadlocks.push_back(
        makeReport(C.First, C.Second, std::move(Witness), WitnessValid));
  }

  size_t numFindings() const override { return Deadlocks.size(); }

  std::string checkpointLine(size_t I) const override {
    const DeadlockReport &D = Deadlocks[I];
    return findingLine("dl", {D.RequestA, D.RequestB}, D.WitnessValid,
                       D.Witness);
  }

  bool restoreFindings(const std::vector<std::string> &Lines) override {
    std::vector<DeadlockReport> Restored;
    std::vector<EventId> Req, Witness;
    bool Valid = false;
    for (const std::string &Line : Lines) {
      if (!parseFindingLine(T, Line, "dl", 2, Req, Valid, Witness))
        return false;
      for (EventId Id : Req)
        if (!T[Id].isAcquire())
          return false;
      Restored.push_back(makeReport(Req[0], Req[1], Witness, Valid));
    }
    Deadlocks = std::move(Restored);
    return true;
  }

  std::string renderFinding(size_t I,
                            const ReportRenderOptions &) const override {
    return renderDeadlockLine(T, Deadlocks[I]);
  }

  std::string renderReport(DriverOutput Out,
                           const ReportRenderOptions &) override {
    return renderDeadlockReport(T, result(std::move(Out)));
  }

  DeadlockResult result(DriverOutput Out) {
    return {std::move(Deadlocks), std::move(Out.Unknowns),
            std::move(Out.Stats)};
  }

private:
  /// Threads, locks and display names follow from the request events: A
  /// requests the lock B holds and vice versa.
  DeadlockReport makeReport(EventId ReqA, EventId ReqB,
                            std::vector<EventId> Witness,
                            bool WitnessValid) const {
    DeadlockReport D;
    D.ThreadA = T[ReqA].Tid;
    D.ThreadB = T[ReqB].Tid;
    D.LockHeldByB = T[ReqA].Target;
    D.LockHeldByA = T[ReqB].Target;
    D.RequestA = ReqA;
    D.RequestB = ReqB;
    D.LocRequestA = T.locName(T[ReqA].Loc);
    D.LocRequestB = T.locName(T[ReqB].Loc);
    D.Witness = std::move(Witness);
    D.WitnessValid = WitnessValid;
    return D;
  }

  const Trace &T;
  const DetectorOptions &Options;
  /// This window's candidates (Candidate::Index).
  std::vector<std::pair<LockDependency, LockDependency>> Pairs;
  /// Every finding so far, in report order.
  std::vector<DeadlockReport> Deadlocks;
};

} // namespace

std::vector<LockDependency> rvp::collectLockDependencies(const Trace &T,
                                                         Span Window) {
  std::vector<std::vector<LockPair>> PerThread(T.numThreads());
  for (LockId Lock = 0; Lock < T.numLocks(); ++Lock)
    for (const LockPair &P : T.lockPairsStartingIn(Lock, Window))
      if (P.AcquireId != InvalidEvent)
        PerThread[P.Tid].push_back(P);

  std::vector<LockDependency> Deps;
  std::vector<uint32_t> ByAcquire, Held;
  std::vector<std::pair<uint32_t, uint32_t>> Found; // (request, outer)
  for (ThreadId Tid = 0; Tid < T.numThreads(); ++Tid) {
    const std::vector<LockPair> &Pairs = PerThread[Tid];
    ByAcquire.resize(Pairs.size());
    for (uint32_t I = 0; I < Pairs.size(); ++I)
      ByAcquire[I] = I;
    std::sort(ByAcquire.begin(), ByAcquire.end(), [&](uint32_t A, uint32_t B) {
      return Pairs[A].AcquireId < Pairs[B].AcquireId;
    });
    Held.clear();
    Found.clear();
    for (uint32_t Req : ByAcquire) {
      EventId Acq = Pairs[Req].AcquireId;
      std::erase_if(Held,
                    [&](uint32_t Out) { return Pairs[Out].ReleaseId < Acq; });
      for (uint32_t Out : Held)
        if (Pairs[Out].Lock != Pairs[Req].Lock)
          Found.emplace_back(Req, Out);
      // Only a section released inside the window can be an outer one.
      if (Window.contains(Pairs[Req].ReleaseId))
        Held.push_back(Req);
    }
    std::sort(Found.begin(), Found.end());
    for (auto [Req, Out] : Found)
      Deps.push_back({Tid, Pairs[Out].Lock, Pairs[Req].Lock,
                      Pairs[Req].AcquireId, Pairs[Out], Pairs[Req]});
  }
  return Deps;
}

DeadlockResult rvp::detectDeadlocks(const Trace &T,
                                    const DetectorOptions &Options) {
  DeadlockPolicy Policy(T, Options);
  return Policy.result(runWindowDriver(T, Options, Policy));
}

std::unique_ptr<QueryPolicy>
rvp::makeDeadlockPolicy(const Trace &T, const DetectorOptions &Options) {
  return std::make_unique<DeadlockPolicy>(T, Options);
}
