//===- detect/RaceEncoder.cpp - Race constraint encoding --------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/RaceEncoder.h"

#include "detect/Detect.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace rvp;

RaceEncoder::RaceEncoder(const Trace &T, Span S, const EventClosure &Mhb,
                         const std::vector<Value> &Initial,
                         EncoderOptions Options)
    : RaceEncoder(std::make_shared<const WindowEncoding>(T, S, Mhb, Initial),
                  Options) {}

RaceEncoder::RaceEncoder(std::shared_ptr<const WindowEncoding> Encoding,
                         EncoderOptions Options)
    : Enc(std::move(Encoding)), T(Enc->T), Window(Enc->Window), Mhb(Enc->Mhb),
      Options(Options) {}

// --------------------------------------------------------------- helpers

/// Atom under substitution; two events merged onto one position can never
/// be strictly ordered, so such atoms collapse to False. (readValueFormula
/// never asks for one: it orders the merged race pair itself.)
static NodeRef mkAtomS(FormulaBuilder &FB, OrderVar X, OrderVar Y) {
  if (X == Y)
    return FB.mkFalse();
  return FB.mkAtom(X, Y);
}

static uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

// ------------------------------------------------------ cone of influence

/// Cone accumulator for one encode call (docs/ENCODER.md). Events are
/// recorded as the query's own part references their variables, the query
/// events and all cross-thread MHB endpoints are seeded up front, and
/// close() runs the lock fixpoint: any cone event inside (or at an
/// endpoint of) a critical section activates every lock constraint that
/// section is a side of, pulling the constraint's endpoints into the cone
/// in turn (which may activate enclosing sections — nested locking).
/// wholeWindow() closes it to every window event and lock constraint
/// instead.
///
/// Membership tests use epoch-stamped thread_local scratch instead of a
/// per-call bitmap so per-COP cost stays proportional to the cone, not
/// the window (the same trick FormulaBuilder's complement scratch uses).
struct RaceEncoder::Cone {
  const WindowEncoding &Enc;
  std::vector<EventId> Events;     ///< insertion order until closed
  std::vector<uint32_t> ActiveLcs; ///< insertion order until closed
  size_t ScanPos = 0;

  struct Scratch {
    std::vector<uint64_t> EventStamp;
    std::vector<uint64_t> LcStamp;
    uint64_t Epoch = 0;
  };
  Scratch &Scr;

  explicit Cone(const WindowEncoding &Enc) : Enc(Enc), Scr(scratch()) {
    ++Scr.Epoch;
    size_t WindowSize = Enc.Window.End - Enc.Window.Begin;
    if (Scr.EventStamp.size() < WindowSize)
      Scr.EventStamp.resize(WindowSize, 0);
    if (Scr.LcStamp.size() < Enc.LockConstraints.size())
      Scr.LcStamp.resize(Enc.LockConstraints.size(), 0);
  }

  static Scratch &scratch() {
    static thread_local Scratch S;
    return S;
  }

  /// Records a window event; RootVar and InvalidEvent fall outside the
  /// window and are ignored.
  void addEvent(EventId E) {
    if (!Enc.Window.contains(E))
      return;
    uint64_t &Stamp = Scr.EventStamp[E - Enc.Window.Begin];
    if (Stamp == Scr.Epoch)
      return;
    Stamp = Scr.Epoch;
    Events.push_back(E);
  }

  void activate(uint32_t Lc) {
    uint64_t &Stamp = Scr.LcStamp[Lc];
    if (Stamp == Scr.Epoch)
      return;
    Stamp = Scr.Epoch;
    ActiveLcs.push_back(Lc);
    const WindowEncoding::LockConstraint &LC = Enc.LockConstraints[Lc];
    addEvent(LC.RelP);
    addEvent(LC.AcqQ);
    addEvent(LC.RelQ);
    addEvent(LC.AcqP);
  }

  /// Seeds the unconditionally-kept parts: every cross-thread MHB edge
  /// (few, and they anchor the per-thread chains to each other) and every
  /// one-sided (window-clipped) lock constraint — those are directional,
  /// and the gap-placement soundness argument only covers the symmetric
  /// mutual-exclusion disjunction for cone-free section pairs.
  void seed() {
    for (const auto &[From, To] : Enc.CrossEdges) {
      addEvent(From);
      addEvent(To);
    }
    for (uint32_t I = 0; I < Enc.LockConstraints.size(); ++I)
      if (!Enc.LockConstraints[I].Mutex)
        activate(I);
  }

  /// Lock fixpoint over everything recorded so far, then canonical order.
  void close() {
    while (ScanPos < Events.size()) {
      EventId E = Events[ScanPos++];
      for (uint32_t Sid : Enc.sectionsOf(E))
        for (uint32_t Lc : Enc.SectionConstraints[Sid])
          activate(Lc);
    }
    std::sort(Events.begin(), Events.end());
    std::sort(ActiveLcs.begin(), ActiveLcs.end());
  }

  /// Every window event and every lock constraint, in canonical order.
  void wholeWindow() {
    Events.resize(Enc.Window.End - Enc.Window.Begin);
    std::iota(Events.begin(), Events.end(), Enc.Window.Begin);
    ActiveLcs.resize(Enc.LockConstraints.size());
    std::iota(ActiveLcs.begin(), ActiveLcs.end(), 0u);
  }
};

NodeRef RaceEncoder::encodeMhb(FormulaBuilder &FB) const {
  // The anchor under the synthetic root and the program-order chain of
  // each thread, then the fork/join and wait/notify atoms.
  std::vector<NodeRef> Conj;
  for (const std::vector<EventId> &Events : Enc->ThreadEvents) {
    OrderVar Prev = WindowEncoding::RootVar;
    for (EventId E : Events) {
      Conj.push_back(FB.mkAtom(Prev, E));
      Prev = E;
    }
  }
  for (const auto &[From, To] : Enc->CrossEdges)
    Conj.push_back(FB.mkAtom(From, To));
  return FB.mkAnd(std::move(Conj));
}

NodeRef RaceEncoder::encodeLock(FormulaBuilder &FB) const {
  std::vector<NodeRef> Conj;
  for (const WindowEncoding::LockConstraint &LC : Enc->LockConstraints) {
    if (LC.Mutex)
      Conj.push_back(FB.mkOr2(FB.mkAtom(LC.RelP, LC.AcqQ),
                              FB.mkAtom(LC.RelQ, LC.AcqP)));
    else
      Conj.push_back(FB.mkAtom(LC.RelP, LC.AcqQ));
  }
  return FB.mkAnd(std::move(Conj));
}

std::vector<EventId> RaceEncoder::guardingBranches(EventId E,
                                                   uint64_t *Folded) const {
  std::vector<EventId> Guards;
  for (ThreadId Tid = 0; Tid < T.numThreads(); ++Tid) {
    const std::vector<EventId> &Branches = Enc->ThreadBranches[Tid];
    // ordered(br, E) is monotone along a thread's branches: if a later
    // branch must happen before E, so must every earlier one. Binary
    // search for the last branch with br ≼ E.
    int64_t Lo = 0, Hi = static_cast<int64_t>(Branches.size()) - 1;
    int64_t Best = -1;
    while (Lo <= Hi) {
      int64_t Mid = (Lo + Hi) / 2;
      if (Branches[Mid] != E && Mhb.ordered(Branches[Mid], E)) {
        Best = Mid;
        Lo = Mid + 1;
      } else {
        Hi = Mid - 1;
      }
    }
    // A statically constant branch takes the recorded direction in every
    // execution, so cf(e) needs no guard for it; walk back to the last
    // branch the oracle cannot fold — guarding it still covers all
    // earlier branches (cf is monotone along the thread).
    while (Best >= 0 && Options.Fold &&
           Options.Fold->foldableBranch(T, Branches[Best])) {
      --Best;
      if (Folded)
        ++*Folded;
    }
    if (Best >= 0)
      Guards.push_back(Branches[Best]);
  }
  std::sort(Guards.begin(), Guards.end());
  return Guards;
}

NodeRef RaceEncoder::cfVar(CfState &St, EventId E) const {
  St.C.addEvent(E);
  auto [It, Inserted] = St.VarOf.try_emplace(E, E);
  if (Inserted)
    St.Worklist.push_back(E);
  return St.FB.mkBoolVar(It->second);
}

NodeRef RaceEncoder::atomS(CfState &St, EventId X, EventId Y) const {
  St.C.addEvent(X);
  St.C.addEvent(Y);
  return mkAtomS(St.FB, St.S(X), St.S(Y));
}

NodeRef RaceEncoder::branchGuards(CfState &St, EventId E) const {
  std::vector<NodeRef> Conj;
  for (EventId Branch : guardingBranches(E, &St.Stats.RangesFolded))
    Conj.push_back(cfVar(St, Branch));
  St.Stats.Guarded = true;
  St.Stats.BranchConstraints += Conj.size();
  return St.FB.mkAnd(std::move(Conj));
}

NodeRef RaceEncoder::readValueFormula(CfState &St, EventId R,
                                      bool Guarded) const {
  FormulaBuilder &FB = St.FB;
  const Subst &S = St.S;
  const WindowEncoding::ReadInfo &Info = Enc->readInfo(R);
  // X takes place before Y. The race pair merged by the substitution
  // shares one position with nothing between its events, which may take
  // either order: for that pair the atom over the events' own variables
  // (the first one's is otherwise unused) decides which (docs/ENCODER.md).
  auto before = [&](EventId X, EventId Y) {
    return X != Y && S(X) == S(Y) ? FB.mkAtom(X, Y) : atomS(St, X, Y);
  };

  std::vector<NodeRef> Disjuncts;
  for (const WindowEncoding::ReadCandidate &Cand : Info.Candidates) {
    EventId W = Cand.Write;
    if (S(W) == S(R)) {
      // The candidate is the race write merged with this read (the COP
      // itself): the read sits immediately after the write, so it reads
      // from it with nothing in between.
      Disjuncts.push_back(Guarded ? cfVar(St, W) : FB.mkTrue());
      continue;
    }

    std::vector<NodeRef> Conj;
    if (Guarded)
      Conj.push_back(cfVar(St, W));
    Conj.push_back(atomS(St, W, R));
    for (EventId W2 : Cand.Others)
      Conj.push_back(FB.mkOr2(before(W2, W), before(R, W2)));
    Disjuncts.push_back(FB.mkAnd(std::move(Conj)));
  }

  // Initial-value disjunct: the read observes the value the variable had
  // at window entry, i.e. every in-window write is moved after it.
  if (Info.InitialOk) {
    std::vector<NodeRef> Conj;
    for (EventId W : Info.Interfering)
      Conj.push_back(before(R, W));
    Disjuncts.push_back(FB.mkAnd(std::move(Conj)));
  }

  ++St.Stats.ReadConsistency;
  return FB.mkOr(std::move(Disjuncts));
}

void RaceEncoder::emitCfDefs(CfState &St) const {
  while (!St.Worklist.empty()) {
    EventId E = St.Worklist.back();
    St.Worklist.pop_back();
    const Event &Ev = T[E];
    NodeRef Def;
    if (Ev.Kind == EventKind::Branch || Ev.isWrite()) {
      // Local branch/write determinism: feasible iff the whole read
      // history of the thread stays concrete (Section 3.2).
      std::vector<NodeRef> Conj;
      const std::vector<EventId> &Reads = Enc->ThreadReads[Ev.Tid];
      for (EventId R : Reads) {
        if (R >= E)
          break;
        Conj.push_back(cfVar(St, R));
      }
      Def = St.FB.mkAnd(std::move(Conj));
    } else if (Ev.isRead()) {
      Def = readValueFormula(St, E, /*Guarded=*/true);
    } else {
      RVP_UNREACHABLE("cf variable for a non-branch/read/write event");
    }
    St.Defs.push_back(St.FB.mkGuardedDef(St.VarOf.at(E), Def));
    ++St.Stats.CfDefs;
  }
}

NodeRef RaceEncoder::adjacency(FormulaBuilder &FB, EventId A,
                               EventId B) const {
  // Naive adjacency (ablation mode): one of A and B immediately precedes
  // the other, i.e. X < Y and no window event lies between them, for
  // (X, Y) = (A, B) or (B, A) — the two orders the substitution merges.
  auto precedes = [&](EventId X, EventId Y) {
    std::vector<NodeRef> Conj = {FB.mkAtom(X, Y)};
    for (EventId E = Window.Begin; E < Window.End; ++E) {
      if (E == A || E == B)
        continue;
      Conj.push_back(FB.mkOr2(FB.mkAtom(E, X), FB.mkAtom(Y, E)));
    }
    return FB.mkAnd(std::move(Conj));
  };
  return FB.mkOr2(precedes(A, B), precedes(B, A));
}

// ----------------------------------------------------- skeleton cache

const RaceEncoder::Skeleton &RaceEncoder::skeletonFor(Cone &C,
                                                      EncodeStats &Stats) const {
  uint64_t Hash = hashCombine(0x51CEDA7ABCDEF01ULL, C.Events.size());
  for (EventId E : C.Events)
    Hash = hashCombine(Hash, E);
  Hash = hashCombine(Hash, C.ActiveLcs.size());
  for (uint32_t Lc : C.ActiveLcs)
    Hash = hashCombine(Hash, Lc);

  auto Matches = [&](const Skeleton &Sk) {
    return Sk.Events == C.Events && Sk.ActiveLcs == C.ActiveLcs;
  };
  {
    std::shared_lock<std::shared_mutex> Lock(SkelMutex);
    auto It = SkelCache.find(Hash);
    if (It != SkelCache.end())
      for (const std::unique_ptr<Skeleton> &Sk : It->second)
        if (Matches(*Sk)) {
          Stats.CacheHit = true;
          return *Sk;
        }
  }

  auto Sk = std::make_unique<Skeleton>();
  Sk->Events = C.Events;
  Sk->ActiveLcs = C.ActiveLcs;
  // Compressed per-thread chains over the sorted cone: each thread's
  // first cone event is anchored under the synthetic root, every later
  // one under its cone predecessor. Transitivity of `<` makes the
  // compressed chain equivalent to the full program-order chain over the
  // cone's variables. Cross-thread edges are kept verbatim.
  Sk->MhbAtoms.reserve(Sk->Events.size() + Enc->CrossEdges.size());
  std::vector<EventId> Last(T.numThreads(), InvalidEvent);
  for (EventId E : Sk->Events) {
    ThreadId Tid = T[E].Tid;
    Sk->MhbAtoms.emplace_back(
        Last[Tid] == InvalidEvent ? WindowEncoding::RootVar : Last[Tid], E);
    Last[Tid] = E;
  }
  for (const auto &[From, To] : Enc->CrossEdges)
    Sk->MhbAtoms.emplace_back(From, To);

  std::unique_lock<std::shared_mutex> Lock(SkelMutex);
  std::vector<std::unique_ptr<Skeleton>> &Bucket = SkelCache[Hash];
  // Another worker may have built the same skeleton while we did; keep
  // the first insert so cached references stay stable.
  for (const std::unique_ptr<Skeleton> &Existing : Bucket)
    if (Matches(*Existing))
      return *Existing;
  Bucket.push_back(std::move(Sk));
  return *Bucket.back();
}

NodeRef RaceEncoder::emitSkeleton(FormulaBuilder &FB, const Skeleton &Sk,
                                  Subst S,
                                  const std::vector<EventId> &ExcludedAcquires,
                                  EncodeStats &Stats) const {
  auto Excluded = [&](EventId SectionAcq) {
    return SectionAcq != InvalidEvent &&
           std::find(ExcludedAcquires.begin(), ExcludedAcquires.end(),
                     SectionAcq) != ExcludedAcquires.end();
  };
  std::vector<NodeRef> Conj;
  Conj.reserve(Sk.MhbAtoms.size() + Sk.ActiveLcs.size());
  for (const auto &[From, To] : Sk.MhbAtoms)
    Conj.push_back(mkAtomS(FB, S(From), S(To)));
  uint64_t Atoms = Sk.MhbAtoms.size();
  for (uint32_t Lc : Sk.ActiveLcs) {
    const WindowEncoding::LockConstraint &LC = Enc->LockConstraints[Lc];
    if (!ExcludedAcquires.empty() &&
        (Excluded(LC.SectionAcqP) || Excluded(LC.SectionAcqQ)))
      continue;
    if (LC.Mutex) {
      Conj.push_back(FB.mkOr2(mkAtomS(FB, S(LC.RelP), S(LC.AcqQ)),
                              mkAtomS(FB, S(LC.RelQ), S(LC.AcqP))));
      Atoms += 2;
    } else {
      Conj.push_back(mkAtomS(FB, S(LC.RelP), S(LC.AcqQ)));
      Atoms += 1;
    }
  }
  Stats.SlicedAtoms += Atoms;
  return FB.mkAnd(std::move(Conj));
}

// --------------------------------------------------------- encode calls

template <typename OwnPart>
NodeRef RaceEncoder::assemble(
    FormulaBuilder &FB, Subst S, std::initializer_list<EventId> Anchors,
    std::initializer_list<std::pair<EventId, EventId>> Atoms,
    const std::vector<EventId> &ExcludedAcquires, EncodeStats *Stats,
    OwnPart Own) const {
  // The query's own part first, so the cone is complete (every referenced
  // variable recorded) before the skeleton is chosen. mkAnd sorts its
  // children, so conjunct order does not change the resulting formula;
  // node creation order does (it numbers the nodes), and stays fixed:
  // own part, cf definitions, skeleton, query atoms.
  EncodeStats Discarded;
  EncodeStats &Out = Stats ? *Stats : Discarded;
  Cone C(*Enc);
  CfState St{FB, S, C, Out, {}, {}, {}};
  for (EventId E : Anchors)
    C.addEvent(E);
  C.seed();
  std::vector<NodeRef> Conj;
  Own(St, Conj);
  emitCfDefs(St);
  // The naive adjacency encoding references every window event, so there
  // is nothing to slice.
  if (Options.Slice && Options.SubstituteRaceVars)
    C.close();
  else
    C.wholeWindow();
  const Skeleton &Sk = skeletonFor(C, Out);
  Out.ConeEvents += Sk.Events.size();
  if (Out.Cone) {
    Out.Cone->Events = Sk.Events;
    Out.Cone->ActiveLocks = Sk.ActiveLcs;
    Out.Cone->MergedFirst = S.A;
    Out.Cone->MergedSecond = S.B;
  }

  Conj.push_back(emitSkeleton(FB, Sk, S, ExcludedAcquires, Out));
  for (const auto &[X, Y] : Atoms)
    Conj.push_back(FB.mkAtom(X, Y));
  Conj.insert(Conj.end(), St.Defs.begin(), St.Defs.end());
  return FB.mkAnd(std::move(Conj));
}

NodeRef RaceEncoder::encodeMaximalRace(FormulaBuilder &FB, EventId A,
                                       EventId B, EncodeStats *Stats) const {
  Subst S;
  if (Options.SubstituteRaceVars)
    S = Subst{A, B};
  return assemble(FB, S, {A, B}, {}, {}, Stats,
                  [&](CfState &St, std::vector<NodeRef> &Conj) {
                    Conj.push_back(branchGuards(St, A));
                    Conj.push_back(branchGuards(St, B));
                    if (!Options.SubstituteRaceVars)
                      Conj.push_back(adjacency(FB, A, B));
                  });
}

ConeInfo RaceEncoder::coneOf(EventId A, EventId B) const {
  ConeInfo Info;
  EncodeStats Stats;
  Stats.Cone = &Info;
  FormulaBuilder Scratch;
  encodeMaximalRace(Scratch, A, B, &Stats);
  return Info;
}

NodeRef RaceEncoder::encodeBetween(FormulaBuilder &FB, EventId A1, EventId B,
                                   EventId A2, EncodeStats *Stats) const {
  return assemble(FB, Subst{}, {A1, B, A2}, {{A1, B}, {B, A2}}, {}, Stats,
                  [&](CfState &St, std::vector<NodeRef> &Conj) {
                    Conj.push_back(branchGuards(St, A1));
                    Conj.push_back(branchGuards(St, B));
                    Conj.push_back(branchGuards(St, A2));
                  });
}

NodeRef RaceEncoder::encodeDeadlock(FormulaBuilder &FB, EventId ReqA,
                                    EventId ReqB, const LockPair &OutA,
                                    const LockPair &OutB,
                                    EncodeStats *Stats) const {
  // Hold-and-wait: each request falls inside the other thread's held
  // section; the requests' own sections never start.
  return assemble(FB, Subst{},
                  {ReqA, ReqB, OutA.AcquireId, OutA.ReleaseId, OutB.AcquireId,
                   OutB.ReleaseId},
                  {{OutB.AcquireId, ReqA},
                   {ReqA, OutB.ReleaseId},
                   {OutA.AcquireId, ReqB},
                   {ReqB, OutA.ReleaseId}},
                  {ReqA, ReqB}, Stats,
                  [&](CfState &St, std::vector<NodeRef> &Conj) {
                    Conj.push_back(branchGuards(St, ReqA));
                    Conj.push_back(branchGuards(St, ReqB));
                  });
}

NodeRef RaceEncoder::encodeSaidRace(FormulaBuilder &FB, EventId A,
                                    EventId B, EncodeStats *Stats) const {
  Subst S;
  if (Options.SubstituteRaceVars)
    S = Subst{A, B};
  // Whole-window read-write consistency: every read keeps its value.
  return assemble(FB, S, {A, B}, {}, {}, Stats,
                  [&](CfState &St, std::vector<NodeRef> &Conj) {
                    for (EventId R : Enc->AllReads)
                      Conj.push_back(
                          readValueFormula(St, R, /*Guarded=*/false));
                    assert(St.Worklist.empty() &&
                           "unguarded encoding queued cf definitions");
                    if (!Options.SubstituteRaceVars)
                      Conj.push_back(adjacency(FB, A, B));
                  });
}
