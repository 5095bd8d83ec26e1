//===- detect/WindowEncoding.cpp - Shared per-window encoding state ---------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/WindowEncoding.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace rvp;

WindowEncoding::WindowEncoding(const Trace &T, Span S, const EventClosure &Mhb,
                               const std::vector<Value> &Initial)
    : T(T), Window(S), Mhb(Mhb) {
  InitialValues.assign(T.numVars(), 0);
  for (size_t I = 0; I < Initial.size() && I < InitialValues.size(); ++I)
    InitialValues[I] = Initial[I];

  ThreadEvents.resize(T.numThreads());
  ThreadBranches.resize(T.numThreads());
  ThreadReads.resize(T.numThreads());
  VarWrites.resize(T.numVars());

  struct WaitTriple {
    EventId Release = InvalidEvent;
    EventId Notify = InvalidEvent;
    EventId Acquire = InvalidEvent;
  };
  std::unordered_map<uint32_t, WaitTriple> TriplesByMatch;
  for (EventId Id = S.Begin; Id < S.End; ++Id) {
    const Event &E = T[Id];
    ThreadEvents[E.Tid].push_back(Id);
    switch (E.Kind) {
    case EventKind::Branch:
      ThreadBranches[E.Tid].push_back(Id);
      break;
    case EventKind::Read:
      ThreadReads[E.Tid].push_back(Id);
      AllReads.push_back(Id);
      break;
    case EventKind::Write:
      VarWrites[E.Target].push_back(Id);
      break;
    case EventKind::Release:
      if (E.Aux != 0)
        TriplesByMatch[E.Aux].Release = Id;
      break;
    case EventKind::Acquire:
      if (E.Aux != 0)
        TriplesByMatch[E.Aux].Acquire = Id;
      break;
    case EventKind::Notify:
      if (E.Aux != 0)
        TriplesByMatch[E.Aux].Notify = Id;
      break;
    default:
      break;
    }
  }

  // Cross-thread Φ_mhb edges: fork/join, then wait/notify triples. The
  // encoder keeps all of them and compresses only the per-thread chains.
  for (ThreadId Tid = 0; Tid < T.numThreads(); ++Tid) {
    EventId Fork = T.forkOf(Tid);
    EventId Begin = T.beginOf(Tid);
    if (Fork != InvalidEvent && Begin != InvalidEvent &&
        Window.contains(Fork) && Window.contains(Begin))
      CrossEdges.emplace_back(Fork, Begin);
    EventId End = T.endOf(Tid);
    EventId Join = T.joinOf(Tid);
    if (End != InvalidEvent && Join != InvalidEvent &&
        Window.contains(End) && Window.contains(Join))
      CrossEdges.emplace_back(End, Join);
  }
  // wait/notify: release(wait) < notify < acquire(wait) (Section 4).
  for (const auto &[Match, W] : TriplesByMatch) {
    (void)Match;
    if (W.Notify == InvalidEvent)
      continue;
    if (W.Release != InvalidEvent)
      CrossEdges.emplace_back(W.Release, W.Notify);
    if (W.Acquire != InvalidEvent)
      CrossEdges.emplace_back(W.Notify, W.Acquire);
  }

  // Φ_lock descriptors, in encodeLock's emission order. Exclusions are
  // applied at emission time via the section acquire tags, so the list
  // carries every cross-thread section pair.
  struct SpanPair {
    EventId Acq = InvalidEvent; ///< InvalidEvent when outside the window
    EventId Rel = InvalidEvent;
    EventId SectionAcq = InvalidEvent; ///< trace-level acquire id
    ThreadId Tid = 0;
    uint32_t SectionId = UINT32_MAX; ///< assigned on first constraint
  };
  // Window-clipped spans of the sections that end up in a constraint, for
  // the EventSections index below.
  struct SectionSpan {
    EventId Lo = InvalidEvent;
    EventId Hi = InvalidEvent;
    ThreadId Tid = 0;
  };
  std::vector<SectionSpan> Sections;
  auto sectionIdOf = [&](SpanPair &SP) -> uint32_t {
    if (SP.SectionId != UINT32_MAX)
      return SP.SectionId;
    SP.SectionId = static_cast<uint32_t>(Sections.size());
    SectionSpan Span;
    Span.Lo = SP.Acq != InvalidEvent ? SP.Acq : Window.Begin;
    Span.Hi = SP.Rel != InvalidEvent ? SP.Rel : Window.End - 1;
    Span.Tid = SP.Tid;
    Sections.push_back(Span);
    SectionConstraints.emplace_back();
    return SP.SectionId;
  };
  auto linkSections = [&](SpanPair &P, SpanPair &Q) {
    uint32_t LcIndex = static_cast<uint32_t>(LockConstraints.size() - 1);
    SectionConstraints[sectionIdOf(P)].push_back(LcIndex);
    SectionConstraints[sectionIdOf(Q)].push_back(LcIndex);
  };
  for (LockId Lock = 0; Lock < T.numLocks(); ++Lock) {
    std::vector<SpanPair> Pairs;
    for (const LockPair &P : T.lockPairsTouching(Lock, Window)) {
      SpanPair SP;
      SP.Tid = P.Tid;
      SP.SectionAcq = P.AcquireId;
      SP.Acq = P.acquireIn(Window);
      SP.Rel = P.releaseIn(Window);
      Pairs.push_back(SP);
    }
    for (size_t I = 0; I < Pairs.size(); ++I) {
      for (size_t J = I + 1; J < Pairs.size(); ++J) {
        SpanPair &P = Pairs[I];
        SpanPair &Q = Pairs[J];
        // Same-thread critical sections are already program-ordered.
        if (P.Tid == Q.Tid)
          continue;
        LockConstraint LC;
        LC.SectionAcqP = P.SectionAcq;
        LC.SectionAcqQ = Q.SectionAcq;
        bool PComplete = P.Acq != InvalidEvent && P.Rel != InvalidEvent;
        bool QComplete = Q.Acq != InvalidEvent && Q.Rel != InvalidEvent;
        if (PComplete && QComplete) {
          LC.Mutex = true;
          LC.RelP = P.Rel;
          LC.AcqQ = Q.Acq;
          LC.RelQ = Q.Rel;
          LC.AcqP = P.Acq;
          LockConstraints.push_back(LC);
          linkSections(P, Q);
          continue;
        }
        // A section missing its release holds the lock to the window end:
        // every other section must come first. A section missing its
        // acquire held the lock from the window start: it must come first.
        if (P.Rel == InvalidEvent && Q.Rel == InvalidEvent)
          continue; // cannot both hold to the end; unreachable on recorded
                    // traces, and no finite constraint expresses it
        if (P.Rel == InvalidEvent) {
          if (Q.Rel != InvalidEvent && P.Acq != InvalidEvent) {
            LC.RelP = Q.Rel;
            LC.AcqQ = P.Acq;
            LockConstraints.push_back(LC);
            linkSections(P, Q);
          }
          continue;
        }
        if (Q.Rel == InvalidEvent) {
          if (Q.Acq != InvalidEvent) {
            LC.RelP = P.Rel;
            LC.AcqQ = Q.Acq;
            LockConstraints.push_back(LC);
            linkSections(P, Q);
          }
          continue;
        }
        // P or Q started before the window (release without acquire):
        // that section must be first.
        if (P.Acq == InvalidEvent) {
          LC.RelP = P.Rel;
          LC.AcqQ = Q.Acq;
          LockConstraints.push_back(LC);
          linkSections(P, Q);
          continue;
        }
        if (Q.Acq == InvalidEvent) {
          LC.RelP = Q.Rel;
          LC.AcqQ = P.Acq;
          LockConstraints.push_back(LC);
          linkSections(P, Q);
        }
      }
    }
  }

  // Invert the section spans into a per-event index so the cone fixpoint
  // can find the constraints an event activates in O(enclosing sections).
  EventSections.resize(S.End - S.Begin);
  for (uint32_t Sid = 0; Sid < Sections.size(); ++Sid) {
    if (SectionConstraints[Sid].empty())
      continue;
    const SectionSpan &Span = Sections[Sid];
    const std::vector<EventId> &Events = ThreadEvents[Span.Tid];
    auto It = std::lower_bound(Events.begin(), Events.end(), Span.Lo);
    for (; It != Events.end() && *It <= Span.Hi; ++It)
      EventSections[*It - Window.Begin].push_back(Sid);
  }

  // Read-consistency skeletons are built on demand by readInfo().
  Reads = std::make_unique<ReadSlot[]>(S.End - S.Begin);

  if (Telemetry::enabled()) {
    // Container-footprint estimate: the index vectors plus the per-read
    // skeletons. An estimate is enough — the gauge tracks growth across
    // windows, not allocator-exact bytes.
    uint64_t Bytes = CrossEdges.size() * sizeof(CrossEdges[0]) +
                     LockConstraints.size() * sizeof(LockConstraint);
    for (const std::vector<EventId> &V : ThreadEvents)
      Bytes += V.size() * sizeof(EventId);
    for (const std::vector<EventId> &V : ThreadBranches)
      Bytes += V.size() * sizeof(EventId);
    for (const std::vector<EventId> &V : ThreadReads)
      Bytes += V.size() * sizeof(EventId);
    for (const std::vector<EventId> &V : VarWrites)
      Bytes += V.size() * sizeof(EventId);
    Bytes += AllReads.size() * sizeof(EventId);
    for (const std::vector<uint32_t> &V : EventSections)
      Bytes += sizeof(V) + V.size() * sizeof(uint32_t);
    for (const std::vector<uint32_t> &V : SectionConstraints)
      Bytes += sizeof(V) + V.size() * sizeof(uint32_t);
    Bytes += (S.End - S.Begin) * sizeof(ReadSlot);
    Mem.charge(Bytes);
  }
}

const WindowEncoding::ReadInfo &WindowEncoding::readInfo(EventId R) const {
  assert(Window.contains(R) && T[R].isRead() &&
         "read-consistency query for a non-read or outside the window");
  ReadSlot &Slot = Reads[R - Window.Begin];
  std::call_once(Slot.Built, [&] {
    Slot.Info = buildReadInfo(R);
    if (Telemetry::enabled()) {
      uint64_t Bytes = Slot.Info.Interfering.size() * sizeof(EventId);
      for (const ReadCandidate &C : Slot.Info.Candidates)
        Bytes += sizeof(C) + C.Others.size() * sizeof(EventId);
      Mem.charge(Bytes);
    }
  });
  return Slot.Info;
}

// The COP-invariant part of the Φ_value disjunction readValueFormula
// emits for read R.
WindowEncoding::ReadInfo WindowEncoding::buildReadInfo(EventId R) const {
  const Event &Read = T[R];
  VarId Var = Read.Target;
  Value Wanted = Read.Data;
  ReadInfo Info;

  for (EventId W : VarWrites[Var]) {
    // A write that must happen after the read can never interfere
    // (its order variable always exceeds the read's).
    if (W == R || Mhb.ordered(R, W))
      continue;
    Info.Interfering.push_back(W);
  }

  for (EventId W : Info.Interfering) {
    if (T[W].Data != Wanted)
      continue;
    // Paper pruning: skip candidate w1 when some other write w2
    // satisfies w1 ≼ w2 ≼ r — the read can never observe w1.
    bool Shadowed = false;
    for (EventId W2 : Info.Interfering) {
      if (W2 != W && Mhb.ordered(W, W2) && Mhb.ordered(W2, R)) {
        Shadowed = true;
        break;
      }
    }
    if (Shadowed)
      continue;
    ReadCandidate Cand;
    Cand.Write = W;
    for (EventId W2 : Info.Interfering) {
      if (W2 == W)
        continue;
      // w2 ≼ w never interferes: it is always before w.
      if (Mhb.ordered(W2, W))
        continue;
      Cand.Others.push_back(W2);
    }
    Info.Candidates.push_back(std::move(Cand));
  }

  if (Wanted == InitialValues[Var]) {
    bool SomeWriteMustPrecede = false;
    for (EventId W : Info.Interfering) {
      if (Mhb.ordered(W, R)) {
        SomeWriteMustPrecede = true;
        break;
      }
    }
    Info.InitialOk = !SomeWriteMustPrecede;
  }
  return Info;
}
