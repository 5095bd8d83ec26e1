//===- detect/WitnessChecker.cpp - Witness building and checks ------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/WitnessChecker.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_set>

using namespace rvp;

namespace {

/// Shared validation core: permutation, per-thread program order, MHB
/// event rules, lock mutual exclusion, and the concrete-read closure
/// seeded from the guarding branches of \p Seeds. Fills \p PosOut with
/// the witness position of every event. Every index is a flat vector
/// (by window offset, thread, lock or variable), so a check costs one
/// pass over the window plus the closure.
WitnessCheckResult checkCore(const Trace &T, Span S,
                             const std::vector<EventId> &Order,
                             const std::vector<EventId> &Seeds,
                             const RaceEncoder &Encoder,
                             const std::vector<Value> &Initial,
                             std::vector<uint32_t> &PosOut,
                             const std::unordered_set<EventId>
                                 &SkipLockEffects = {}) {
  auto fail = [](std::string Msg) {
    return WitnessCheckResult{false, std::move(Msg)};
  };
  assert(Encoder.windowEncoding().Window.Begin == S.Begin &&
         Encoder.windowEncoding().Window.End == S.End &&
         "the encoder must belong to the checked window");

  // 1. Permutation of the window.
  if (Order.size() != S.size())
    return fail("witness does not cover the window");
  std::vector<uint32_t> PosOf(S.size(), UINT32_MAX);
  for (uint32_t Pos = 0; Pos < Order.size(); ++Pos) {
    EventId Id = Order[Pos];
    if (!S.contains(Id))
      return fail("witness contains an event outside the window");
    if (PosOf[Id - S.Begin] != UINT32_MAX)
      return fail("witness repeats an event");
    PosOf[Id - S.Begin] = Pos;
  }
  auto posOf = [&](EventId Id) { return PosOf[Id - S.Begin]; };

  // 2. Program order per thread; fork/begin, end/join, wait/notify rules;
  //    lock mutual exclusion.
  constexpr ThreadId NoHolder = static_cast<ThreadId>(-1);
  std::vector<EventId> LastOfThread(T.numThreads(), InvalidEvent);
  std::vector<ThreadId> Holder(T.numLocks(), NoHolder);
  std::unordered_set<uint32_t> NotifySeen; // wait/notify match ids

  // Sections active at window entry (release without acquire) hold their
  // lock from the start.
  for (LockId Lock = 0; Lock < T.numLocks(); ++Lock)
    for (const LockPair &P : T.lockPairsTouching(Lock, S))
      if (P.acquireIn(S) == InvalidEvent)
        Holder[Lock] = P.Tid;

  for (uint32_t Pos = 0; Pos < Order.size(); ++Pos) {
    const EventId Id = Order[Pos];
    const Event &E = T[Id];

    EventId &Last = LastOfThread[E.Tid];
    if (Last != InvalidEvent && Last > Id)
      return fail(formatString("program order violated in thread %s",
                               T.threadName(E.Tid).c_str()));
    Last = Id;

    if (SkipLockEffects.count(Id)) {
      // Deadlock queries: this event is a pending lock request (or the
      // release of one); it has no lock-state effect in the witness.
      continue;
    }

    switch (E.Kind) {
    case EventKind::Begin: {
      EventId Fork = T.forkOf(E.Tid);
      if (Fork != InvalidEvent && S.contains(Fork) && posOf(Fork) > Pos)
        return fail("begin before its fork");
      break;
    }
    case EventKind::Join: {
      EventId End = T.endOf(E.Target);
      if (End != InvalidEvent && S.contains(End) && posOf(End) > Pos)
        return fail("join before the joined thread's end");
      break;
    }
    case EventKind::Acquire: {
      if (Holder[E.Target] != NoHolder)
        return fail(formatString("lock %s acquired while held",
                                 T.lockName(E.Target).c_str()));
      Holder[E.Target] = E.Tid;
      if (E.Aux != 0) {
        EventId Notify = T.notifyOfMatch(E.Aux);
        if (Notify != InvalidEvent && S.contains(Notify) &&
            !NotifySeen.count(E.Aux))
          return fail("wait resumed before its notify");
      }
      break;
    }
    case EventKind::Release:
      if (Holder[E.Target] != E.Tid)
        return fail(formatString("lock %s released by non-holder",
                                 T.lockName(E.Target).c_str()));
      Holder[E.Target] = NoHolder;
      break;
    case EventKind::Notify:
      if (E.Aux != 0)
        NotifySeen.insert(E.Aux);
      break;
    default:
      break;
    }
  }

  // 3. Concrete reads: every read that the query's control flow depends
  //    on must observe its recorded value in the witness (the
  //    construction from Theorem 3's proof). Seed with the guarding
  //    branches of the query events, close over thread prefixes and
  //    reads-from edges.
  std::vector<char> MustConcrete(S.size(), 0);
  std::vector<EventId> Work;
  auto need = [&](EventId Id) {
    char &Needed = MustConcrete[Id - S.Begin];
    if (!Needed) {
      Needed = 1;
      Work.push_back(Id);
    }
  };
  for (EventId Seed : Seeds)
    for (EventId Branch : Encoder.guardingBranches(Seed))
      need(Branch);

  // Reads-from in witness order, by window offset of the read.
  std::vector<EventId> LastWrite(T.numVars(), InvalidEvent);
  std::vector<EventId> ReadsFrom(S.size(), InvalidEvent);
  for (EventId Id : Order) {
    const Event &E = T[Id];
    if (E.isRead())
      ReadsFrom[Id - S.Begin] = LastWrite[E.Target];
    else if (E.isWrite())
      LastWrite[E.Target] = Id;
  }

  // A branch or write needs every earlier read of its thread. Those form
  // a prefix of the thread's in-window reads, so one cursor per thread
  // visits each read once however many events need it.
  const std::vector<std::vector<EventId>> &ThreadReads =
      Encoder.windowEncoding().ThreadReads;
  std::vector<uint32_t> ReadCursor(ThreadReads.size(), 0);
  while (!Work.empty()) {
    EventId Id = Work.back();
    Work.pop_back();
    const Event &E = T[Id];
    if (E.Kind == EventKind::Branch || E.isWrite()) {
      const std::vector<EventId> &Reads = ThreadReads[E.Tid];
      uint32_t &Cursor = ReadCursor[E.Tid];
      for (; Cursor < Reads.size() && Reads[Cursor] < Id; ++Cursor)
        need(Reads[Cursor]);
      continue;
    }
    if (!E.isRead())
      continue;
    EventId From = ReadsFrom[Id - S.Begin];
    if (From == InvalidEvent) {
      Value Expect =
          E.Target < Initial.size() ? Initial[E.Target] : 0;
      if (E.Data != Expect)
        return fail(formatString(
            "concrete read %u observes the initial value %lld, expected "
            "%lld",
            Id, static_cast<long long>(Expect),
            static_cast<long long>(E.Data)));
      continue;
    }
    if (T[From].Data != E.Data)
      return fail(formatString(
          "concrete read %u observes %lld from write %u, expected %lld",
          Id, static_cast<long long>(T[From].Data), From,
          static_cast<long long>(E.Data)));
    need(From); // the justifying write must itself be concrete
  }

  PosOut = std::move(PosOf);
  return {};
}

} // namespace

WitnessCheckResult rvp::checkWitness(const Trace &T, Span S,
                                     const std::vector<EventId> &Order,
                                     EventId A, EventId B,
                                     const RaceEncoder &Encoder,
                                     const std::vector<Value> &Initial) {
  std::vector<uint32_t> Pos;
  WitnessCheckResult Core =
      checkCore(T, S, Order, {A, B}, Encoder, Initial, Pos);
  if (!Core.Ok)
    return Core;
  // Adjacency of the race pair (either orientation, footnote 2).
  uint32_t PosA = Pos[A - S.Begin];
  uint32_t PosB = Pos[B - S.Begin];
  if (PosA + 1 != PosB && PosB + 1 != PosA)
    return WitnessCheckResult{false,
                              "race events are not adjacent in the witness"};
  return {};
}

WitnessCheckResult rvp::checkDeadlockWitness(
    const Trace &T, Span S, const std::vector<EventId> &Order,
    EventId ReqA, EventId ReqB, const LockPair &OutA, const LockPair &OutB,
    const std::unordered_set<EventId> &SkipLockEffects,
    const RaceEncoder &Encoder, const std::vector<Value> &Initial) {
  std::vector<uint32_t> Pos;
  WitnessCheckResult Core = checkCore(T, S, Order, {ReqA, ReqB}, Encoder,
                                      Initial, Pos, SkipLockEffects);
  if (!Core.Ok)
    return Core;
  auto posOf = [&](EventId Id) { return Pos[Id - S.Begin]; };
  if (!(posOf(OutB.AcquireId) < posOf(ReqA) &&
        posOf(ReqA) < posOf(OutB.ReleaseId)))
    return WitnessCheckResult{
        false, "request A does not fall inside the held section"};
  if (!(posOf(OutA.AcquireId) < posOf(ReqB) &&
        posOf(ReqB) < posOf(OutA.ReleaseId)))
    return WitnessCheckResult{
        false, "request B does not fall inside the held section"};
  return {};
}

WitnessCheckResult rvp::checkAtomicityWitness(
    const Trace &T, Span S, const std::vector<EventId> &Order,
    EventId First, EventId Remote, EventId Second,
    const RaceEncoder &Encoder, const std::vector<Value> &Initial) {
  std::vector<uint32_t> Pos;
  WitnessCheckResult Core =
      checkCore(T, S, Order, {First, Remote, Second}, Encoder, Initial,
                Pos);
  if (!Core.Ok)
    return Core;
  if (!(Pos[First - S.Begin] < Pos[Remote - S.Begin] &&
        Pos[Remote - S.Begin] < Pos[Second - S.Begin]))
    return WitnessCheckResult{
        false, "remote access is not between the atomic pair"};
  return {};
}

std::vector<EventId> rvp::placeByGaps(const WindowEncoding &Enc,
                                      const std::vector<EventId> &Cone,
                                      const OrderModel &Model,
                                      EventId MergedFirst,
                                      EventId MergedSecond) {
  const Span W = Enc.Window;
  std::vector<char> InCone(W.size(), 0);
  for (EventId E : Cone)
    InCone[E - W.Begin] = 1;
  auto posOf = [&](EventId E) {
    auto It = Model.find(E);
    return It == Model.end() ? INT64_MAX : It->second;
  };

  /// A cone event, its sort key, and the block of non-cone events that
  /// follow it in its thread (indices into Enc.ThreadEvents[Tid]).
  struct Slot {
    int64_t Pos;
    uint64_t Tie;
    EventId Id;
    ThreadId Tid;
    uint32_t BlockBegin;
    uint32_t BlockEnd;
  };
  std::vector<Slot> Slots;
  Slots.reserve(Cone.size());
  std::vector<EventId> Order;
  Order.reserve(W.size());
  for (ThreadId Tid = 0; Tid < Enc.ThreadEvents.size(); ++Tid) {
    const std::vector<EventId> &Events = Enc.ThreadEvents[Tid];
    const uint32_t N = static_cast<uint32_t>(Events.size());
    auto inCone = [&](uint32_t I) { return InCone[Events[I] - W.Begin]; };
    uint32_t I = 0;
    // The events before the thread's first cone event lead the schedule.
    for (; I < N && !inCone(I); ++I)
      Order.push_back(Events[I]);
    while (I < N) {
      uint32_t J = I + 1;
      while (J < N && !inCone(J))
        ++J;
      EventId E = Events[I];
      // Ties go by event id; the merged first event sorts right before
      // its partner, at the partner's position.
      Slot S{posOf(E), 2 * uint64_t{E}, E, Tid, I + 1, J};
      if (E == MergedFirst) {
        S.Pos = posOf(MergedSecond);
        S.Tie = 2 * uint64_t{MergedSecond} - 1;
      }
      Slots.push_back(S);
      I = J;
    }
  }
  std::sort(Slots.begin(), Slots.end(), [](const Slot &X, const Slot &Y) {
    return X.Pos != Y.Pos ? X.Pos < Y.Pos : X.Tie < Y.Tie;
  });

  auto placeBlock = [&](const Slot &S) {
    const std::vector<EventId> &Events = Enc.ThreadEvents[S.Tid];
    Order.insert(Order.end(), Events.begin() + S.BlockBegin,
                 Events.begin() + S.BlockEnd);
  };
  const Slot *Pending = nullptr; // the merged first event's block
  for (const Slot &S : Slots) {
    Order.push_back(S.Id);
    if (S.Id == MergedFirst) {
      Pending = &S; // placed after its partner, keeping the pair adjacent
      continue;
    }
    if (Pending) {
      placeBlock(*Pending);
      Pending = nullptr;
    }
    placeBlock(S);
  }
  if (Pending)
    placeBlock(*Pending);
  return Order;
}
