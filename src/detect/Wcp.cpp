//===- detect/Wcp.cpp - Streaming WCP vector-clock tier ---------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Wcp.h"

#include <algorithm>
#include <cstddef>
#include <unordered_map>

using namespace rvp;

namespace {

/// Rule (a) state: release sends of completed sections over (lock, var),
/// split by access kind so reads only order against writes.
uint64_t lockVarKey(LockId L, VarId V) {
  return static_cast<uint64_t>(L) << 32 | V;
}

/// One open critical section of a thread. AcqTime is 0 for sections whose
/// acquire precedes the window; their rule-(b) trigger is then vacuously
/// true, which over-orders — the safe direction: an over-ordered pair
/// falls back to the solver, it is never called racy.
struct OpenSection {
  LockId Lock = 0;
  uint64_t AcqTime = 0;
  std::vector<VarId> Reads, Writes;
};

/// Rule (b) state per lock: completed-section records in release order,
/// plus each consumer thread's import cursor and not-yet-triggered queue.
struct SectionRecord {
  ThreadId Tid = 0;
  uint64_t AcqTime = 0;
  VectorClock RelSend;
};

struct LockConsumer {
  size_t NextImport = 0;        ///< records already moved into Pending
  std::vector<size_t> Pending;  ///< record indices awaiting their trigger
};

struct LockState {
  std::vector<SectionRecord> Records;
  std::unordered_map<ThreadId, LockConsumer> Consumers;
};

} // namespace

WcpIndex::WcpIndex(const Trace &T, Span S, const EventClosure &Mhb)
    : T(T), Window(S), Mhb(Mhb) {
  build();
}

void WcpIndex::build() {
  const uint32_t NumThreads = T.numThreads();
  P.assign(Window.size(), VectorClock(NumThreads));

  std::vector<VectorClock> Clock(NumThreads, VectorClock(NumThreads));

  // HB-edge carries (rule (c): x ≺wcp y ≤hb z ⇒ x ≺wcp z), keyed the same
  // way as Closure.cpp's.
  std::unordered_map<ThreadId, VectorClock> PendingBegin, EndClock;
  std::unordered_map<LockId, VectorClock> LastRelease;
  std::unordered_map<VarId, VectorClock> LastVolatileWrite;
  std::unordered_map<uint32_t, VectorClock> WaitRelease, NotifyClock;

  std::unordered_map<uint64_t, VectorClock> ReadSends, WriteSends;
  std::unordered_map<LockId, LockState> Locks;
  std::vector<std::vector<OpenSection>> Open(NumThreads);

  // A thread that enters the window holding a lock has a section open from
  // the window start, so rule (a) still sees its accesses.
  {
    std::vector<const LockPair *> Entry;
    for (LockId Lock = 0; Lock < T.numLocks(); ++Lock)
      for (const LockPair &Pair : T.lockPairsTouching(Lock, Window))
        if (Pair.acquireIn(Window) == InvalidEvent)
          Entry.push_back(&Pair);
    std::sort(Entry.begin(), Entry.end(),
              [](const LockPair *A, const LockPair *B) {
                return A->ReleaseId < B->ReleaseId;
              });
    for (const LockPair *Pair : Entry)
      Open[Pair->Tid].push_back(OpenSection{Pair->Lock, 0, {}, {}});
  }

  auto joinIfPresent = [](VectorClock &Into, const auto &Map, auto Key) {
    auto It = Map.find(Key);
    if (It != Map.end())
      Into.join(It->second);
  };

  // Rule (b) drain: import records completed since this thread's last
  // visit, then join every record whose acquire the consumer's P already
  // covers. Joining a send can raise P enough to trigger another pending
  // record (chained sections), so iterate to a local fixpoint.
  auto drainLock = [&](ThreadId Tid, LockId Lock) {
    auto LockIt = Locks.find(Lock);
    if (LockIt == Locks.end())
      return;
    LockState &LS = LockIt->second;
    LockConsumer &C = LS.Consumers[Tid];
    while (C.NextImport < LS.Records.size())
      C.Pending.push_back(C.NextImport++);
    VectorClock &PT = Clock[Tid];
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (size_t I = 0; I < C.Pending.size();) {
        const SectionRecord &R = LS.Records[C.Pending[I]];
        if (PT.covers({R.Tid, R.AcqTime})) {
          PT.join(R.RelSend);
          C.Pending[I] = C.Pending.back();
          C.Pending.pop_back();
          Progress = true;
        } else {
          ++I;
        }
      }
    }
  };

  for (EventId Id = Window.Begin; Id < Window.End; ++Id) {
    const Event &E = T[Id];
    VectorClock &PT = Clock[E.Tid];

    // Inbound edges join before the event's own snapshot.
    switch (E.Kind) {
    case EventKind::Begin:
      joinIfPresent(PT, PendingBegin, E.Tid);
      break;
    case EventKind::Join:
      joinIfPresent(PT, EndClock, static_cast<ThreadId>(E.Target));
      break;
    case EventKind::Acquire:
      joinIfPresent(PT, LastRelease, static_cast<LockId>(E.Target));
      if (E.Aux != 0)
        joinIfPresent(PT, NotifyClock, E.Aux);
      Open[E.Tid].push_back(
          OpenSection{static_cast<LockId>(E.Target), time(Id), {}, {}});
      break;
    case EventKind::Notify:
      if (E.Aux != 0)
        joinIfPresent(PT, WaitRelease, E.Aux);
      break;
    case EventKind::Read:
    case EventKind::Write:
      if (E.Volatile) {
        joinIfPresent(PT, LastVolatileWrite, static_cast<VarId>(E.Target));
      } else {
        // Rule (a): under each held lock, join the sends of earlier
        // sections whose accesses conflict with this one, and record the
        // access into every enclosing section for its own send.
        for (OpenSection &S : Open[E.Tid]) {
          uint64_t Key = lockVarKey(S.Lock, E.Target);
          joinIfPresent(PT, WriteSends, Key);
          if (E.isWrite()) {
            joinIfPresent(PT, ReadSends, Key);
            S.Writes.push_back(E.Target);
          } else {
            S.Reads.push_back(E.Target);
          }
        }
      }
      break;
    case EventKind::Release:
      // Rule (b): conclusions (release₁ ≺wcp release₂) land exactly at
      // this release, before its own send is published below.
      drainLock(E.Tid, static_cast<LockId>(E.Target));
      break;
    default:
      break; // Branch, Wait marker, Fork, End: no inbound edges
    }

    // Own program order is MHB, never proper WCP: P holds no own tick.
    P[Id - Window.Begin] = PT;

    // Outbound edges snapshot the clock after the event.
    switch (E.Kind) {
    case EventKind::Fork:
      PendingBegin[static_cast<ThreadId>(E.Target)] = PT;
      break;
    case EventKind::End:
      EndClock[E.Tid] = PT;
      break;
    case EventKind::Release: {
      if (E.Aux != 0)
        WaitRelease[E.Aux] = PT;
      LastRelease[static_cast<LockId>(E.Target)] = PT;
      // Close the innermost open section on this lock and publish its
      // send: P at the release joined with the releaser's own time — the
      // one place WCP hands out its own component (rules (a)/(b)).
      std::vector<OpenSection> &Stack = Open[E.Tid];
      for (size_t I = Stack.size(); I-- > 0;) {
        if (Stack[I].Lock != static_cast<LockId>(E.Target))
          continue;
        OpenSection S = std::move(Stack[I]);
        Stack.erase(Stack.begin() + static_cast<ptrdiff_t>(I));
        VectorClock RelSend = PT;
        RelSend.joinEpoch({E.Tid, time(Id)});
        std::sort(S.Reads.begin(), S.Reads.end());
        S.Reads.erase(std::unique(S.Reads.begin(), S.Reads.end()),
                      S.Reads.end());
        std::sort(S.Writes.begin(), S.Writes.end());
        S.Writes.erase(std::unique(S.Writes.begin(), S.Writes.end()),
                       S.Writes.end());
        for (VarId V : S.Reads)
          ReadSends[lockVarKey(S.Lock, V)].join(RelSend);
        for (VarId V : S.Writes)
          WriteSends[lockVarKey(S.Lock, V)].join(RelSend);
        Locks[S.Lock].Records.push_back(
            SectionRecord{E.Tid, S.AcqTime, std::move(RelSend)});
        break;
      }
      break;
    }
    case EventKind::Notify:
      if (E.Aux != 0)
        NotifyClock[E.Aux] = PT;
      break;
    case EventKind::Write:
      if (E.Volatile)
        LastVolatileWrite[static_cast<VarId>(E.Target)] = PT;
      break;
    default:
      break;
    }
  }
}
