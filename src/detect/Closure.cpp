//===- detect/Closure.cpp - Happens-before style closures -------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Closure.h"

#include <unordered_map>

using namespace rvp;

EventClosure::EventClosure(const Trace &T, Span S, ClosureConfig Config)
    : T(T), Window(S) {
  uint32_t NumThreads = T.numThreads();
  Clocks.assign(S.size(), VectorClock(NumThreads));

  std::vector<VectorClock> ThreadClock(NumThreads,
                                       VectorClock(NumThreads));
  std::unordered_map<ThreadId, VectorClock> PendingBegin; // fork -> begin
  std::unordered_map<ThreadId, VectorClock> EndClock;     // end -> join
  std::unordered_map<LockId, VectorClock> LastRelease;    // lock sync
  std::unordered_map<VarId, VectorClock> LastVolatileWrite;
  std::unordered_map<uint32_t, VectorClock> WaitReleaseClock; // by match
  std::unordered_map<uint32_t, VectorClock> NotifyClock;      // by match

  for (EventId Id = S.Begin; Id < S.End; ++Id) {
    const Event &E = T[Id];
    VectorClock &Current = ThreadClock[E.Tid];

    // Inbound edges join into the thread's clock before the event ticks.
    switch (E.Kind) {
    case EventKind::Begin:
      if (Config.ForkJoin) {
        auto It = PendingBegin.find(E.Tid);
        if (It != PendingBegin.end())
          Current.join(It->second);
      }
      break;
    case EventKind::Join:
      if (Config.ForkJoin) {
        auto It = EndClock.find(E.Target);
        if (It != EndClock.end())
          Current.join(It->second);
      }
      break;
    case EventKind::Acquire:
      if (Config.LockSync) {
        auto It = LastRelease.find(E.Target);
        if (It != LastRelease.end())
          Current.join(It->second);
      }
      if (Config.WaitNotify && E.Aux != 0) {
        auto It = NotifyClock.find(E.Aux);
        if (It != NotifyClock.end())
          Current.join(It->second);
      }
      break;
    case EventKind::Notify:
      if (Config.WaitNotify && E.Aux != 0) {
        auto It = WaitReleaseClock.find(E.Aux);
        if (It != WaitReleaseClock.end())
          Current.join(It->second);
      }
      break;
    case EventKind::Read:
      if (Config.VolatileSync && E.Volatile) {
        auto It = LastVolatileWrite.find(E.Target);
        if (It != LastVolatileWrite.end())
          Current.join(It->second);
      }
      break;
    case EventKind::Write:
      if (Config.VolatileSync && E.Volatile) {
        auto It = LastVolatileWrite.find(E.Target);
        if (It != LastVolatileWrite.end())
          Current.join(It->second);
      }
      break;
    default:
      break;
    }
    // The event itself.
    Current.tick(E.Tid);
    Clocks[Id - S.Begin] = Current;

    // Outbound edges snapshot the clock after the event.
    switch (E.Kind) {
    case EventKind::Fork:
      if (Config.ForkJoin)
        PendingBegin[E.Target] = Current;
      break;
    case EventKind::End:
      if (Config.ForkJoin)
        EndClock[E.Tid] = Current;
      break;
    case EventKind::Release:
      if (Config.LockSync)
        LastRelease[E.Target] = Current;
      if (Config.WaitNotify && E.Aux != 0)
        WaitReleaseClock[E.Aux] = Current;
      break;
    case EventKind::Notify:
      if (Config.WaitNotify && E.Aux != 0)
        NotifyClock[E.Aux] = Current;
      break;
    case EventKind::Write:
      if (Config.VolatileSync && E.Volatile)
        LastVolatileWrite[E.Target] = Current;
      break;
    default:
      break;
    }
  }
}
