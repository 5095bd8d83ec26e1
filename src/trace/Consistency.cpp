//===- trace/Consistency.cpp - Sequential-consistency checking ------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Consistency.h"

#include "support/StringUtils.h"

#include <numeric>

using namespace rvp;

static ConsistencyResult fail(EventId Id, std::string Msg) {
  return ConsistencyResult::failure(Id, std::move(Msg));
}

ConsistencyResult ConsistencyChecker::step(const Event &E, EventId Id) {
  // Every rule fails before it changes any state.
  ThreadState &TS = at(Threads, E.Tid);
  if (TS.Ended)
    return fail(Id, "event after end of thread " + T.threadName(E.Tid));

  switch (E.Kind) {
  case EventKind::Read: {
    const VarState &VS = at(Vars, E.Target);
    Value Expected = VS.Written ? VS.Last : T.initialValueOf(E.Target);
    if (E.Data != Expected)
      return fail(Id, formatString(
                          "read of %s returned %lld but last write was %lld",
                          T.varName(E.Target).c_str(),
                          static_cast<long long>(E.Data),
                          static_cast<long long>(Expected)));
    break;
  }
  case EventKind::Write:
    at(Vars, E.Target) = {true, E.Data};
    break;
  case EventKind::Acquire: {
    LockState &LS = at(Locks, E.Target);
    if (LS.Held)
      return fail(Id, formatString("lock %s acquired while held by %s",
                                   T.lockName(E.Target).c_str(),
                                   T.threadName(LS.Holder).c_str()));
    // A wait() resume must be preceded by its matched notify.
    if (E.Aux != 0 && Mode == ConsistencyMode::Strict &&
        !SeenNotify.count(E.Aux))
      return fail(Id, "wait resumed before its matching notify");
    LS.Held = true;
    LS.Holder = E.Tid;
    break;
  }
  case EventKind::Release: {
    LockState &LS = at(Locks, E.Target);
    if (!LS.Held) {
      // A fragment may start inside a critical section.
      if (Mode == ConsistencyMode::Strict)
        return fail(Id, formatString("release of %s without acquire",
                                     T.lockName(E.Target).c_str()));
    } else if (LS.Holder != E.Tid) {
      return fail(Id, formatString("lock %s released by non-holder",
                                   T.lockName(E.Target).c_str()));
    }
    LS.Held = false;
    if (E.Aux != 0)
      PendingWaits.insert(E.Aux);
    break;
  }
  case EventKind::Notify:
    if (E.Aux != 0) {
      if (Mode == ConsistencyMode::Strict && !PendingWaits.count(E.Aux))
        return fail(Id, "notify before its matching wait suspended");
      SeenNotify.insert(E.Aux);
    }
    break;
  case EventKind::Fork: {
    ThreadState &Child = at(Threads, E.Target);
    if (Child.Forked)
      return fail(Id, formatString("thread %s forked twice",
                                   T.threadName(E.Target).c_str()));
    if (Child.Started)
      return fail(Id, formatString("thread %s forked after it started",
                                   T.threadName(E.Target).c_str()));
    Child.Forked = true;
    break;
  }
  case EventKind::Begin:
    if (TS.Started)
      return fail(Id, "begin is not the first event of its thread");
    if (Mode == ConsistencyMode::Strict && E.Tid != RootThread &&
        !TS.Forked)
      return fail(Id, formatString("thread %s begins before it is forked",
                                   T.threadName(E.Tid).c_str()));
    break;
  case EventKind::End:
    TS.Ended = true;
    break;
  case EventKind::Join:
    if (Mode == ConsistencyMode::Strict && !at(Threads, E.Target).Ended)
      return fail(Id, formatString("join on %s before its end",
                                   T.threadName(E.Target).c_str()));
    break;
  case EventKind::Branch:
    break;
  case EventKind::Wait:
    return fail(Id, "unlowered wait event in trace");
  }
  // at() may have grown Threads: look the thread up again.
  Threads[E.Tid].Started = true;
  return {};
}

ConsistencyResult ConsistencyChecker::finish() const {
  if (Mode == ConsistencyMode::Fragment)
    return {};
  for (LockId Lock = 0; Lock < Locks.size(); ++Lock)
    if (Locks[Lock].Held)
      return fail(InvalidEvent, formatString("lock %s still held at end",
                                             T.lockName(Lock).c_str()));
  return {};
}

ConsistencyResult rvp::checkConsistency(const Trace &T,
                                        const std::vector<EventId> &Order,
                                        ConsistencyMode Mode) {
  ConsistencyChecker C(T, Mode);
  for (EventId Id : Order)
    if (ConsistencyResult R = C.step(T[Id], Id); !R.Ok)
      return R;
  return C.finish();
}

ConsistencyResult rvp::checkConsistency(const Trace &T,
                                        ConsistencyMode Mode) {
  std::vector<EventId> Order(T.size());
  std::iota(Order.begin(), Order.end(), 0);
  return checkConsistency(T, Order, Mode);
}
