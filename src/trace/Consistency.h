//===- trace/Consistency.h - Sequential-consistency checking ----*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the trace consistency requirements of Section 2.2:
///
///  * Read consistency: every read returns the value of the most recent
///    write to the same variable (variables start at 0).
///  * Lock mutual exclusion: per lock, acquires and releases alternate and
///    each pair shares a thread.
///  * Must happen-before: begin is the first event of its thread and is
///    preceded by its fork; end is the last; join follows the joined
///    thread's end; a matched notify falls between the lowered
///    release/acquire of its wait.
///
/// Two modes: Strict validates a complete execution; Fragment tolerates
/// truncation artifacts (missing begin/fork, locks held at trace end, a
/// join without the end in view), as produced by windowing or by witness
/// prefixes, which Theorem 1 permits.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_TRACE_CONSISTENCY_H
#define RVP_TRACE_CONSISTENCY_H

#include "trace/Trace.h"

#include <string>
#include <unordered_set>
#include <vector>

namespace rvp {

enum class ConsistencyMode {
  Strict,   ///< Complete executions recorded from start.
  Fragment, ///< Windows and reordered prefixes (incomplete traces).
};

/// Result of a consistency check; Ok is true iff the trace satisfies all
/// serial specifications. On failure, Offender identifies the first
/// violating event and Message explains the violation.
struct ConsistencyResult {
  bool Ok = true;
  EventId Offender = InvalidEvent;
  std::string Message;

  static ConsistencyResult failure(EventId Id, std::string Msg) {
    return {false, Id, std::move(Msg)};
  }
};

/// The streaming checker behind checkConsistency: feed events in
/// sequence order through step(), then call finish(). A failed step()
/// leaves the state as it was, so a reader that drops the offending event
/// can go on checking the events after it (`--skip-bad-events`); the
/// verdict on each event depends only on the events accepted before it.
/// The trace supplies names and initial values only, so an event can be
/// judged before it is appended to it.
class ConsistencyChecker {
public:
  ConsistencyChecker(const Trace &T, ConsistencyMode Mode)
      : T(T), Mode(Mode) {}

  /// Checks \p E, reported as event \p Id, against the events accepted so
  /// far and, when it passes, accepts it.
  ConsistencyResult step(const Event &E, EventId Id);
  /// End of the sequence: Strict mode requires every lock released.
  ConsistencyResult finish() const;

private:
  struct ThreadState {
    bool Started = false;
    bool Ended = false;
    bool Forked = false;
  };
  struct LockState {
    bool Held = false;
    ThreadId Holder = 0;
  };
  struct VarState {
    bool Written = false;
    Value Last = 0;
  };

  /// Dense per-id state, grown on first touch.
  template <typename S> static S &at(std::vector<S> &States, uint32_t Id) {
    if (Id >= States.size())
      States.resize(Id + 1);
    return States[Id];
  }

  const Trace &T;
  ConsistencyMode Mode;
  std::vector<ThreadState> Threads;
  std::vector<LockState> Locks;
  std::vector<VarState> Vars;
  std::unordered_set<uint32_t> PendingWaits;
  std::unordered_set<uint32_t> SeenNotify;
};

/// Checks a sequence of events given by ids \p Order into \p T. The
/// sequence need not be a permutation of the whole trace (prefixes and
/// windows are sequences too).
ConsistencyResult checkConsistency(const Trace &T,
                                   const std::vector<EventId> &Order,
                                   ConsistencyMode Mode);

/// Checks the trace in its recorded order.
ConsistencyResult checkConsistency(const Trace &T, ConsistencyMode Mode);

} // namespace rvp

#endif // RVP_TRACE_CONSISTENCY_H
