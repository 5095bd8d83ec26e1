//===- detect/Closure.h - Happens-before style closures ----------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vector-clock closure over the events of one window, with configurable
/// edge sets. One engine serves three consumers:
///
///  * MHB (must happen-before, Section 2.2/3.2): program order + fork/begin
///    + end/join + the wait/notify ordering — the partial order every
///    reordering must respect. Used by the constraint builder and the
///    quick check.
///  * HB (Lamport happens-before): MHB + release->later-acquire edges per
///    lock + volatile write->access edges. The classic sound detector.
///  * CP base: MHB + volatile edges. The CP detector composes its
///    *active* lock edges with HB on both sides.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_CLOSURE_H
#define RVP_DETECT_CLOSURE_H

#include "detect/VectorClock.h"
#include "trace/Trace.h"

#include <cassert>
#include <vector>

namespace rvp {

struct ClosureConfig {
  bool ForkJoin = true;     ///< fork->begin, end->join
  bool WaitNotify = true;   ///< release(wait)->notify->acquire(wait)
  bool LockSync = false;    ///< release->later acquire, same lock
  bool VolatileSync = false; ///< volatile write->later access, same var

  static ClosureConfig mhb() { return {true, true, false, false}; }
  static ClosureConfig hb() { return {true, true, true, true}; }
  /// CP base order: HB minus the lock edges (re-added selectively).
  static ClosureConfig cpBase() { return {true, true, false, true}; }
};

class EventClosure {
public:
  /// Builds per-event clocks for \p S.
  EventClosure(const Trace &T, Span S, ClosureConfig Config);

  /// True iff \p A happens before \p B in this closure (strict). Inline
  /// because guardingBranches' binary search makes this the hottest call
  /// on the sliced encode path. Same-thread pairs short-circuit on trace
  /// order: every closure config includes program order, so within a
  /// thread `ordered` and `<` coincide.
  bool ordered(EventId A, EventId B) const {
    assert(Window.contains(A) && Window.contains(B) &&
           "events outside the closure window");
    if (A == B)
      return false;
    const Event &EA = T[A];
    if (EA.Tid == T[B].Tid)
      return A < B;
    const VectorClock &CA = Clocks[A - Window.Begin];
    const VectorClock &CB = Clocks[B - Window.Begin];
    return CA.get(EA.Tid) <= CB.get(EA.Tid);
  }

  Span span() const { return Window; }

private:
  const Trace &T;
  Span Window;
  std::vector<VectorClock> Clocks; ///< indexed by Id - Window.Begin
};

} // namespace rvp

#endif // RVP_DETECT_CLOSURE_H
