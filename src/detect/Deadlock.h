//===- detect/Deadlock.h - Predictive deadlock detection ---------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Another maximal-causal-model property (Section 2.5): predicting
/// resource deadlocks from one — possibly deadlock-free — recorded
/// execution. A candidate is a pair of *lock dependencies*: thread A
/// acquires lock m while holding lock l, thread B acquires l while
/// holding m. The deadlock is real iff a feasible reordering reaches the
/// hold-and-wait state: each request falls inside the other thread's held
/// section, with the usual MHB/lock/control-flow feasibility constraints
/// and the requesting sections' own mutual-exclusion constraints dropped
/// (in the deadlocked prefix they never start).
///
/// As with races, a satisfying order is a witness; its thread schedule can
/// be replayed in the interpreter to drive the program into the actual
/// deadlock.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_DEADLOCK_H
#define RVP_DETECT_DEADLOCK_H

#include "detect/Detect.h"
#include "trace/Trace.h"

#include <string>
#include <vector>

namespace rvp {

struct DeadlockReport {
  ThreadId ThreadA = 0, ThreadB = 0;
  LockId LockHeldByA = 0; ///< requested by B
  LockId LockHeldByB = 0; ///< requested by A
  EventId RequestA = InvalidEvent; ///< A's acquire of LockHeldByB
  EventId RequestB = InvalidEvent; ///< B's acquire of LockHeldByA
  std::string LocRequestA, LocRequestB;
  /// Witness order over the window; truncating it at the requests gives a
  /// schedule that drives the program into the deadlock.
  std::vector<EventId> Witness;
  bool WitnessValid = false;
};

struct DeadlockResult {
  std::vector<DeadlockReport> Deadlocks;
  /// Dependency pairs the solver never decided within every retry budget —
  /// First/Second hold the two lock requests. Maybe-deadlocks, kept out of
  /// Deadlocks so degradation stays sound (docs/ROBUSTNESS.md).
  std::vector<UnknownReport> Unknowns;
  DetectionStats Stats;
};

/// A nested acquisition: \p Request acquires \p InnerLock while the
/// section \p Outer (on \p OuterLock) is held by the same thread.
struct LockDependency {
  ThreadId Tid = 0;
  LockId OuterLock = 0;
  LockId InnerLock = 0;
  EventId Request = InvalidEvent;
  LockPair Outer;       ///< the enclosing critical section
  LockPair RequestPair; ///< the requested (inner) section
};

/// The lock dependencies of \p Window: each section acquired in the
/// window paired with every enclosing section of another lock, on the
/// same thread, whose acquire and release both lie in the window. Per
/// thread, in (request, outer) order over the thread's sections listed by
/// lock and then by acquire. One sweep per thread in acquire order keeps
/// the sections still held; hand-over-hand locking releases them out of
/// order, so the held set is a list, not a stack.
std::vector<LockDependency> collectLockDependencies(const Trace &T,
                                                    Span Window);

/// Predicts two-thread/two-lock deadlocks from \p T, using the shared
/// windowing/budget/solver options.
DeadlockResult detectDeadlocks(const Trace &T,
                               const DetectorOptions &Options =
                                   DetectorOptions());

} // namespace rvp

#endif // RVP_DETECT_DEADLOCK_H
