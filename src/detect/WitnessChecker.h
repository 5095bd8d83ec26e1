//===- detect/WitnessChecker.h - Witness building and checks ----*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent validation of a predicted race witness, mirroring the
/// construction in the proof of Theorem 3: the reordered window must
/// respect program order, the must-happen-before rules, lock mutual
/// exclusion, bring the two accesses adjacent, and keep every read that
/// control flow depends on *concrete* (reading its recorded value). Events
/// not reachable from the race's guarding branches are data-abstract and
/// may observe different values.
///
/// The detectors run this on every witness before reporting; a failure
/// indicates an encoder or solver bug, never a user error.
///
/// The witnesses themselves come from placeByGaps, which extends the model
/// of a sliced query to the whole window (docs/ENCODER.md).
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_WITNESSCHECKER_H
#define RVP_DETECT_WITNESSCHECKER_H

#include "detect/RaceEncoder.h"
#include "smt/Solver.h"
#include "trace/Trace.h"

#include <string>
#include <unordered_set>
#include <vector>

namespace rvp {

struct WitnessCheckResult {
  bool Ok = true;
  std::string Message;
};

/// Validates \p Order (a permutation of the events of \p S) as a witness
/// that \p A and \p B race. \p Encoder supplies the window's guarding
/// branches and initial values.
WitnessCheckResult checkWitness(const Trace &T, Span S,
                                const std::vector<EventId> &Order,
                                EventId A, EventId B,
                                const RaceEncoder &Encoder,
                                const std::vector<Value> &InitialValues);

/// Validates \p Order as a hold-and-wait deadlock witness: \p ReqA sits
/// inside the section OutB and \p ReqB inside OutA, with the requests'
/// own lock effects excluded (they never complete). \p SkipLockEffects
/// must contain the two requests and their (never-happening) releases.
WitnessCheckResult checkDeadlockWitness(
    const Trace &T, Span S, const std::vector<EventId> &Order,
    EventId ReqA, EventId ReqB, const LockPair &OutA, const LockPair &OutB,
    const std::unordered_set<EventId> &SkipLockEffects,
    const RaceEncoder &Encoder, const std::vector<Value> &InitialValues);

/// Validates \p Order as an atomicity-violation witness: \p Remote
/// executes strictly between \p First and \p Second, with the same
/// structural and concrete-read requirements as race witnesses.
WitnessCheckResult
checkAtomicityWitness(const Trace &T, Span S,
                      const std::vector<EventId> &Order, EventId First,
                      EventId Remote, EventId Second,
                      const RaceEncoder &Encoder,
                      const std::vector<Value> &InitialValues);

/// Gap placement (docs/ENCODER.md): extends \p Model, a model of a sliced
/// query whose cone is \p Cone (ascending), to a schedule of the whole
/// window of \p Enc. Cone events go in model order, ties by event id.
/// Each thread's non-cone events follow as one contiguous block right
/// after that thread's nearest preceding cone event; the events before a
/// thread's first cone event lead the schedule, thread by thread.
/// \p MergedFirst / \p MergedSecond name a race pair the `Oa := Ob`
/// substitution merged onto one position (MergedFirst has no variable of
/// its own): MergedFirst is placed right before MergedSecond and both
/// blocks follow the pair, so it stays adjacent. InvalidEvent for none.
std::vector<EventId> placeByGaps(const WindowEncoding &Enc,
                                 const std::vector<EventId> &Cone,
                                 const OrderModel &Model,
                                 EventId MergedFirst = InvalidEvent,
                                 EventId MergedSecond = InvalidEvent);

} // namespace rvp

#endif // RVP_DETECT_WITNESSCHECKER_H
