//===- detect/WindowEncoding.h - Shared per-window encoding state -*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The COP-invariant half of the race encoding (detect/RaceEncoder.h),
/// factored out so it is computed once per analysis window instead of once
/// per encode call, and so the parallel per-COP solve loop
/// (detect/WindowDriver.cpp) can share it read-only across worker tasks:
///
///  * per-thread event/branch/read indices and per-variable write indices,
///  * the cross-thread Φ_mhb edges (fork/join, wait/notify); program
///    order is the per-thread event lists,
///  * the Φ_lock constraint descriptors (mutual exclusion of critical-
///    section pairs, window-clipped), tagged with the sections' acquire
///    events so deadlock queries can exclude sections after the fact,
///  * the read-consistency skeleton per in-window read: interfering
///    writes, value-matched unshadowed candidate writes, and whether the
///    initial-value disjunct applies. Skeletons are built on demand: a
///    read's is computed the first time readInfo() asks for it, since
///    most reads of a window lie in no COP's cone.
///
/// Only the substitution `Oa := Ob` and the control-flow guards differ per
/// COP; RaceEncoder applies those at emission time. Everything but the
/// read skeletons is immutable after construction. Each skeleton slot is
/// filled exactly once under its own std::once_flag and never changes
/// afterwards, so concurrent readers (the parallel solve loop's workers)
/// need no further synchronization. The referenced Trace and
/// EventClosure must outlive it.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_WINDOWENCODING_H
#define RVP_DETECT_WINDOWENCODING_H

#include "detect/Closure.h"
#include "smt/Formula.h"
#include "support/MemStats.h"
#include "trace/Trace.h"

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace rvp {

class WindowEncoding {
public:
  /// Synthetic order variable placed before every window event; it gives
  /// every event at least one atom so that models are total over the
  /// window (needed when assembling witness orders).
  static constexpr OrderVar RootVar = UINT32_MAX - 7;

  /// \p InitialValues gives each variable's value at window entry (index
  /// by VarId; missing entries default to 0). \p Mhb must be the MHB
  /// closure (ClosureConfig::mhb()) of the same window.
  WindowEncoding(const Trace &T, Span S, const EventClosure &Mhb,
                 const std::vector<Value> &InitialValues);

  WindowEncoding(const WindowEncoding &) = delete;
  WindowEncoding &operator=(const WindowEncoding &) = delete;

  const Trace &T;
  const Span Window;
  const EventClosure &Mhb;
  std::vector<Value> InitialValues; ///< per VarId at window entry

  /// Per-thread event ids within the window, ascending.
  std::vector<std::vector<EventId>> ThreadEvents;
  /// Per-thread branch events within the window, ascending.
  std::vector<std::vector<EventId>> ThreadBranches;
  /// Per-thread read events within the window, ascending.
  std::vector<std::vector<EventId>> ThreadReads;
  /// Per-variable write events within the window, ascending.
  std::vector<std::vector<EventId>> VarWrites;
  /// All read events within the window (for the Said encoding).
  std::vector<EventId> AllReads;

  /// The cross-thread part of Φ_mhb as ordered (from, to) atom operands:
  /// fork/join edges per thread, then wait/notify triples. Φ_mhb is these
  /// plus each thread's program-order chain over ThreadEvents, anchored
  /// under RootVar. The encoder keeps every cross edge unconditionally —
  /// they are few, and seeding their endpoints into the cone means the
  /// per-thread chain compression can never lose an inter-thread ordering
  /// (docs/ENCODER.md).
  std::vector<std::pair<OrderVar, OrderVar>> CrossEdges;

  /// One Φ_lock conjunct: Or(RelP < AcqQ, RelQ < AcqP) when Mutex, the
  /// single atom RelP < AcqQ otherwise (one-sided sections clipped by the
  /// window). SectionAcqP/Q are the two sections' trace-level acquire
  /// events, used to drop constraints for sections a deadlock query
  /// excludes.
  struct LockConstraint {
    EventId RelP = InvalidEvent;
    EventId AcqQ = InvalidEvent;
    EventId RelQ = InvalidEvent;
    EventId AcqP = InvalidEvent;
    bool Mutex = false;
    EventId SectionAcqP = InvalidEvent;
    EventId SectionAcqQ = InvalidEvent;
  };
  std::vector<LockConstraint> LockConstraints;

  /// Lock-section index for the cone-of-influence fixpoint
  /// (docs/ENCODER.md): a lock constraint is relevant to a COP exactly
  /// when some cone event lies inside (or at an endpoint of) one of its
  /// two critical sections. Sections are the window-clipped acquire/
  /// release spans that participate in at least one LockConstraint.
  /// sectionsOf() maps a window event to the sections enclosing it;
  /// SectionConstraints maps a section to the LockConstraints it is a
  /// side of; endpoints to pull into the cone live on the constraint
  /// itself (RelP/AcqQ/RelQ/AcqP).
  const std::vector<uint32_t> &sectionsOf(EventId E) const {
    return EventSections[E - Window.Begin];
  }
  std::vector<std::vector<uint32_t>> SectionConstraints;

  /// Read-consistency skeleton for one read (Section 3.2's Φ_value, minus
  /// the per-COP substitution).
  struct ReadCandidate {
    EventId Write = InvalidEvent;
    /// Interfering writes needing an ordering disjunction around the
    /// candidate, in interference order.
    std::vector<EventId> Others;
  };
  struct ReadInfo {
    /// In-window writes to the read's variable not MHB-after the read.
    std::vector<EventId> Interfering;
    /// Value-matched, unshadowed candidate writes, in interference order.
    std::vector<ReadCandidate> Candidates;
    /// The initial-value disjunct applies: the read's value equals the
    /// window-entry value and no interfering write must precede the read.
    bool InitialOk = false;
  };

  /// The skeleton for in-window read \p R, built on the first call for R
  /// and kept for the window's lifetime. Safe to call concurrently.
  const ReadInfo &readInfo(EventId R) const;

private:
  ReadInfo buildReadInfo(EventId R) const;

  struct ReadSlot {
    std::once_flag Built;
    ReadInfo Info;
  };
  /// Indexed by window offset (R - Window.Begin); only read offsets are
  /// ever filled. readInfo() sits on the encode hot path, so a flat array
  /// keeps the lookup to one subtraction. The pointer's constness is
  /// shallow: readInfo() fills a slot through it.
  std::unique_ptr<ReadSlot[]> Reads;
  /// Indexed by window offset: section ids enclosing the event.
  std::vector<std::vector<uint32_t>> EventSections;
  /// mem.encoding_* accounting (support/MemStats.h): the indexes and the
  /// slot array at the end of construction, then each skeleton's vectors
  /// when readInfo() builds it.
  mutable MemCharge Mem{MemPool::Encoding};
};

} // namespace rvp

#endif // RVP_DETECT_WINDOWENCODING_H
