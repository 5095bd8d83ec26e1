//===- trace/Event.h - Execution trace events -------------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event vocabulary of Figure 3 of the paper: begin/end, read/write,
/// acquire/release, fork/join, wait/notify, and the novel *branch* event
/// that abstracts per-thread control flow. Events are small POD values;
/// a trace is a vector of them (see Trace.h).
///
//===----------------------------------------------------------------------===//

#ifndef RVP_TRACE_EVENT_H
#define RVP_TRACE_EVENT_H

#include <cstdint>
#include <string>

namespace rvp {

/// Index of an event within its trace. Also used as the order-variable
/// identity in the constraint encoding.
using EventId = uint32_t;
using ThreadId = uint32_t;
using VarId = uint32_t;
using LockId = uint32_t;
/// Identifies a static program location; race signatures are unordered
/// pairs of LocIds (Section 4: signature pruning).
using LocId = uint32_t;
using Value = int64_t;

constexpr EventId InvalidEvent = static_cast<EventId>(-1);
constexpr LocId UnknownLoc = static_cast<LocId>(-1);

/// The root thread of an execution: the only thread whose begin event does
/// not require a preceding fork.
constexpr ThreadId RootThread = 0;

enum class EventKind : uint8_t {
  Begin,   ///< First event of a thread.
  End,     ///< Last event of a thread.
  Read,    ///< Read of a shared variable; Data holds the value read.
  Write,   ///< Write of a shared variable; Data holds the value written.
  Acquire, ///< Lock acquire.
  Release, ///< Lock release.
  Fork,    ///< Fork of a new thread; Target holds the child ThreadId.
  Join,    ///< Join on a thread; Target holds the joined ThreadId.
  Branch,  ///< Control-flow abstraction point (the paper's novel event).
  Wait,    ///< Marker for a wait(); lowered to Release+Wait+Acquire.
  Notify,  ///< notify(); Aux links to the matched Wait event, if any.
};

/// Returns a stable lowercase mnemonic (used by the trace text format).
const char *eventKindName(EventKind Kind);

/// One event of an execution trace, as a tuple of attribute-value pairs
/// (Section 2.1). 24 bytes.
struct Event {
  ThreadId Tid = 0;
  EventKind Kind = EventKind::Branch;
  /// True for accesses to volatile variables; conflicting volatile
  /// accesses are synchronization, not races (Section 4).
  bool Volatile = false;
  /// Variable for Read/Write, lock for Acquire/Release/Wait/Notify,
  /// child/joined thread for Fork/Join; unused otherwise.
  uint32_t Target = 0;
  /// Value read or written. Unused for non-access events.
  Value Data = 0;
  /// Static program location, for race signatures and reports.
  LocId Loc = UnknownLoc;
  /// Wait/Notify matching: for a Wait, a fresh match id; for a Notify,
  /// the match id of the wait it woke (or 0 if it woke nobody).
  uint32_t Aux = 0;

  bool isAccess() const {
    return Kind == EventKind::Read || Kind == EventKind::Write;
  }
  bool isRead() const { return Kind == EventKind::Read; }
  bool isWrite() const { return Kind == EventKind::Write; }
  bool isAcquire() const { return Kind == EventKind::Acquire; }
  bool isRelease() const { return Kind == EventKind::Release; }
};

static_assert(sizeof(Event) <= 32, "events should stay compact");

/// Two events form a conflicting operation pair (Definition 3) iff they
/// access the same variable from different threads and at least the first
/// is a write. Volatile accesses never conflict (Java semantics, §4).
inline bool conflicting(const Event &A, const Event &B) {
  if (!A.isAccess() || !B.isAccess())
    return false;
  if (A.Volatile || B.Volatile)
    return false;
  if (A.Tid == B.Tid || A.Target != B.Target)
    return false;
  return A.isWrite() || B.isWrite();
}

/// Renders an event for debugging, e.g. "write(t1, v0, 1)".
std::string toString(const Event &E);

/// Appends toString(E) to \p Out without a temporary (witness schedules
/// render one line per window event).
void appendEvent(std::string &Out, const Event &E);

} // namespace rvp

#endif // RVP_TRACE_EVENT_H
