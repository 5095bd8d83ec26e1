//===- trace/Trace.h - Execution traces -------------------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Trace is a sequence of events (Section 2.2) together with interning
/// tables for thread/variable/lock/location names and derived indices
/// (per-thread projections, per-variable access lists, lock acquire/release
/// pairs) that every detector consumes.
///
/// Wait/notify is stored in lowered form (Section 4): a wait() appears as a
/// Release followed by an Acquire sharing a nonzero Aux match id; the
/// notify() that woke it is a Notify event with the same Aux.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_TRACE_TRACE_H
#define RVP_TRACE_TRACE_H

#include "trace/Event.h"

#include <cassert>
#include <string>
#include <unordered_map>
#include <vector>

namespace rvp {

/// A half-open range [Begin, End) of event ids; the unit of windowed
/// analysis (Section 4, "Handling long traces").
struct Span {
  EventId Begin = 0;
  EventId End = 0;

  uint32_t size() const { return End - Begin; }
  bool contains(EventId Id) const { return Id >= Begin && Id < End; }
};

/// A matched acquire/release pair on one lock by one thread, following
/// program-order locking semantics (Section 3.2). Release may be
/// InvalidEvent when the trace ends while the lock is held.
struct LockPair {
  EventId AcquireId = InvalidEvent;
  EventId ReleaseId = InvalidEvent;
  ThreadId Tid = 0;
  LockId Lock = 0;
};

/// Aggregate counts reported in Table 1 of the paper.
struct TraceStats {
  uint32_t Threads = 0;
  uint64_t Events = 0;
  uint64_t ReadsWrites = 0;
  uint64_t Syncs = 0;
  uint64_t Branches = 0;
};

/// An execution trace plus name tables and derived indices.
///
/// Usage: append events (or use TraceBuilder / the runtime Recorder), then
/// call finalize() once; the derived indices are only valid afterwards.
class Trace {
public:
  Trace() = default;

  // -------------------------------------------------- name interning
  ThreadId internThread(const std::string &Name);
  VarId internVar(const std::string &Name);
  LockId internLock(const std::string &Name);
  LocId internLoc(const std::string &Name);

  const std::string &threadName(ThreadId Id) const { return ThreadNames[Id]; }
  const std::string &varName(VarId Id) const { return VarNames[Id]; }
  const std::string &lockName(LockId Id) const { return LockNames[Id]; }
  const std::string &locName(LocId Id) const {
    static const std::string Unknown = "?";
    return Id == UnknownLoc ? Unknown : LocNames[Id];
  }

  uint32_t numThreads() const {
    return static_cast<uint32_t>(ThreadNames.size());
  }
  uint32_t numVars() const { return static_cast<uint32_t>(VarNames.size()); }
  uint32_t numLocks() const { return static_cast<uint32_t>(LockNames.size()); }

  // -------------------------------------------------- construction
  /// Appends an event and returns its id. Invalidates derived indices
  /// until the next finalize().
  EventId append(const Event &E);

  /// Event and name-table sizes at one point of construction.
  struct Mark {
    uint64_t Events = 0;
    uint32_t Threads = 0, Vars = 0, Locks = 0, Locs = 0;
  };
  Mark mark() const;
  /// Drops every event appended and every name interned since \p M, as if
  /// they never were: how an append-only reader takes back a line it
  /// rejects after interning it.
  void rollback(const Mark &M);

  /// Sets the value variable \p Var holds before the first event
  /// (variables default to 0, as in the paper's "initially x = y = 0").
  void setInitialValue(VarId Var, Value V);

  /// The value \p Var holds before the first event.
  Value initialValueOf(VarId Var) const {
    return Var < InitValues.size() ? InitValues[Var] : 0;
  }

  /// Initial values indexed by VarId (entries may be shorter than
  /// numVars(); missing entries are 0).
  const std::vector<Value> &initialValues() const { return InitValues; }

  /// Builds the derived indices. Must be called after the last append().
  void finalize();

  bool finalized() const { return IsFinalized; }

  // -------------------------------------------------- access
  uint64_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }
  const Event &operator[](EventId Id) const {
    assert(Id < Events.size() && "event id out of range");
    return Events[Id];
  }
  const std::vector<Event> &events() const { return Events; }

  /// All event ids of thread \p Tid, in trace order.
  const std::vector<EventId> &threadEvents(ThreadId Tid) const {
    assert(IsFinalized && "finalize() the trace first");
    return ByThread[Tid];
  }

  /// All read/write event ids on variable \p Var, in trace order
  /// (volatile accesses included; callers filter as needed).
  const std::vector<EventId> &accessesOf(VarId Var) const {
    assert(IsFinalized && "finalize() the trace first");
    return ByVar[Var];
  }

  /// Matched acquire/release pairs, grouped per lock.
  const std::vector<LockPair> &lockPairsOf(LockId Lock) const {
    assert(IsFinalized && "finalize() the trace first");
    return ByLock[Lock];
  }

  /// Fork event of thread \p Tid (the event fork(_, Tid)), or InvalidEvent.
  EventId forkOf(ThreadId Tid) const {
    assert(IsFinalized && "finalize() the trace first");
    return ForkEvent[Tid];
  }
  /// Begin/End events of thread \p Tid, or InvalidEvent.
  EventId beginOf(ThreadId Tid) const { return BeginEvent[Tid]; }
  EventId endOf(ThreadId Tid) const { return EndEvent[Tid]; }
  /// Join event joining thread \p Tid, or InvalidEvent.
  EventId joinOf(ThreadId Tid) const { return JoinEvent[Tid]; }

  /// The Notify event matched with wait match-id \p Aux, or InvalidEvent.
  EventId notifyOfMatch(uint32_t Aux) const;

  /// The whole trace as a Span.
  Span fullSpan() const { return {0, static_cast<EventId>(Events.size())}; }

  /// Table 1 trace metrics, computed over \p S.
  TraceStats stats(Span S) const;
  TraceStats stats() const { return stats(fullSpan()); }

private:
  static uint32_t internName(const std::string &Name,
                             std::vector<std::string> &Names,
                             std::unordered_map<std::string, uint32_t> &Map);
  static void forgetNames(uint32_t Keep, std::vector<std::string> &Names,
                          std::unordered_map<std::string, uint32_t> &Map);

  std::vector<Event> Events;
  std::vector<Value> InitValues;
  bool IsFinalized = false;

  std::vector<std::string> ThreadNames, VarNames, LockNames, LocNames;
  std::unordered_map<std::string, uint32_t> ThreadMap, VarMap, LockMap,
      LocMap;

  // Derived indices, valid after finalize().
  std::vector<std::vector<EventId>> ByThread; // per thread
  std::vector<std::vector<EventId>> ByVar;    // per variable, accesses only
  std::vector<std::vector<LockPair>> ByLock;  // per lock
  std::vector<EventId> ForkEvent, BeginEvent, EndEvent, JoinEvent;
  std::unordered_map<uint32_t, EventId> NotifyByMatch;
};

} // namespace rvp

#endif // RVP_TRACE_TRACE_H
