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
/// pairs) that every detector consumes. The indices are kept current as
/// each event is appended, so a trace that is still growing (a streamed
/// session) can be analyzed at any point without a rebuild. Names are
/// interned from a std::string_view into flat open-addressing tables
/// (Trace::NameTable): a name already in its table is found without
/// building a std::string, and only a new one is copied.
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
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
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

  /// The acquire if it lies in \p S, else InvalidEvent: the section was
  /// entered before the window (or never, in a trace fragment).
  EventId acquireIn(Span S) const {
    return S.contains(AcquireId) ? AcquireId : InvalidEvent;
  }
  /// The release if it lies in \p S, else InvalidEvent: the lock is still
  /// held at the window end.
  EventId releaseIn(Span S) const {
    return S.contains(ReleaseId) ? ReleaseId : InvalidEvent;
  }
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
/// Usage: intern the names an event refers to, then append it (or use
/// TraceBuilder, the text reader or the interpreter). Every accessor
/// reflects the events appended so far.
class Trace {
public:
  Trace() = default;

  // -------------------------------------------------- name interning
  ThreadId internThread(std::string_view Name) {
    ThreadId Id = ThreadNames.intern(Name);
    if (Id == ByThread.size())
      ByThread.emplace_back();
    return Id;
  }
  VarId internVar(std::string_view Name) {
    VarId Id = VarNames.intern(Name);
    if (Id == ByVar.size())
      ByVar.emplace_back();
    return Id;
  }
  LockId internLock(std::string_view Name) {
    LockId Id = LockNames.intern(Name);
    if (Id == ByLock.size())
      ByLock.emplace_back();
    return Id;
  }
  LocId internLoc(std::string_view Name) { return LocNames.intern(Name); }

  const std::string &threadName(ThreadId Id) const { return ThreadNames[Id]; }
  const std::string &varName(VarId Id) const { return VarNames[Id]; }
  const std::string &lockName(LockId Id) const { return LockNames[Id]; }
  const std::string &locName(LocId Id) const {
    static const std::string Unknown = "?";
    return Id == UnknownLoc ? Unknown : LocNames[Id];
  }

  uint32_t numThreads() const { return ThreadNames.size(); }
  uint32_t numVars() const { return VarNames.size(); }
  uint32_t numLocks() const { return LockNames.size(); }

  // -------------------------------------------------- construction
  /// Appends an event, updates every derived index and returns its id.
  /// The thread, variable or lock ids it names must be interned.
  EventId append(const Event &E);

  /// Reserves room for \p N events (a hint; the trace may grow past it).
  void reserve(size_t N) { Events.reserve(N); }

  /// Name-table sizes at one point of construction.
  struct Mark {
    uint32_t Threads = 0, Vars = 0, Locks = 0, Locs = 0;
  };
  Mark mark() const {
    return {numThreads(), numVars(), numLocks(), LocNames.size()};
  }
  /// Forgets every name interned since \p M, as if it never was: how an
  /// append-only reader takes back the names of a line it rejects. No
  /// event may have been appended since \p M.
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
    return ByThread[Tid].Events;
  }

  /// All read/write event ids on variable \p Var, in trace order
  /// (volatile accesses included; callers filter as needed).
  const std::vector<EventId> &accessesOf(VarId Var) const {
    return ByVar[Var];
  }

  /// Acquire/release pairs of \p Lock, in the order of their first event:
  /// each acquire pairs with its thread's next release of the lock. A pair
  /// lacks its release while the lock is held and its acquire for a
  /// release without one; an acquire its thread repeats before releasing
  /// has no pair.
  const std::vector<LockPair> &lockPairsOf(LockId Lock) const {
    return ByLock[Lock].Pairs;
  }
  /// The pairs of \p Lock whose first event lies in \p S: one run of
  /// lockPairsOf(Lock), found by binary search. Every pair with an
  /// acquire in \p S is among them.
  std::span<const LockPair> lockPairsStartingIn(LockId Lock, Span S) const;
  /// The critical sections of \p Lock that window \p S sees, in pair
  /// order: the pairs starting in \p S, preceded by the one pair that
  /// straddles the window start (acquired before \p S, released in it),
  /// if any. A section that spans the whole window is not among them.
  /// The window clips each at its ends (LockPair::acquireIn/releaseIn).
  /// The same binary search as lockPairsStartingIn: on a consistent trace
  /// at most one thread holds the lock at the seam, and its pair is the
  /// last one to start before it.
  std::span<const LockPair> lockPairsTouching(LockId Lock, Span S) const;

  /// Fork event of thread \p Tid (the event fork(_, Tid)), or InvalidEvent.
  EventId forkOf(ThreadId Tid) const { return ByThread[Tid].Fork; }
  /// Begin/End events of thread \p Tid, or InvalidEvent.
  EventId beginOf(ThreadId Tid) const { return ByThread[Tid].Begin; }
  EventId endOf(ThreadId Tid) const { return ByThread[Tid].End; }
  /// Join event joining thread \p Tid, or InvalidEvent.
  EventId joinOf(ThreadId Tid) const { return ByThread[Tid].Join; }

  /// The Notify event matched with wait match-id \p Aux, or InvalidEvent.
  EventId notifyOfMatch(uint32_t Aux) const;

  /// The whole trace as a Span.
  Span fullSpan() const { return {0, static_cast<EventId>(Events.size())}; }

  /// Table 1 trace metrics, computed over \p S.
  TraceStats stats(Span S) const;
  TraceStats stats() const { return stats(fullSpan()); }

private:
  /// The names of one kind by id, plus an open-addressing index over them:
  /// a power-of-two slot array probed linearly, at most half full. A slot
  /// holds a name's hash, length and id and its first 16 bytes, so a probe
  /// for a name of 16 bytes or fewer never leaves the slot array; a longer
  /// one compares its remaining bytes with the stored string. Every byte
  /// of a name feeds its hash, so names that share a long prefix spread.
  class NameTable {
  public:
    /// The id of \p Name, interning it (with the next id) if it is new.
    uint32_t intern(std::string_view Name);
    const std::string &operator[](uint32_t Id) const { return Names[Id]; }
    uint32_t size() const { return static_cast<uint32_t>(Names.size()); }
    /// Forgets every name from id \p Keep on. Emptying their slots in
    /// reverse id order undoes their inserts exactly: linear probing put
    /// each in the first free slot of its probe run, and growth re-inserts
    /// in id order, so no other name was placed past one of them.
    void truncate(uint32_t Keep);

  private:
    static constexpr uint32_t Empty = ~0u;
    /// A name's first 16 bytes (for a shorter one, an encoding of all its
    /// bytes that differs between any two names of its length) and its
    /// hash over every byte and the length.
    struct Key {
      uint64_t Head[2];
      uint64_t Hash;
    };
    /// 32 bytes. The stored hash is the upper half of Key::Hash, whose
    /// lower bits picked the slot.
    struct Slot {
      uint32_t Hash = 0;
      uint32_t Id = Empty;
      uint64_t Length = 0;
      uint64_t Head[2] = {0, 0};
    };

    static Key keyOf(std::string_view Name);
    /// The slot \p Name probes to: its own when it is in the table, else
    /// the free slot that ends its probe run.
    size_t slotOf(std::string_view Name, const Key &K) const;
    void place(uint32_t Id, const Key &K);

    std::vector<std::string> Names;
    std::vector<Slot> Slots;
  };

  /// The derived state of one thread: the events it runs and the ones
  /// that start, fork, end and join it (the last of each, if repeated).
  struct ThreadIndex {
    std::vector<EventId> Events;
    EventId Fork = InvalidEvent, Begin = InvalidEvent, End = InvalidEvent,
            Join = InvalidEvent;
  };
  /// The pairs of one lock, plus the threads whose latest acquire awaits
  /// its release, with the index of that pair in Pairs.
  struct LockIndex {
    std::vector<LockPair> Pairs;
    std::vector<std::pair<ThreadId, uint32_t>> Open;
  };

  void pairAcquire(EventId Id, const Event &E);
  void pairRelease(EventId Id, const Event &E);

  std::vector<Event> Events;
  std::vector<Value> InitValues;

  NameTable ThreadNames, VarNames, LockNames, LocNames;

  // Derived indices: interning sizes them, append() fills them.
  std::vector<ThreadIndex> ByThread;
  std::vector<std::vector<EventId>> ByVar; // accesses only
  std::vector<LockIndex> ByLock;
  std::unordered_map<uint32_t, EventId> NotifyByMatch;
};

} // namespace rvp

#endif // RVP_TRACE_TRACE_H
