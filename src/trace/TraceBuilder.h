//===- trace/TraceBuilder.h - Fluent trace construction ---------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fluent builder for hand-written traces in tests, examples, and
/// workload generators. Names are interned on first use; every event gets
/// a distinct auto-generated location unless one is supplied, so signature
/// pruning never accidentally merges hand-written events.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_TRACE_TRACEBUILDER_H
#define RVP_TRACE_TRACEBUILDER_H

#include "trace/Trace.h"

#include <string>
#include <utility>

namespace rvp {

class TraceBuilder {
public:
  TraceBuilder() = default;

  /// Access to the trace under construction (for interning ids up front).
  Trace &trace() { return T; }

  TraceBuilder &fork(const std::string &Parent, const std::string &Child,
                     const std::string &Loc = "") {
    Event E = base(Parent, EventKind::Fork, Loc);
    E.Target = T.internThread(Child);
    T.append(E);
    return *this;
  }

  TraceBuilder &begin(const std::string &Thread,
                      const std::string &Loc = "") {
    T.append(base(Thread, EventKind::Begin, Loc));
    return *this;
  }

  TraceBuilder &end(const std::string &Thread, const std::string &Loc = "") {
    T.append(base(Thread, EventKind::End, Loc));
    return *this;
  }

  TraceBuilder &join(const std::string &Parent, const std::string &Child,
                     const std::string &Loc = "") {
    Event E = base(Parent, EventKind::Join, Loc);
    E.Target = T.internThread(Child);
    T.append(E);
    return *this;
  }

  TraceBuilder &read(const std::string &Thread, const std::string &Var,
                     Value V, const std::string &Loc = "",
                     bool IsVolatile = false) {
    Event E = base(Thread, EventKind::Read, Loc);
    E.Target = T.internVar(Var);
    E.Data = V;
    E.Volatile = IsVolatile;
    T.append(E);
    return *this;
  }

  TraceBuilder &write(const std::string &Thread, const std::string &Var,
                      Value V, const std::string &Loc = "",
                      bool IsVolatile = false) {
    Event E = base(Thread, EventKind::Write, Loc);
    E.Target = T.internVar(Var);
    E.Data = V;
    E.Volatile = IsVolatile;
    T.append(E);
    return *this;
  }

  TraceBuilder &acquire(const std::string &Thread, const std::string &Lock,
                        const std::string &Loc = "") {
    Event E = base(Thread, EventKind::Acquire, Loc);
    E.Target = T.internLock(Lock);
    T.append(E);
    return *this;
  }

  TraceBuilder &release(const std::string &Thread, const std::string &Lock,
                        const std::string &Loc = "") {
    Event E = base(Thread, EventKind::Release, Loc);
    E.Target = T.internLock(Lock);
    T.append(E);
    return *this;
  }

  TraceBuilder &branch(const std::string &Thread,
                       const std::string &Loc = "") {
    T.append(base(Thread, EventKind::Branch, Loc));
    return *this;
  }

  /// Emits the lowered release half of a wait(); pair with waitResume()
  /// and notify() sharing the same \p Match id.
  TraceBuilder &waitSuspend(const std::string &Thread,
                            const std::string &Lock, uint32_t Match,
                            const std::string &Loc = "") {
    Event E = base(Thread, EventKind::Release, Loc);
    E.Target = T.internLock(Lock);
    E.Aux = Match;
    T.append(E);
    return *this;
  }

  TraceBuilder &waitResume(const std::string &Thread,
                           const std::string &Lock, uint32_t Match,
                           const std::string &Loc = "") {
    Event E = base(Thread, EventKind::Acquire, Loc);
    E.Target = T.internLock(Lock);
    E.Aux = Match;
    T.append(E);
    return *this;
  }

  TraceBuilder &notify(const std::string &Thread, const std::string &Lock,
                       uint32_t Match, const std::string &Loc = "") {
    Event E = base(Thread, EventKind::Notify, Loc);
    E.Target = T.internLock(Lock);
    E.Aux = Match;
    T.append(E);
    return *this;
  }

  /// Returns the trace; the builder is left empty.
  Trace build() { return std::move(T); }

private:
  Event base(const std::string &Thread, EventKind Kind,
             const std::string &Loc) {
    Event E;
    E.Tid = T.internThread(Thread);
    E.Kind = Kind;
    E.Loc = Loc.empty()
                ? T.internLoc("L" + std::to_string(AutoLoc++))
                : T.internLoc(Loc);
    return E;
  }

  Trace T;
  uint32_t AutoLoc = 0;
};

} // namespace rvp

#endif // RVP_TRACE_TRACEBUILDER_H
