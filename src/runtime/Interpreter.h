//===- runtime/Interpreter.h - MiniRV interpreter ----------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sequentially consistent interpreter for compiled MiniRV programs that
/// records the execution as a Trace — the project's stand-in for the
/// paper's instrumented-JVM trace collection. One scheduler decision is
/// made per emitted event; thread-local computation is invisible, exactly
/// matching the event granularity of the abstract model (Section 2.1):
///
///  * shared reads/writes (arrays are expanded to one variable per cell),
///  * acquire/release (reentrant pairs are filtered dynamically: only the
///    outermost pair emits events, as in Section 4),
///  * fork/join/begin/end,
///  * wait/notify in the lowered release-notify-acquire form (Section 4),
///  * branch events at every condition and non-constant array index.
///
/// The interpreter doubles as the *witness replayer*: run with a
/// ReplayScheduler carrying a predicted schedule, a predicted race can be
/// observed manifesting (the two accesses execute back to back).
///
//===----------------------------------------------------------------------===//

#ifndef RVP_RUNTIME_INTERPRETER_H
#define RVP_RUNTIME_INTERPRETER_H

#include "runtime/Bytecode.h"
#include "runtime/Scheduler.h"
#include "trace/Trace.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace rvp {

/// A runtime fault (assertion failure, division by zero, out-of-bounds
/// index, lock misuse). Execution continues past errors; they are
/// collected here.
struct RuntimeError {
  ThreadId Tid = 0;
  uint32_t Line = 0;
  std::string Message;
};

struct RunLimits {
  /// Stop after this many events (guards runaway loops).
  uint64_t MaxEvents = 1000000;
};

struct RunResult {
  bool Deadlocked = false;
  bool HitEventLimit = false;
  uint64_t EventCount = 0;
  std::vector<RuntimeError> Errors;
  /// Final shared memory, by cell name.
  std::unordered_map<std::string, Value> FinalCells;

  bool ok() const { return !Deadlocked && !HitEventLimit && Errors.empty(); }
};

/// Executes \p P under scheduler \p S, appending events to \p T. Thread
/// ids in the trace equal the indices of P.Threads (main == RootThread ==
/// 0).
RunResult runProgram(const CompiledProgram &P, Scheduler &S, Trace &T,
                     const RunLimits &Limits = RunLimits());

/// Convenience: compile-and-run a MiniRV source under a round-robin
/// scheduler. Returns false on compile errors (reported in \p Error).
bool recordTrace(std::string_view Source, Trace &T, RunResult &Result,
                 std::string &Error, Scheduler *S = nullptr,
                 const RunLimits &Limits = RunLimits());

} // namespace rvp

#endif // RVP_RUNTIME_INTERPRETER_H
