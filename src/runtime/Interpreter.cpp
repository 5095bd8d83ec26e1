//===- runtime/Interpreter.cpp - MiniRV interpreter -------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

#include "runtime/Compile.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <array>
#include <deque>

using namespace rvp;

namespace {

class Interpreter {
public:
  Interpreter(const CompiledProgram &P, Trace &T, const RunLimits &Limits)
      : P(P), T(T), Limits(Limits) {}

  RunResult run(Scheduler &S) {
    setup();
    while (Result.EventCount < Limits.MaxEvents) {
      std::vector<ThreadId> Runnable = collectRunnable();
      if (Runnable.empty()) {
        Result.Deadlocked = anyUnfinished();
        break;
      }
      ThreadId Tid = S.pick(Runnable);
      ++SchedulerSteps;
      stepThread(Tid);
    }
    if (Result.EventCount >= Limits.MaxEvents)
      Result.HitEventLimit = anyUnfinished();
    for (uint32_t Cell = 0; Cell < P.numCells(); ++Cell)
      Result.FinalCells[P.CellNames[Cell]] = Cells[Cell];
    flushTelemetry();
    return std::move(Result);
  }

private:
  enum class ThreadState : uint8_t {
    NotSpawned,
    ReadyToBegin, ///< spawned; Begin not yet emitted
    Running,
    Waiting,     ///< suspended in wait(); not runnable until notified
    Reacquiring, ///< notified; waiting for the lock to be free
    Finished,    ///< End emitted
  };

  struct ThreadRt {
    ThreadState State = ThreadState::NotSpawned;
    uint32_t Pc = 0;
    std::vector<Value> Locals;
    std::vector<Value> Stack;
    uint32_t WaitLockId = 0;
    uint32_t WaitMatch = 0;
    uint32_t SavedLockCount = 0;
  };

  struct LockRt {
    bool Held = false;
    ThreadId Holder = 0;
    uint32_t Count = 0; ///< reentrancy depth
    std::deque<ThreadId> Waiters;
  };

  // ------------------------------------------------------------- setup
  void setup() {
    // Intern names so trace ids equal program indices.
    for (const CompiledThread &CT : P.Threads)
      T.internThread(CT.Name);
    for (uint32_t Cell = 0; Cell < P.numCells(); ++Cell) {
      VarId Var = T.internVar(P.CellNames[Cell]);
      if (P.CellInit[Cell] != 0)
        T.setInitialValue(Var, P.CellInit[Cell]);
    }
    for (const std::string &Name : P.Locks)
      T.internLock(Name);

    Cells.assign(P.CellInit.begin(), P.CellInit.end());
    Locks.assign(P.Locks.size(), LockRt());
    Threads.assign(P.Threads.size(), ThreadRt());
    for (size_t I = 0; I < P.Threads.size(); ++I)
      Threads[I].Locals.assign(P.Threads[I].NumLocals, 0);
    Threads[RootThread].State = ThreadState::ReadyToBegin;
  }

  // --------------------------------------------------------- scheduling
  bool anyUnfinished() const {
    for (const ThreadRt &TR : Threads)
      if (TR.State != ThreadState::Finished &&
          TR.State != ThreadState::NotSpawned)
        return true;
    return false;
  }

  bool isRunnable(ThreadId Tid) const {
    const ThreadRt &TR = Threads[Tid];
    switch (TR.State) {
    case ThreadState::NotSpawned:
    case ThreadState::Waiting:
    case ThreadState::Finished:
      return false;
    case ThreadState::ReadyToBegin:
      return true;
    case ThreadState::Reacquiring:
      return !Locks[TR.WaitLockId].Held;
    case ThreadState::Running:
      break;
    }
    // A running thread is stuck only if its next instruction blocks.
    const Instr &I = P.Threads[Tid].Code[TR.Pc];
    switch (I.Op) {
    case OpCode::Acquire: {
      const LockRt &L = Locks[I.A];
      return !L.Held || L.Holder == Tid;
    }
    case OpCode::JoinThread:
      return Threads[I.A].State == ThreadState::Finished;
    default:
      return true;
    }
  }

  std::vector<ThreadId> collectRunnable() const {
    std::vector<ThreadId> Runnable;
    for (ThreadId Tid = 0; Tid < Threads.size(); ++Tid)
      if (isRunnable(Tid))
        Runnable.push_back(Tid);
    return Runnable;
  }

  // ------------------------------------------------------------ events
  LocId locOf(uint32_t Line) {
    if (Line == 0)
      return UnknownLoc;
    return T.internLoc("L" + std::to_string(Line));
  }

  void emitEvent(ThreadId Tid, EventKind Kind, uint32_t Target, Value Data,
                 uint32_t Line, bool IsVolatile = false, uint32_t Aux = 0) {
    Event E;
    E.Tid = Tid;
    E.Kind = Kind;
    E.Target = Target;
    E.Data = Data;
    E.Loc = locOf(Line);
    E.Volatile = IsVolatile;
    E.Aux = Aux;
    T.append(E);
    ++Result.EventCount;
    ++EventsByKind[static_cast<size_t>(Kind)];
  }

  /// One registry write per run; the per-event cost is a plain array
  /// increment whether telemetry is on or off.
  void flushTelemetry() {
    if (!Telemetry::enabled())
      return;
    MetricsRegistry &Reg = MetricsRegistry::global();
    Reg.counter("runtime.scheduler_steps").add(SchedulerSteps);
    for (size_t K = 0; K < EventsByKind.size(); ++K) {
      if (EventsByKind[K] == 0)
        continue;
      Reg.counter(std::string("runtime.events.") +
                  eventKindName(static_cast<EventKind>(K)))
          .add(EventsByKind[K]);
    }
  }

  void error(ThreadId Tid, uint32_t Line, std::string Message) {
    Result.Errors.push_back({Tid, Line, std::move(Message)});
  }

  // -------------------------------------------------------------- step
  Value pop(ThreadRt &TR) {
    assert(!TR.Stack.empty() && "operand stack underflow");
    Value V = TR.Stack.back();
    TR.Stack.pop_back();
    return V;
  }

  Value applyBinary(BinOp Op, Value L, Value R, ThreadId Tid,
                    uint32_t Line) {
    switch (Op) {
    case BinOp::Add:
      return static_cast<Value>(static_cast<uint64_t>(L) +
                                static_cast<uint64_t>(R));
    case BinOp::Sub:
      return static_cast<Value>(static_cast<uint64_t>(L) -
                                static_cast<uint64_t>(R));
    case BinOp::Mul:
      return static_cast<Value>(static_cast<uint64_t>(L) *
                                static_cast<uint64_t>(R));
    case BinOp::Div:
      if (R == 0) {
        error(Tid, Line, "division by zero");
        return 0;
      }
      if (L == INT64_MIN && R == -1)
        return INT64_MIN; // wrap, avoiding UB
      return L / R;
    case BinOp::Mod:
      if (R == 0) {
        error(Tid, Line, "modulo by zero");
        return 0;
      }
      if (L == INT64_MIN && R == -1)
        return 0;
      return L % R;
    case BinOp::Eq:
      return L == R;
    case BinOp::Ne:
      return L != R;
    case BinOp::Lt:
      return L < R;
    case BinOp::Le:
      return L <= R;
    case BinOp::Gt:
      return L > R;
    case BinOp::Ge:
      return L >= R;
    case BinOp::And:
      return (L != 0) && (R != 0);
    case BinOp::Or:
      return (L != 0) || (R != 0);
    }
    RVP_UNREACHABLE("unknown binary operator");
  }

  /// Runs \p Tid until it emits at least one event or blocks/finishes.
  void stepThread(ThreadId Tid) {
    ThreadRt &TR = Threads[Tid];

    if (TR.State == ThreadState::ReadyToBegin) {
      emitEvent(Tid, EventKind::Begin, 0, 0, 0);
      TR.State = ThreadState::Running;
      return;
    }
    if (TR.State == ThreadState::Reacquiring) {
      LockRt &L = Locks[TR.WaitLockId];
      assert(!L.Held && "scheduler picked a blocked thread");
      L.Held = true;
      L.Holder = Tid;
      L.Count = TR.SavedLockCount;
      emitEvent(Tid, EventKind::Acquire, TR.WaitLockId, 0, 0,
                /*IsVolatile=*/false, TR.WaitMatch);
      TR.State = ThreadState::Running;
      return;
    }

    const std::vector<Instr> &Code = P.Threads[Tid].Code;
    // Every loop iteration in MiniRV emits a branch event, so a bounded
    // number of instructions always reaches an event; the cap is a safety
    // net for interpreter bugs.
    for (uint32_t Fuel = 0; Fuel < 1000000; ++Fuel) {
      const Instr &I = Code[TR.Pc];
      switch (I.Op) {
      case OpCode::LoadConst:
        TR.Stack.push_back(I.A);
        ++TR.Pc;
        break;
      case OpCode::LoadLocal:
        TR.Stack.push_back(TR.Locals[I.A]);
        ++TR.Pc;
        break;
      case OpCode::StoreLocal:
        TR.Locals[I.A] = pop(TR);
        ++TR.Pc;
        break;
      case OpCode::ReadShared: {
        Value V = Cells[I.A];
        TR.Stack.push_back(V);
        ++TR.Pc;
        emitEvent(Tid, EventKind::Read, static_cast<uint32_t>(I.A), V,
                  I.Line, P.CellVolatile[I.A]);
        return;
      }
      case OpCode::WriteShared: {
        Value V = pop(TR);
        Cells[I.A] = V;
        ++TR.Pc;
        emitEvent(Tid, EventKind::Write, static_cast<uint32_t>(I.A), V,
                  I.Line, P.CellVolatile[I.A]);
        return;
      }
      case OpCode::ReadArray: {
        const CompiledProgram::ArrayInfo &Info = P.Arrays[I.A];
        Value Index = pop(TR);
        if (Index < 0 || Index >= Info.Size) {
          error(Tid, I.Line, formatString("array index %lld out of bounds",
                                          static_cast<long long>(Index)));
          Index = 0;
        }
        uint32_t Cell = Info.Base + static_cast<uint32_t>(Index);
        Value V = Cells[Cell];
        TR.Stack.push_back(V);
        ++TR.Pc;
        emitEvent(Tid, EventKind::Read, Cell, V, I.Line);
        return;
      }
      case OpCode::WriteArray: {
        const CompiledProgram::ArrayInfo &Info = P.Arrays[I.A];
        Value Index = pop(TR);
        Value V = pop(TR);
        if (Index < 0 || Index >= Info.Size) {
          error(Tid, I.Line, formatString("array index %lld out of bounds",
                                          static_cast<long long>(Index)));
          Index = 0;
        }
        uint32_t Cell = Info.Base + static_cast<uint32_t>(Index);
        Cells[Cell] = V;
        ++TR.Pc;
        emitEvent(Tid, EventKind::Write, Cell, V, I.Line);
        return;
      }
      case OpCode::Binary: {
        Value R = pop(TR);
        Value L = pop(TR);
        TR.Stack.push_back(
            applyBinary(static_cast<BinOp>(I.A), L, R, Tid, I.Line));
        ++TR.Pc;
        break;
      }
      case OpCode::Unary: {
        Value V = pop(TR);
        TR.Stack.push_back(static_cast<UnOp>(I.A) == UnOp::Neg
                               ? static_cast<Value>(
                                     0 - static_cast<uint64_t>(V))
                               : static_cast<Value>(V == 0));
        ++TR.Pc;
        break;
      }
      case OpCode::Jump:
        TR.Pc = static_cast<uint32_t>(I.A);
        break;
      case OpCode::JumpIfZero:
        TR.Pc = pop(TR) == 0 ? static_cast<uint32_t>(I.A) : TR.Pc + 1;
        break;
      case OpCode::EmitBranch:
        ++TR.Pc;
        emitEvent(Tid, EventKind::Branch, 0, 0, I.Line);
        return;
      case OpCode::Acquire: {
        LockRt &L = Locks[I.A];
        if (L.Held && L.Holder == Tid) {
          // Reentrant acquire: no event (Section 4), keep executing.
          ++L.Count;
          ++TR.Pc;
          break;
        }
        if (L.Held) {
          // Reached a contended acquire mid-step: yield without an event;
          // the scheduler will reschedule once the lock is free.
          return;
        }
        L.Held = true;
        L.Holder = Tid;
        L.Count = 1;
        ++TR.Pc;
        emitEvent(Tid, EventKind::Acquire, static_cast<uint32_t>(I.A), 0,
                  I.Line);
        return;
      }
      case OpCode::Release: {
        LockRt &L = Locks[I.A];
        if (!L.Held || L.Holder != Tid) {
          error(Tid, I.Line,
                "unlock of '" + P.Locks[I.A] + "' not held by this thread");
          ++TR.Pc;
          break;
        }
        if (--L.Count > 0) {
          ++TR.Pc; // inner reentrant release: silent
          break;
        }
        L.Held = false;
        ++TR.Pc;
        emitEvent(Tid, EventKind::Release, static_cast<uint32_t>(I.A), 0,
                  I.Line);
        return;
      }
      case OpCode::SpawnThread: {
        ThreadRt &Child = Threads[I.A];
        if (Child.State != ThreadState::NotSpawned) {
          error(Tid, I.Line,
                "thread '" + P.Threads[I.A].Name + "' spawned twice");
          ++TR.Pc;
          break;
        }
        Child.State = ThreadState::ReadyToBegin;
        ++TR.Pc;
        emitEvent(Tid, EventKind::Fork, static_cast<uint32_t>(I.A), 0,
                  I.Line);
        return;
      }
      case OpCode::JoinThread:
        if (Threads[I.A].State != ThreadState::Finished) {
          // Reached a blocking join mid-step: yield without an event.
          return;
        }
        ++TR.Pc;
        emitEvent(Tid, EventKind::Join, static_cast<uint32_t>(I.A), 0,
                  I.Line);
        return;
      case OpCode::WaitLock: {
        LockRt &L = Locks[I.A];
        if (!L.Held || L.Holder != Tid) {
          error(Tid, I.Line,
                "wait on '" + P.Locks[I.A] + "' without holding it");
          ++TR.Pc;
          break;
        }
        TR.WaitLockId = static_cast<uint32_t>(I.A);
        TR.WaitMatch = NextWaitMatch++;
        TR.SavedLockCount = L.Count;
        L.Held = false;
        L.Count = 0;
        L.Waiters.push_back(Tid);
        TR.State = ThreadState::Waiting;
        ++TR.Pc;
        emitEvent(Tid, EventKind::Release, TR.WaitLockId, 0, I.Line,
                  /*IsVolatile=*/false, TR.WaitMatch);
        return;
      }
      case OpCode::NotifyLock:
      case OpCode::NotifyAllLock: {
        LockRt &L = Locks[I.A];
        if (!L.Held || L.Holder != Tid) {
          error(Tid, I.Line,
                "notify on '" + P.Locks[I.A] + "' without holding it");
          ++TR.Pc;
          break;
        }
        ++TR.Pc;
        if (L.Waiters.empty()) {
          emitEvent(Tid, EventKind::Notify, static_cast<uint32_t>(I.A), 0,
                    I.Line, /*IsVolatile=*/false, /*Aux=*/0);
          return;
        }
        size_t NumToWake =
            I.Op == OpCode::NotifyAllLock ? L.Waiters.size() : 1;
        // notifyAll is modeled as that many notify events back to back
        // (Section 4); they are all by this thread, so emitting them
        // within one step preserves per-event scheduling for others.
        for (size_t K = 0; K < NumToWake; ++K) {
          ThreadId Waiter = L.Waiters.front();
          L.Waiters.pop_front();
          Threads[Waiter].State = ThreadState::Reacquiring;
          emitEvent(Tid, EventKind::Notify, static_cast<uint32_t>(I.A), 0,
                    I.Line, /*IsVolatile=*/false,
                    Threads[Waiter].WaitMatch);
        }
        return;
      }
      case OpCode::AssertTrue: {
        Value V = pop(TR);
        if (V == 0)
          error(Tid, I.Line, "assertion failed");
        ++TR.Pc;
        break;
      }
      case OpCode::Halt:
        TR.State = ThreadState::Finished;
        emitEvent(Tid, EventKind::End, 0, 0, I.Line);
        return;
      }
    }
    RVP_UNREACHABLE("thread made no progress (interpreter bug)");
  }

  const CompiledProgram &P;
  Trace &T;
  RunLimits Limits;
  RunResult Result;
  std::vector<Value> Cells;
  std::vector<LockRt> Locks;
  std::vector<ThreadRt> Threads;
  uint32_t NextWaitMatch = 1;
  uint64_t SchedulerSteps = 0;
  std::array<uint64_t, static_cast<size_t>(EventKind::Notify) + 1>
      EventsByKind{};
};

} // namespace

RunResult rvp::runProgram(const CompiledProgram &P, Scheduler &S, Trace &T,
                          const RunLimits &Limits) {
  return Interpreter(P, T, Limits).run(S);
}

bool rvp::recordTrace(std::string_view Source, Trace &T, RunResult &Result,
                      std::string &Error, Scheduler *S,
                      const RunLimits &Limits) {
  std::optional<CompiledProgram> P = compileSource(Source, Error);
  if (!P)
    return false;
  RoundRobinScheduler Fallback(1);
  Result = runProgram(*P, S ? *S : Fallback, T, Limits);
  return true;
}
