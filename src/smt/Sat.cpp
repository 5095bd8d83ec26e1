//===- smt/Sat.cpp - CDCL SAT solver with theory hook ----------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Sat.h"

#include "support/Compiler.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace rvp;

Theory::~Theory() = default;

Var SatSolver::newVar() {
  Var V = static_cast<Var>(Assigns.size());
  Assigns.push_back(ValueUnassigned);
  Phase.push_back(0);
  Levels.push_back(0);
  Reasons.push_back(NoReason);
  Activity.push_back(0.0);
  HeapPos.push_back(UINT32_MAX);
  ScopeStamp.push_back(0);
  Seen.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  heapInsert(V);
  return V;
}

bool SatSolver::addClause(std::vector<Lit> Lits) {
  if (Unsatisfiable)
    return false;
  if (FaultInjector::shouldFail(faults::SatDbAlloc)) {
    // Simulated allocation failure: the clause is dropped, so the database
    // no longer represents the input formula. Mark the solver sick; solve()
    // degrades to Unknown rather than answering from the truncated DB.
    AllocFailed = true;
    return true;
  }
  assert(TrailLimits.empty() && "clauses must be added at decision level 0");

  // Normalize: sort, dedupe, detect tautologies, drop level-0 falsified
  // literals and satisfied clauses.
  std::sort(Lits.begin(), Lits.end(),
            [](Lit A, Lit B) { return A.X < B.X; });
  std::vector<Lit> Cleaned;
  for (size_t I = 0; I < Lits.size(); ++I) {
    Lit L = Lits[I];
    if (I + 1 < Lits.size() && Lits[I + 1] == ~L)
      return true; // tautology
    if (I > 0 && Lits[I - 1] == L)
      continue;
    uint8_t V = litValue(L);
    if (V == 1)
      return true; // satisfied at level 0
    if (V == 0)
      continue; // falsified at level 0
    Cleaned.push_back(L);
  }

  if (Cleaned.empty()) {
    Unsatisfiable = true;
    return false;
  }
  if (Cleaned.size() == 1) {
    if (!enqueue(Cleaned[0], NoReason)) {
      Unsatisfiable = true;
      return false;
    }
    return true;
  }
  attachClause(std::move(Cleaned), /*Learned=*/false);
  return true;
}

SatSolver::ClauseRef SatSolver::attachClause(std::vector<Lit> Lits,
                                             bool Learned) {
  assert(Lits.size() >= 2 && "watched clauses need two literals");
  ClauseRef Ref = static_cast<ClauseRef>(Clauses.size());
  Clause C;
  C.Lits = std::move(Lits);
  C.Learned = Learned;
  C.Activity = Learned ? ClauseInc : 0;
  Watches[(~C.Lits[0]).X].push_back({Ref, C.Lits[1]});
  Watches[(~C.Lits[1]).X].push_back({Ref, C.Lits[0]});
  if (Telemetry::enabled())
    Mem.charge(sizeof(Clause) + C.Lits.size() * sizeof(Lit));
  Clauses.push_back(std::move(C));
  return Ref;
}

bool SatSolver::enqueue(Lit L, ClauseRef Reason) {
  uint8_t V = litValue(L);
  if (V != ValueUnassigned)
    return V == 1;
  Var X = L.var();
  Assigns[X] = L.sign() ? 0 : 1;
  Phase[X] = Assigns[X];
  Levels[X] = currentLevel();
  Reasons[X] = Reason;
  Trail.push_back(L);
  return true;
}

SatSolver::ClauseRef SatSolver::propagate() {
  while (PropagateHead < Trail.size()) {
    Lit P = Trail[PropagateHead++];
    ++Propagations;
    std::vector<Watcher> &Watchers = Watches[P.X];
    size_t Kept = 0;
    for (size_t I = 0; I < Watchers.size(); ++I) {
      Watcher W = Watchers[I];
      // Blocker optimization: clause already satisfied.
      if (litValue(W.Blocker) == 1) {
        Watchers[Kept++] = W;
        continue;
      }
      Clause &C = Clauses[W.Ref];
      Lit NotP = ~P;
      // Normalize so the falsified watcher is Lits[1].
      if (C.Lits[0] == NotP)
        std::swap(C.Lits[0], C.Lits[1]);
      assert(C.Lits[1] == NotP && "watch list out of sync");
      if (litValue(C.Lits[0]) == 1) {
        Watchers[Kept++] = {W.Ref, C.Lits[0]};
        continue;
      }
      // Look for a replacement watch.
      bool FoundWatch = false;
      for (size_t K = 2; K < C.Lits.size(); ++K) {
        if (litValue(C.Lits[K]) != 0) {
          std::swap(C.Lits[1], C.Lits[K]);
          Watches[(~C.Lits[1]).X].push_back({W.Ref, C.Lits[0]});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;
      // Clause is unit or conflicting.
      Watchers[Kept++] = W;
      if (litValue(C.Lits[0]) == 0) {
        // Conflict: keep the remaining watchers and bail out.
        for (size_t K = I + 1; K < Watchers.size(); ++K)
          Watchers[Kept++] = Watchers[K];
        Watchers.resize(Kept);
        PropagateHead = static_cast<uint32_t>(Trail.size());
        return W.Ref;
      }
      enqueue(C.Lits[0], W.Ref);
    }
    Watchers.resize(Kept);
  }
  return NoReason;
}

void SatSolver::bumpVar(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[V] != UINT32_MAX)
    heapUp(HeapPos[V]);
}

void SatSolver::bumpClause(Clause &C) {
  C.Activity += ClauseInc;
  if (C.Activity > 1e20) {
    for (Clause &Other : Clauses)
      if (Other.Learned)
        Other.Activity *= 1e-20;
    ClauseInc *= 1e-20;
  }
}

void SatSolver::decayActivities() {
  VarInc /= 0.95;
  ClauseInc /= 0.999;
}

void SatSolver::analyze(ClauseRef ConflictRef,
                        const std::vector<Lit> &TheoryConflict,
                        std::vector<Lit> &Learned,
                        uint32_t &BacktrackLevel) {
  Learned.clear();
  Learned.push_back(Lit()); // placeholder for the asserting literal

  uint32_t Counter = 0;
  Lit P;
  size_t TrailIndex = Trail.size();
  const std::vector<Lit> *Reason =
      ConflictRef == TheoryLocked ? &TheoryConflict
                                  : &Clauses[ConflictRef].Lits;
  if (ConflictRef != TheoryLocked)
    bumpClause(Clauses[ConflictRef]);

  for (;;) {
    for (Lit Q : *Reason) {
      if (P.valid() && Q == P)
        continue;
      Var V = Q.var();
      if (Seen[V] || level(V) == 0)
        continue;
      Seen[V] = 1;
      bumpVar(V);
      if (level(V) >= currentLevel())
        ++Counter;
      else
        Learned.push_back(Q);
    }
    // Find the next marked literal on the trail.
    while (!Seen[Trail[--TrailIndex].var()])
      ;
    P = Trail[TrailIndex];
    Seen[P.var()] = 0;
    if (--Counter == 0)
      break;
    ClauseRef R = Reasons[P.var()];
    assert(R != NoReason && "UIP literal must have a reason");
    bumpClause(Clauses[R]);
    Reason = &Clauses[R].Lits;
  }
  Learned[0] = ~P;

  // Clear marks of the literals kept in the learned clause.
  BacktrackLevel = 0;
  for (size_t I = 1; I < Learned.size(); ++I)
    Seen[Learned[I].var()] = 0;

  // Compute the backtrack level (second-highest level in the clause) and
  // move that literal to position 1 for watching.
  if (Learned.size() > 1) {
    size_t MaxIndex = 1;
    for (size_t I = 2; I < Learned.size(); ++I)
      if (level(Learned[I].var()) > level(Learned[MaxIndex].var()))
        MaxIndex = I;
    std::swap(Learned[1], Learned[MaxIndex]);
    BacktrackLevel = level(Learned[1].var());
  }
}

void SatSolver::analyzeFinal(Lit FailedAssumption) {
  // Walks the implication graph backwards from ~FailedAssumption (true on
  // the trail) down to the pseudo-decisions that imply it. Decisions above
  // level 0 are exactly the planted assumptions, so the collected set is
  // an inconsistent subset of Assumptions.
  FinalConflict.clear();
  FinalConflict.push_back(FailedAssumption);
  if (currentLevel() == 0)
    return;
  if (level(FailedAssumption.var()) > 0)
    Seen[FailedAssumption.var()] = 1;
  for (size_t I = Trail.size(); I-- > TrailLimits[0];) {
    Var V = Trail[I].var();
    if (!Seen[V])
      continue;
    Seen[V] = 0;
    ClauseRef R = Reasons[V];
    if (R == NoReason) {
      FinalConflict.push_back(Trail[I]);
    } else {
      for (Lit L : Clauses[R].Lits)
        if (L.var() != V && level(L.var()) > 0)
          Seen[L.var()] = 1;
    }
  }
}

void SatSolver::backtrack(uint32_t Level) {
  if (currentLevel() <= Level)
    return;
  uint32_t Bound = TrailLimits[Level];
  for (size_t I = Trail.size(); I-- > Bound;) {
    Lit L = Trail[I];
    Var V = L.var();
    if (TheoryClient && I < TheoryHead)
      TheoryClient->undoLit(L);
    Assigns[V] = ValueUnassigned;
    Reasons[V] = NoReason;
    if (inScope(V))
      requeue(V);
  }
  Trail.resize(Bound);
  TrailLimits.resize(Level);
  PropagateHead = Bound;
  TheoryHead = std::min<uint32_t>(TheoryHead, Bound);
}

Lit SatSolver::pickBranchLit() {
  // Assigned and out-of-scope variables are popped for good: backtrack()
  // and the next scoped solve() requeue them when they can be decided.
  while (!heapEmpty()) {
    Var V = heapPop();
    if (Assigns[V] == ValueUnassigned && inScope(V))
      return Phase[V] ? Lit::pos(V) : Lit::neg(V);
  }
  return Lit();
}

// ----------------------------------------------------------- VSIDS heap

void SatSolver::heapInsert(Var V) {
  HeapPos[V] = static_cast<uint32_t>(Heap.size());
  Heap.push_back(V);
  heapUp(HeapPos[V]);
}

void SatSolver::heapUp(uint32_t Pos) {
  Var V = Heap[Pos];
  while (Pos > 0) {
    uint32_t Parent = (Pos - 1) / 2;
    if (Activity[Heap[Parent]] >= Activity[V])
      break;
    Heap[Pos] = Heap[Parent];
    HeapPos[Heap[Pos]] = Pos;
    Pos = Parent;
  }
  Heap[Pos] = V;
  HeapPos[V] = Pos;
}

void SatSolver::heapDown(uint32_t Pos) {
  Var V = Heap[Pos];
  for (;;) {
    uint32_t Child = 2 * Pos + 1;
    if (Child >= Heap.size())
      break;
    if (Child + 1 < Heap.size() &&
        Activity[Heap[Child + 1]] > Activity[Heap[Child]])
      ++Child;
    if (Activity[Heap[Child]] <= Activity[V])
      break;
    Heap[Pos] = Heap[Child];
    HeapPos[Heap[Pos]] = Pos;
    Pos = Child;
  }
  Heap[Pos] = V;
  HeapPos[V] = Pos;
}

Var SatSolver::heapPop() {
  Var Top = Heap[0];
  HeapPos[Top] = UINT32_MAX;
  Var Last = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    Heap[0] = Last;
    HeapPos[Last] = 0;
    heapDown(0);
  }
  return Top;
}

// ----------------------------------------------------------- reduce DB

void SatSolver::reduceDb() {
  // Collect learned clauses that are not currently a reason, sort by
  // activity, and drop the least active half. ClauseRefs are compacted,
  // so watches and reasons are rebuilt afterwards.
  std::vector<bool> Locked(Clauses.size(), false);
  for (Lit L : Trail) {
    ClauseRef R = Reasons[L.var()];
    if (R != NoReason && R != TheoryLocked)
      Locked[R] = true;
  }

  std::vector<ClauseRef> Candidates;
  for (ClauseRef R = 0; R < Clauses.size(); ++R)
    if (Clauses[R].Learned && !Locked[R] && Clauses[R].Lits.size() > 2)
      Candidates.push_back(R);
  if (Candidates.size() < 100)
    return;
  std::sort(Candidates.begin(), Candidates.end(),
            [this](ClauseRef A, ClauseRef B) {
              return Clauses[A].Activity < Clauses[B].Activity;
            });
  std::vector<bool> Remove(Clauses.size(), false);
  for (size_t I = 0; I < Candidates.size() / 2; ++I)
    Remove[Candidates[I]] = true;

  std::vector<ClauseRef> NewRef(Clauses.size(), NoReason);
  size_t Kept = 0;
  uint64_t FreedBytes = 0;
  for (ClauseRef R = 0; R < Clauses.size(); ++R) {
    if (Remove[R]) {
      FreedBytes += sizeof(Clause) + Clauses[R].Lits.size() * sizeof(Lit);
      continue;
    }
    NewRef[R] = static_cast<ClauseRef>(Kept);
    if (Kept != R)
      Clauses[Kept] = std::move(Clauses[R]);
    ++Kept;
  }
  Clauses.resize(Kept);
  Mem.discharge(FreedBytes);

  for (auto &WatchList : Watches)
    WatchList.clear();
  for (ClauseRef R = 0; R < Clauses.size(); ++R) {
    const Clause &C = Clauses[R];
    Watches[(~C.Lits[0]).X].push_back({R, C.Lits[1]});
    Watches[(~C.Lits[1]).X].push_back({R, C.Lits[0]});
  }
  for (ClauseRef &R : Reasons)
    if (R != NoReason && R != TheoryLocked)
      R = NewRef[R];
}

uint64_t SatSolver::numLearnedClauses() const {
  uint64_t N = 0;
  for (const Clause &C : Clauses)
    if (C.Learned)
      ++N;
  return N;
}

// ----------------------------------------------------------- main loop

/// Luby restart sequence (1,1,2,1,1,2,4,...).
static uint64_t luby(uint64_t I) {
  // Find the finite subsequence containing index I and the index within it.
  uint64_t Size = 1;
  uint64_t Seq = 0;
  while (Size < I + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) / 2;
    --Seq;
    I = I % Size;
  }
  return 1ULL << Seq;
}

SatResult SatSolver::solve(Deadline Limit) {
  return solve(std::vector<Lit>(), Limit);
}

SatResult SatSolver::solve(const std::vector<Lit> &Assumed, Deadline Limit,
                           const std::vector<Var> *Scope) {
  FinalConflict.clear();
  AssumptionConflicts = 0;
  Conflicts = Decisions = Propagations = Restarts = 0;
  if (AllocFailed)
    return SatResult::Unknown;
  if (Unsatisfiable)
    return SatResult::Unsat;
  Assumptions = Assumed;
  // A previous solve() leaves its final trail in place (the theory state
  // backs the model); start the new search from the root.
  backtrack(0);
  // Every unassigned variable of the scope must be in the heap; an earlier
  // scoped search may have popped it as out of its own scope.
  Scoped = Scope != nullptr;
  if (Scoped) {
    ++ScopeEpoch;
    for (Var V : *Scope) {
      ScopeStamp[V] = ScopeEpoch;
      requeue(V);
    }
  } else {
    for (Var V = 0; V < numVars(); ++V)
      requeue(V);
  }
  uint64_t ConflictBudget = 64 * luby(Restarts);
  uint64_t ConflictsSinceRestart = 0;
  uint64_t LearnedSinceReduce = 0;
  std::vector<Lit> TheoryConflict;
  std::vector<Lit> Learned;

  for (uint64_t Iteration = 0;; ++Iteration) {
    if ((Iteration & 1023) == 0 && Limit.expired()) {
      backtrack(0);
      return SatResult::Unknown;
    }

    ClauseRef Conflict = propagate();

    // Theory sync: stream newly assigned literals to the theory.
    bool TheoryFailed = false;
    if (Conflict == NoReason && TheoryClient) {
      while (TheoryHead < Trail.size()) {
        TheoryConflict.clear();
        if (!TheoryClient->assertLit(Trail[TheoryHead], TheoryConflict)) {
          TheoryFailed = true;
          break;
        }
        ++TheoryHead;
      }
    }

    if (Conflict != NoReason || TheoryFailed) {
      ++Conflicts;
      ++ConflictsSinceRestart;
      if (currentLevel() == 0) {
        // A conflict below every assumption refutes the clause database
        // itself — this and only this makes the solver permanently unsat.
        Unsatisfiable = true;
        backtrack(0);
        return SatResult::Unsat;
      }
      uint32_t BacktrackLevel = 0;
      analyze(TheoryFailed ? TheoryLocked : Conflict, TheoryConflict,
              Learned, BacktrackLevel);
      backtrack(BacktrackLevel);
      if (Learned.size() == 1) {
        if (!enqueue(Learned[0], NoReason)) {
          Unsatisfiable = true;
          return SatResult::Unsat;
        }
      } else {
        ClauseRef Ref = attachClause(Learned, /*Learned=*/true);
        enqueue(Learned[0], Ref);
        ++LearnedSinceReduce;
      }
      decayActivities();
      continue;
    }

    // No conflict.
    if (ConflictsSinceRestart >= ConflictBudget) {
      backtrack(0);
      ConflictsSinceRestart = 0;
      ConflictBudget = 64 * luby(++Restarts);
      continue;
    }

    if (LearnedSinceReduce > 8000 && currentLevel() == 0) {
      reduceDb();
      LearnedSinceReduce = 0;
    }

    // Plant pending assumptions as pseudo-decisions (in order, one level
    // each) before any real branching; restarts pop and replant them.
    if (currentLevel() < Assumptions.size()) {
      Lit A = Assumptions[currentLevel()];
      uint8_t V = litValue(A);
      if (V == 1) {
        // Already implied: open an empty level so indices keep lining up.
        TrailLimits.push_back(static_cast<uint32_t>(Trail.size()));
        continue;
      }
      if (V == 0) {
        // The database (plus earlier assumptions) refutes this one. Not a
        // global Unsat: report the failed subset and stay usable.
        ++AssumptionConflicts;
        analyzeFinal(A);
        backtrack(0);
        return SatResult::Unsat;
      }
      ++Decisions;
      TrailLimits.push_back(static_cast<uint32_t>(Trail.size()));
      enqueue(A, NoReason);
      continue;
    }

    Lit Decision = pickBranchLit();
    if (!Decision.valid()) {
      // The scope is assigned and the theory accepted the whole trail; the
      // trail stays live as the model.
      return SatResult::Sat;
    }
    ++Decisions;
    TrailLimits.push_back(static_cast<uint32_t>(Trail.size()));
    enqueue(Decision, NoReason);
  }
}
