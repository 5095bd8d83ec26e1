//===- analysis/StaticPrune.cpp - Sound static COP pruning ------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticPrune.h"

#include "analysis/AstWalk.h"
#include "analysis/Cfg.h"
#include "analysis/StaticLockset.h"

using namespace rvp;

namespace {

/// Parses the compiler's "L<line>" location names; 0 means unknown.
uint32_t parseLocLine(const std::string &Name) {
  if (Name.size() < 2 || Name[0] != 'L')
    return 0;
  uint32_t Line = 0;
  for (size_t I = 1; I < Name.size(); ++I) {
    if (Name[I] < '0' || Name[I] > '9')
      return 0;
    Line = Line * 10 + static_cast<uint32_t>(Name[I] - '0');
  }
  return Line;
}

} // namespace

StaticPruneOracle::StaticPruneOracle(const Program &P)
    : Escape(P), Mhb(P), Ranges(P), NumThreads(P.Threads.size()) {
  MustLockByLine.resize(NumThreads);
  for (uint32_t T = 0; T < P.Threads.size(); ++T) {
    Cfg G(P.Threads[T]);
    StaticLocksetAnalysis LS(P, G);
    std::map<uint32_t, uint64_t> &ByLine = MustLockByLine[T];

    for (uint32_t Id = 0; Id < G.size(); ++Id) {
      const CfgNode &N = G.node(Id);
      if (!G.reachable(Id) || !N.S)
        continue; // unreached nodes never produce events
      uint64_t Mask = 0;
      const std::vector<uint32_t> &Counts = LS.mustAt(Id);
      for (size_t L = 0; L < Counts.size() && L < 64; ++L)
        if (Counts[L] > 0)
          Mask |= uint64_t(1) << L;
      // A line's mask is the AND over every node that can emit an access
      // event attributed to that line: writes land on the statement line
      // of Assign/ArrayAssign, reads on each owned expression's line.
      // Acquire/Release/branch nodes sharing the line (e.g. a one-line
      // `sync m { x = 1; }`) never produce accesses themselves, so they
      // must not weaken the intersection — only their expressions count.
      auto Register = [&](uint32_t Line) {
        if (Line == 0)
          return;
        auto [It, Fresh] = ByLine.try_emplace(Line, Mask);
        if (!Fresh)
          It->second &= Mask;
      };
      if (N.S->K == Stmt::Kind::Assign || N.S->K == Stmt::Kind::ArrayAssign)
        Register(N.Line);
      forEachOwnExprNode(*N.S, [&](const Expr &E) { Register(E.Line); });
    }
  }
}

void StaticPruneOracle::bind(const Trace &T) {
  Bound = &T;
  LocLine.clear();
  for (const Event &E : T.events()) {
    if (E.Loc == UnknownLoc)
      continue;
    if (E.Loc >= LocLine.size())
      LocLine.resize(E.Loc + 1, 0);
    if (LocLine[E.Loc] == 0)
      LocLine[E.Loc] = parseLocLine(T.locName(E.Loc));
  }
}

uint64_t StaticPruneOracle::mustLocksAt(uint32_t Thread,
                                        uint32_t Line) const {
  const std::map<uint32_t, uint64_t> &ByLine = MustLockByLine[Thread];
  auto It = ByLine.find(Line);
  return It == ByLine.end() ? 0 : It->second;
}

uint32_t StaticPruneOracle::lineOf(const Event &E) const {
  return E.Loc != UnknownLoc && E.Loc < LocLine.size() ? LocLine[E.Loc] : 0;
}

CopPruner::Rule StaticPruneOracle::prunable(const Trace &T, EventId A,
                                            EventId B) const {
  if (Bound != &T)
    return Rule::None; // unbound or different trace: no information
  const Event &Ea = T[A];
  const Event &Eb = T[B];
  uint32_t Ta = Ea.Tid, Tb = Eb.Tid;
  if (Ta == Tb || Ta >= NumThreads || Tb >= NumThreads)
    return Rule::None;
  uint32_t La = lineOf(Ea);
  uint32_t Lb = lineOf(Eb);

  // 1. Temporal disjointness through main's fork/join structure: the
  // window sees the end/join/fork/begin chain between the events, so MHB
  // orders them for every technique.
  if (!Escape.mayHappenInParallel(Ta, Tb) ||
      (Ta == 0 && La != 0 && !Escape.lineMayOverlap(La, Tb)) ||
      (Tb == 0 && Lb != 0 && !Escape.lineMayOverlap(Lb, Ta)))
    return Rule::Interval;

  // 2. Common must-held lock: the accesses sit in critical sections of
  // the same lock in every execution; mutual exclusion orders them in
  // every technique (boundary sections are closed by the encodings).
  if (La != 0 && Lb != 0 &&
      (mustLocksAt(Ta, La) & mustLocksAt(Tb, Lb)) != 0)
    return Rule::Lockset;

  // 3. Static must-happen-before beyond stage 1's top-level intervals:
  // fork/join dominance orders the statement pair in every execution
  // (analysis/StaticMhb.h), and the witnessing chain of events again
  // lies inside every window containing both.
  if (La != 0 && Lb != 0 &&
      (Mhb.orderedBefore(Ta, La, Tb, Lb) ||
       Mhb.orderedBefore(Tb, Lb, Ta, La)))
    return Rule::Mhb;

  return Rule::None;
}

bool StaticPruneOracle::foldableBranch(const Trace &T,
                                       EventId Branch) const {
  if (Bound != &T)
    return false;
  const Event &E = T[Branch];
  if (E.Tid >= NumThreads)
    return false;
  return Ranges.branchConstantAt(E.Tid, lineOf(E));
}
