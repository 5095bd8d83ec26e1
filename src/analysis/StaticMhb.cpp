//===- analysis/StaticMhb.cpp - Static must-happen-before -------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticMhb.h"

#include "analysis/AstWalk.h"
#include "analysis/Cfg.h"

#include <deque>
#include <string>

using namespace rvp;

namespace {

/// Nodes reachable from \p From (inclusive) following Succs.
std::vector<bool> reachFrom(const Cfg &G, uint32_t From) {
  std::vector<bool> Seen(G.size(), false);
  std::deque<uint32_t> Work{From};
  Seen[From] = true;
  while (!Work.empty()) {
    uint32_t Id = Work.front();
    Work.pop_front();
    for (uint32_t To : G.node(Id).Succs)
      if (!Seen[To]) {
        Seen[To] = true;
        Work.push_back(To);
      }
  }
  return Seen;
}

/// Nodes reachable from Entry without passing through \p Avoid. A node
/// outside this set (but reachable in the full graph) is dominated by
/// \p Avoid: every execution reaching it already executed \p Avoid.
std::vector<bool> reachAvoiding(const Cfg &G, uint32_t Avoid) {
  std::vector<bool> Seen(G.size(), false);
  if (G.entry() == Avoid)
    return Seen;
  std::deque<uint32_t> Work{G.entry()};
  Seen[G.entry()] = true;
  while (!Work.empty()) {
    uint32_t Id = Work.front();
    Work.pop_front();
    for (uint32_t To : G.node(Id).Succs)
      if (To != Avoid && !Seen[To]) {
        Seen[To] = true;
        Work.push_back(To);
      }
  }
  return Seen;
}

} // namespace

StaticMhbAnalysis::StaticMhbAnalysis(const Program &P)
    : NumThreads(P.Threads.size()) {
  std::map<std::string, uint32_t> ThreadIdx;
  for (uint32_t T = 0; T < P.Threads.size(); ++T)
    ThreadIdx[P.Threads[T].Name] = T;

  std::vector<Cfg> Cfgs;
  Cfgs.reserve(NumThreads);
  for (uint32_t T = 0; T < NumThreads; ++T)
    Cfgs.emplace_back(P.Threads[T]);

  // Line -> node registry, spawn-site and join-site collection. Only
  // reachable nodes matter: unreached code emits no events and executes
  // no spawn/join.
  LineNodes.resize(NumThreads);
  SpawnOf.assign(NumThreads, SpawnSite{});
  std::vector<uint32_t> SpawnSiteCount(NumThreads, 0);
  std::vector<uint32_t> SpawnSiteNode(NumThreads, 0);
  JoinDominates.resize(NumThreads);
  for (uint32_t T = 0; T < NumThreads; ++T)
    JoinDominates[T].resize(NumThreads);

  for (uint32_t T = 0; T < NumThreads; ++T) {
    const Cfg &G = Cfgs[T];
    for (uint32_t Id = 0; Id < G.size(); ++Id) {
      const CfgNode &N = G.node(Id);
      if (!G.reachable(Id) || !N.S)
        continue;
      auto Register = [&](uint32_t Line) {
        if (Line != 0)
          LineNodes[T][Line].push_back(Id);
      };
      Register(N.Line);
      forEachOwnExprNode(*N.S, [&](const Expr &E) { Register(E.Line); });

      if (N.S->K == Stmt::Kind::Spawn) {
        auto It = ThreadIdx.find(N.S->Name);
        if (It != ThreadIdx.end() && It->second != T) {
          uint32_t Child = It->second;
          if (++SpawnSiteCount[Child] == 1) {
            SpawnOf[Child].Owner = T;
            SpawnSiteNode[Child] = Id;
          }
        }
      } else if (N.S->K == Stmt::Kind::Join) {
        auto It = ThreadIdx.find(N.S->Name);
        if (It != ThreadIdx.end() && It->second != T) {
          uint32_t Child = It->second;
          // Any single join site is usable: passing it means the child
          // finished, whatever other join statements exist.
          std::vector<bool> Avoid = reachAvoiding(G, Id);
          std::vector<bool> &Dom = JoinDominates[T][Child];
          if (Dom.empty())
            Dom.assign(G.size(), false);
          for (uint32_t Y = 0; Y < G.size(); ++Y)
            if (Y != Id && G.reachable(Y) && !Avoid[Y])
              Dom[Y] = true;
        }
      }
    }
  }
  for (uint32_t Child = 0; Child < NumThreads; ++Child) {
    // A duplicated spawn statement leaves "which site forked the thread"
    // unknown; only a unique site anchors begin(Child) in program order.
    if (SpawnSiteCount[Child] != 1)
      continue;
    SpawnOf[Child].Unique = true;
    SpawnOf[Child].ReachFromSite =
        reachFrom(Cfgs[SpawnOf[Child].Owner], SpawnSiteNode[Child]);
  }

  // Milestone graph + Floyd-Warshall closure.
  size_t M = 2 * NumThreads;
  Reach.assign(M * M, false);
  auto Edge = [&](uint32_t From, uint32_t To) {
    Reach[From * M + To] = true;
  };
  for (uint32_t T = 0; T < NumThreads; ++T)
    Edge(beginOf(T), endOf(T));
  for (uint32_t Child = 0; Child < NumThreads; ++Child) {
    if (!SpawnOf[Child].Unique)
      continue;
    uint32_t C = SpawnOf[Child].Owner;
    Edge(beginOf(C), beginOf(Child));
    // end(A) -> begin(Child) when a join of A dominates the spawn site.
    for (uint32_t A = 0; A < NumThreads; ++A) {
      const std::vector<bool> &Dom = JoinDominates[C][A];
      if (!Dom.empty() && Dom[SpawnSiteNode[Child]])
        Edge(endOf(A), beginOf(Child));
    }
  }
  for (uint32_t C = 0; C < NumThreads; ++C)
    for (uint32_t A = 0; A < NumThreads; ++A) {
      const std::vector<bool> &Dom = JoinDominates[C][A];
      if (!Dom.empty() && Dom[Cfgs[C].exit()])
        Edge(endOf(A), endOf(C)); // C cannot finish before A did
    }
  for (size_t K = 0; K < M; ++K)
    for (size_t I = 0; I < M; ++I) {
      if (!Reach[I * M + K])
        continue;
      for (size_t J = 0; J < M; ++J)
        if (Reach[K * M + J])
          Reach[I * M + J] = true;
    }
}

bool StaticMhbAnalysis::threadOrdered(uint32_t A, uint32_t B) const {
  if (A >= NumThreads || B >= NumThreads || A == B)
    return false;
  return Reach[endOf(A) * 2 * NumThreads + beginOf(B)];
}

bool StaticMhbAnalysis::orderedBefore(uint32_t Ta, uint32_t La, uint32_t Tb,
                                      uint32_t Lb) const {
  if (Ta >= NumThreads || Tb >= NumThreads || Ta == Tb || La == 0 ||
      Lb == 0)
    return false;
  auto ItA = LineNodes[Ta].find(La);
  auto ItB = LineNodes[Tb].find(Lb);
  if (ItA == LineNodes[Ta].end() || ItB == LineNodes[Tb].end())
    return false; // line not modelled: no information

  // Milestones every La-event precedes.
  std::vector<uint32_t> Upper{endOf(Ta)};
  for (uint32_t D = 0; D < NumThreads; ++D) {
    if (!SpawnOf[D].Unique || SpawnOf[D].Owner != Ta)
      continue;
    bool AllBefore = true;
    for (uint32_t Node : ItA->second)
      if (SpawnOf[D].ReachFromSite[Node]) {
        AllBefore = false;
        break;
      }
    if (AllBefore)
      Upper.push_back(beginOf(D));
  }
  // Milestones every Lb-event follows.
  std::vector<uint32_t> Lower{beginOf(Tb)};
  for (uint32_t D = 0; D < NumThreads; ++D) {
    const std::vector<bool> &Dom = JoinDominates[Tb][D];
    if (Dom.empty())
      continue;
    bool AllAfter = true;
    for (uint32_t Node : ItB->second)
      if (!Dom[Node]) {
        AllAfter = false;
        break;
      }
    if (AllAfter)
      Lower.push_back(endOf(D));
  }

  size_t M = 2 * NumThreads;
  for (uint32_t M1 : Upper)
    for (uint32_t M2 : Lower)
      if (M1 == M2 || Reach[M1 * M + M2])
        return true;
  return false;
}
