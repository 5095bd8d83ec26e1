//===- tests/AnalysisTest.cpp - CFG / dataflow / escape / prune units --------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/Dataflow.h"
#include "analysis/Lint.h"
#include "analysis/RaceCheck.h"
#include "analysis/StaticLockset.h"
#include "analysis/StaticMhb.h"
#include "analysis/StaticPrune.h"
#include "analysis/ThreadEscape.h"
#include "analysis/ValueRange.h"
#include "lang/Parser.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rvp;

namespace {

Program parse(const char *Src) {
  std::string Error;
  std::optional<Program> P = parseProgram(Src, Error);
  EXPECT_TRUE(P.has_value()) << Error;
  return std::move(*P);
}

const ThreadDecl &threadNamed(const Program &P, const std::string &Name) {
  for (const ThreadDecl &T : P.Threads)
    if (T.Name == Name)
      return T;
  ADD_FAILURE() << "no thread " << Name;
  return P.Threads[0];
}

uint32_t countKind(const Cfg &G, CfgNode::Kind K) {
  uint32_t N = 0;
  for (const CfgNode &Node : G.nodes())
    if (Node.K == K)
      ++N;
  return N;
}

bool hasDiag(const LintResult &R, DiagKind K) {
  return std::any_of(R.Diags.begin(), R.Diags.end(),
                     [&](const Diagnostic &D) { return D.K == K; });
}

} // namespace

// ------------------------------------------------------------------- CFG

TEST(Cfg, StraightLineShape) {
  Program P = parse("shared x;\n"
                    "thread t { x = 1; x = 2; }\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  // Entry, Exit, two statement nodes; a single path through all of them.
  EXPECT_EQ(G.size(), 4u);
  EXPECT_EQ(countKind(G, CfgNode::Kind::Stmt), 2u);
  EXPECT_EQ(G.node(G.entry()).Succs.size(), 1u);
  EXPECT_EQ(G.node(G.exit()).Preds.size(), 1u);
  for (uint32_t Id = 0; Id < G.size(); ++Id)
    EXPECT_TRUE(G.reachable(Id)) << "node " << Id;
  EXPECT_TRUE(G.unreachableNodes().empty());
}

TEST(Cfg, BranchHasTwoSuccessors) {
  Program P = parse("shared x;\n"
                    "thread t {\n"
                    "  if (x == 0) { x = 1; } else { x = 2; }\n"
                    "  x = 3;\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  EXPECT_EQ(countKind(G, CfgNode::Kind::Branch), 1u);
  for (const CfgNode &N : G.nodes()) {
    if (N.K == CfgNode::Kind::Branch) {
      EXPECT_EQ(N.Succs.size(), 2u);
    }
  }
  // Both arms converge on the final statement; everything is reachable.
  EXPECT_TRUE(G.unreachableNodes().empty());
}

TEST(Cfg, WhileLoopHasBackEdge) {
  Program P = parse("shared x;\n"
                    "thread t { while (x < 3) { x = x + 1; } }\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  uint32_t BranchId = 0;
  for (uint32_t Id = 0; Id < G.size(); ++Id)
    if (G.node(Id).K == CfgNode::Kind::Branch)
      BranchId = Id;
  ASSERT_NE(BranchId, 0u);
  // The condition has two predecessors: entry and the loop body.
  EXPECT_EQ(G.node(BranchId).Preds.size(), 2u);
  EXPECT_EQ(G.node(BranchId).Succs.size(), 2u);
}

TEST(Cfg, SyncLowersToAcquireRelease) {
  Program P = parse("shared x;\nlock m;\n"
                    "thread t { sync m { x = 1; } }\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  EXPECT_EQ(countKind(G, CfgNode::Kind::Acquire), 1u);
  EXPECT_EQ(countKind(G, CfgNode::Kind::Release), 1u);
  EXPECT_EQ(countKind(G, CfgNode::Kind::Stmt), 1u);
}

TEST(Cfg, ConstantFalseBranchIsUnreachable) {
  Program P = parse("shared x;\n"
                    "thread t {\n"
                    "  if (0) { x = 1; }\n"
                    "  x = 2;\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  std::vector<uint32_t> Dead = G.unreachableNodes();
  ASSERT_EQ(Dead.size(), 1u);
  EXPECT_EQ(G.node(Dead[0]).Line, 3u) << "the x = 1 inside if (0)";
}

TEST(Cfg, CodeAfterInfiniteLoopIsUnreachable) {
  Program P = parse("shared x;\n"
                    "thread t {\n"
                    "  while (1) { x = 1; }\n"
                    "  x = 2;\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  std::vector<uint32_t> Dead = G.unreachableNodes();
  ASSERT_EQ(Dead.size(), 1u);
  EXPECT_EQ(G.node(Dead[0]).Line, 4u);
  EXPECT_FALSE(G.reachable(G.exit())) << "nothing leaves while (1)";
}

TEST(Cfg, NonConstantBranchKeepsBothEdges) {
  // `if (x)` cannot fold: both the body and the fallthrough stay live.
  Program P = parse("shared x;\n"
                    "thread t { if (x) { x = 1; } x = 2; }\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  EXPECT_TRUE(G.unreachableNodes().empty());
}

// --------------------------------------------------------- static lockset

TEST(StaticLockset, MustHeldInsideSync) {
  Program P = parse("shared x;\nlock m;\n"
                    "thread t {\n"
                    "  sync m { x = 1; }\n"
                    "  x = 2;\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  StaticLocksetAnalysis LS(P, G);
  int M = LS.lockIndex("m");
  ASSERT_GE(M, 0);
  for (uint32_t Id = 0; Id < G.size(); ++Id) {
    const CfgNode &N = G.node(Id);
    if (N.K != CfgNode::Kind::Stmt || !N.S ||
        N.S->K != Stmt::Kind::Assign)
      continue;
    uint32_t Count = LS.mustAt(Id)[static_cast<uint32_t>(M)];
    // Line 4 sits inside the sync; line 5 follows the release.
    EXPECT_EQ(Count, N.Line == 4 ? 1u : 0u) << "line " << N.Line;
  }
  EXPECT_EQ(LS.mustAt(G.exit())[static_cast<uint32_t>(M)], 0u);
}

TEST(StaticLockset, BranchDependentLockIsNotMust) {
  Program P = parse("shared x;\nlock m;\n"
                    "thread t {\n"
                    "  if (x) { lock m; }\n"
                    "  x = 1;\n"
                    "  if (x) { unlock m; }\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  StaticLocksetAnalysis LS(P, G);
  int M = LS.lockIndex("m");
  ASSERT_GE(M, 0);
  for (uint32_t Id = 0; Id < G.size(); ++Id) {
    const CfgNode &N = G.node(Id);
    if (N.K == CfgNode::Kind::Stmt && N.S &&
        N.S->K == Stmt::Kind::Assign) {
      // Held on one path only: may but not must.
      EXPECT_EQ(LS.mustAt(Id)[static_cast<uint32_t>(M)], 0u);
      EXPECT_GT(LS.mayAt(Id)[static_cast<uint32_t>(M)], 0u);
    }
  }
}

TEST(StaticLockset, ReentrantCountsStack) {
  Program P = parse("shared x;\nlock m;\n"
                    "thread t {\n"
                    "  lock m;\n"
                    "  lock m;\n"
                    "  x = 1;\n"
                    "  unlock m;\n"
                    "  x = 2;\n"
                    "  unlock m;\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  StaticLocksetAnalysis LS(P, G);
  uint32_t M = static_cast<uint32_t>(LS.lockIndex("m"));
  for (uint32_t Id = 0; Id < G.size(); ++Id) {
    const CfgNode &N = G.node(Id);
    if (N.K != CfgNode::Kind::Stmt || !N.S ||
        N.S->K != Stmt::Kind::Assign)
      continue;
    EXPECT_EQ(LS.mustAt(Id)[M], N.Line == 6 ? 2u : 1u) << "line " << N.Line;
  }
  EXPECT_EQ(LS.mustAt(G.exit())[M], 0u);
  EXPECT_EQ(LS.mayAt(G.exit())[M], 0u);
}

TEST(StaticLockset, LeakedLockVisibleAtExit) {
  Program P = parse("shared x;\nlock m;\n"
                    "thread t { if (x) { lock m; } }\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  StaticLocksetAnalysis LS(P, G);
  uint32_t M = static_cast<uint32_t>(LS.lockIndex("m"));
  EXPECT_EQ(LS.mustAt(G.exit())[M], 0u) << "not held on the else path";
  EXPECT_GT(LS.mayAt(G.exit())[M], 0u) << "leaked on the then path";
}

TEST(StaticLockset, MayCountSaturatesInLoop) {
  // Re-acquiring in a loop must terminate via the MayCap saturation, not
  // climb forever.
  Program P = parse("shared x;\nlock m;\n"
                    "thread t { while (x) { lock m; } x = 1; }\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  StaticLocksetAnalysis LS(P, G);
  uint32_t M = static_cast<uint32_t>(LS.lockIndex("m"));
  for (uint32_t Id = 0; Id < G.size(); ++Id) {
    if (LS.reached(Id)) {
      EXPECT_LE(LS.mayAt(Id)[M], StaticLocksetAnalysis::MayCap);
    }
  }
}

TEST(StaticLockset, UndeclaredLockIndexIsNegative) {
  Program P = parse("shared x;\nlock m;\n"
                    "thread t { x = 1; }\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  StaticLocksetAnalysis LS(P, G);
  EXPECT_EQ(LS.lockIndex("nope"), -1);
  EXPECT_EQ(LS.numLocks(), 1u);
}

// ---------------------------------------------------------- thread escape

namespace {

const char *SequentialSpawns = "shared x;\n"
                               "thread a { x = 1; }\n"
                               "thread b { x = 2; }\n"
                               "main {\n"
                               "  spawn a;\n"
                               "  join a;\n"
                               "  spawn b;\n"
                               "  join b;\n"
                               "  x = 3;\n"
                               "}\n";

} // namespace

TEST(ThreadEscape, SequentialThreadsNeverParallel) {
  Program P = parse(SequentialSpawns);
  ThreadEscapeAnalysis E(P);
  // Indices: 0 = main, 1 = a, 2 = b (declaration order).
  EXPECT_FALSE(E.mayHappenInParallel(1, 2));
  EXPECT_FALSE(E.mayHappenInParallel(2, 1));
  EXPECT_FALSE(E.mayHappenInParallel(1, 1)) << "a thread with itself";
  EXPECT_FALSE(E.isThreadShared("x"));
  EXPECT_EQ(E.threadLocalDeclCount(), 1u);
}

TEST(ThreadEscape, OverlappingSpawnsMayRace) {
  Program P = parse("shared x;\n"
                    "thread a { x = 1; }\n"
                    "thread b { x = 2; }\n"
                    "main { spawn a; spawn b; join a; join b; }\n");
  ThreadEscapeAnalysis E(P);
  EXPECT_TRUE(E.mayHappenInParallel(1, 2));
  EXPECT_TRUE(E.isThreadShared("x"));
  EXPECT_EQ(E.threadLocalDeclCount(), 0u);
}

TEST(ThreadEscape, MainAccessOutsideLiveInterval) {
  Program P = parse(SequentialSpawns);
  ThreadEscapeAnalysis E(P);
  // Line 9 is main's x = 3, after both joins: neither thread overlaps it.
  EXPECT_FALSE(E.lineMayOverlap(9, 1));
  EXPECT_FALSE(E.lineMayOverlap(9, 2));
  // An unknown line answers true (conservative).
  EXPECT_TRUE(E.lineMayOverlap(999, 1));
}

TEST(ThreadEscape, ConditionalSpawnWidensToAlwaysLive) {
  // The spawn sits under a branch: the analysis must give up on the
  // interval and treat the thread as always live.
  Program P = parse("shared x;\n"
                    "thread a { x = 1; }\n"
                    "thread b { x = 2; }\n"
                    "main {\n"
                    "  if (x) { spawn a; }\n"
                    "  join a;\n"
                    "  spawn b;\n"
                    "  join b;\n"
                    "}\n");
  ThreadEscapeAnalysis E(P);
  EXPECT_TRUE(E.mayHappenInParallel(1, 2));
  EXPECT_TRUE(E.isThreadShared("x"));
}

TEST(ThreadEscape, UnspawnedThreadNeverRuns) {
  Program P = parse("shared x;\n"
                    "thread a { x = 1; }\n"
                    "thread b { x = 2; }\n"
                    "main { spawn b; join b; x = 3; }\n");
  ThreadEscapeAnalysis E(P);
  EXPECT_FALSE(E.mayHappenInParallel(1, 2)) << "a is never spawned";
  EXPECT_FALSE(E.mayHappenInParallel(0, 1));
  EXPECT_FALSE(E.isThreadShared("x")) << "only b and post-join main access";
}

TEST(ThreadEscape, ArrayAccessesUseBaseName) {
  Program P = parse("shared v[4];\n"
                    "thread a { v[0] = 1; }\n"
                    "thread b { v[1] = 2; }\n"
                    "main { spawn a; spawn b; join a; join b; }\n");
  ThreadEscapeAnalysis E(P);
  // Static analysis cannot separate elements: base name is shared.
  EXPECT_TRUE(E.isThreadShared("v"));
  EXPECT_EQ(E.accessors("v").size(), 2u);
  EXPECT_TRUE(E.isWritten("v"));
  EXPECT_FALSE(E.isRead("v"));
}

// ------------------------------------------------------------------ lint

TEST(Lint, EachKindFires) {
  struct Case {
    DiagKind K;
    const char *Src;
  };
  const Case Cases[] = {
      {DiagKind::NeverShared, SequentialSpawns},
      {DiagKind::UnlockedAccess,
       "shared x;\nthread a { x = 1; }\nthread b { x = 2; }\n"
       "main { spawn a; spawn b; join a; join b; }\n"},
      {DiagKind::UnreleasedLock,
       "shared x;\nlock m;\nthread t { lock m; x = 1; }\n"
       "main { spawn t; join t; }\n"},
      {DiagKind::ReentrantAcquire,
       "shared x;\nlock m;\nthread t { lock m; lock m; x = 1;\n"
       "unlock m; unlock m; }\nmain { spawn t; join t; }\n"},
      {DiagKind::UnreachableCode,
       "shared x;\nthread t { if (0) { x = 1; } x = 2; }\n"
       "main { spawn t; join t; }\n"},
      {DiagKind::ReadNeverWritten,
       "shared x;\nshared y;\nthread t { x = y; }\n"
       "main { spawn t; join t; }\n"},
      {DiagKind::ReleaseUnheld,
       "shared x;\nlock m;\nthread t { unlock m; x = 1; }\n"
       "main { spawn t; join t; }\n"},
  };
  for (const Case &C : Cases) {
    Program P = parse(C.Src);
    LintResult R = runLint(P);
    EXPECT_TRUE(hasDiag(R, C.K)) << diagKindName(C.K);
  }
}

TEST(Lint, CleanProgramHasNoDiags) {
  Program P = parse("shared x;\nlock m;\n"
                    "thread a { sync m { x = 1; } }\n"
                    "thread b { sync m { x = x + 1; } }\n"
                    "main { spawn a; spawn b; join a; join b; }\n");
  LintResult R = runLint(P);
  EXPECT_TRUE(R.Diags.empty()) << R.Diags.size() << " diagnostics";
}

TEST(Lint, DiagnosticsAreSorted) {
  Program P = parse("shared x;\nshared y;\n"
                    "thread a { x = 1; y = 2; }\n"
                    "thread b { x = 3; y = 4; }\n"
                    "main { spawn a; spawn b; join a; join b; }\n");
  LintResult R = runLint(P);
  ASSERT_GE(R.Diags.size(), 2u);
  for (size_t I = 1; I < R.Diags.size(); ++I) {
    const Diagnostic &A = R.Diags[I - 1];
    const Diagnostic &B = R.Diags[I];
    EXPECT_TRUE(A.Line < B.Line || (A.Line == B.Line && A.Col <= B.Col));
  }
}

TEST(Lint, VolatileAccessNeedsNoLock) {
  Program P = parse("shared volatile x;\n"
                    "thread a { x = 1; }\n"
                    "thread b { x = 2; }\n"
                    "main { spawn a; spawn b; join a; join b; }\n");
  LintResult R = runLint(P);
  EXPECT_FALSE(hasDiag(R, DiagKind::UnlockedAccess));
}

// ----------------------------------------------------------- prune oracle

namespace {

/// Builds a trace whose thread ids line up with the program's declaration
/// order (main interned first) and whose locations use the compiler's
/// "L<line>" scheme, as StaticPruneOracle::bind expects.
struct OracleFixture {
  explicit OracleFixture(const char *Src) : P(parse(Src)), Oracle(P) {
    B.trace().internThread("main");
    for (size_t I = 1; I < P.Threads.size(); ++I)
      B.trace().internThread(P.Threads[I].Name);
  }

  /// Builds, binds, and returns the trace by reference — the oracle keys
  /// on the trace's address, so it must not be moved afterwards.
  Trace &bindTrace() {
    T = B.build();
    Oracle.bind(T);
    return T;
  }

  Program P;
  StaticPruneOracle Oracle;
  TraceBuilder B;
  Trace T;
};

using Rule = CopPruner::Rule;

} // namespace

TEST(StaticPrune, CommonMustLockIsPrunable) {
  OracleFixture F("shared x;\nlock m;\n"
                  "thread a { sync m { x = 1; } }\n"
                  "thread b { sync m { x = 2; } }\n"
                  "main { spawn a; spawn b; join a; join b; }\n");
  F.B.write("a", "x", 1, "L3"); // 0
  F.B.write("b", "x", 2, "L4"); // 1
  Trace &T = F.bindTrace();
  EXPECT_EQ(F.Oracle.prunable(T, 0, 1), Rule::Lockset);
  EXPECT_EQ(F.Oracle.prunable(T, 1, 0), Rule::Lockset) << "symmetric";
}

TEST(StaticPrune, UnprotectedPairIsNotPrunable) {
  OracleFixture F("shared x;\nlock m;\n"
                  "thread a { sync m { x = 1; } }\n"
                  "thread b { x = 2; }\n"
                  "main { spawn a; spawn b; join a; join b; }\n");
  F.B.write("a", "x", 1, "L3");
  F.B.write("b", "x", 2, "L4");
  Trace &T = F.bindTrace();
  EXPECT_EQ(F.Oracle.prunable(T, 0, 1), Rule::None);
}

TEST(StaticPrune, DisjointIntervalsArePrunable) {
  OracleFixture F(SequentialSpawns);
  F.B.write("a", "x", 1, "L2");
  F.B.write("b", "x", 2, "L3");
  F.B.write("main", "x", 3, "L9");
  Trace &T = F.bindTrace();
  EXPECT_EQ(F.Oracle.prunable(T, 0, 1), Rule::Interval)
      << "a joined before b spawns";
  EXPECT_EQ(F.Oracle.prunable(T, 0, 2), Rule::Interval)
      << "main writes after join a";
  EXPECT_EQ(F.Oracle.prunable(T, 1, 2), Rule::Interval);
}

TEST(StaticPrune, UnknownInformationAnswersFalse) {
  OracleFixture F("shared x;\nlock m;\n"
                  "thread a { sync m { x = 1; } }\n"
                  "thread b { sync m { x = 2; } }\n"
                  "main { spawn a; spawn b; join a; join b; }\n");
  F.B.write("a", "x", 1, "somewhere"); // unparsable location
  F.B.write("b", "x", 2, "L4");
  F.B.write("a", "x", 3, "L3");
  Trace &T = F.bindTrace();
  EXPECT_EQ(F.Oracle.prunable(T, 0, 1), Rule::None)
      << "unknown loc: no lock info";
  EXPECT_EQ(F.Oracle.prunable(T, 0, 2), Rule::None) << "same thread";
  // An unbound (different) trace must never prune.
  TraceBuilder Other;
  Other.write("t1", "x", 1, "L3").write("t2", "x", 2, "L4");
  Trace T2 = Other.build();
  EXPECT_EQ(F.Oracle.prunable(T2, 0, 1), Rule::None);
}

TEST(StaticPrune, LineOutsideLockIsNotPrunable) {
  // Same thread has both locked and unlocked accesses; only the locked
  // line may prune.
  OracleFixture F("shared x;\nlock m;\n"
                  "thread a {\n"
                  "  sync m { x = 1; }\n"
                  "  x = 2;\n"
                  "}\n"
                  "thread b { sync m { x = 3; } }\n"
                  "main { spawn a; spawn b; join a; join b; }\n");
  F.B.write("a", "x", 1, "L4"); // 0: locked
  F.B.write("a", "x", 2, "L5"); // 1: unlocked
  F.B.write("b", "x", 3, "L7"); // 2: locked
  Trace &T = F.bindTrace();
  EXPECT_EQ(F.Oracle.prunable(T, 0, 2), Rule::Lockset);
  EXPECT_EQ(F.Oracle.prunable(T, 1, 2), Rule::None);
}

TEST(StaticPrune, ThreadLocalVarsCounted) {
  OracleFixture F(SequentialSpawns);
  EXPECT_EQ(F.Oracle.threadLocalVars(), 1u);
}

// -------------------------------------------------------------- Dataflow

namespace {

uint32_t threadIndex(const Program &P, const std::string &Name) {
  for (uint32_t I = 0; I < P.Threads.size(); ++I)
    if (P.Threads[I].Name == Name)
      return I;
  ADD_FAILURE() << "no thread " << Name;
  return 0;
}

/// Saturating step counter: transfer adds one per statement node, meet
/// takes the max, and everything clamps at Cap — a finite-height domain
/// whose fixpoint on a cyclic CFG must hit the clamp, not diverge.
struct SaturatingCount {
  static constexpr uint32_t Cap = 5;
  using Domain = uint32_t;
  Domain boundary() const { return 0; }
  bool meet(Domain &Out, const Domain &In) const {
    Domain Merged = std::max(Out, In);
    bool Changed = Merged != Out;
    Out = Merged;
    return Changed;
  }
  void transfer(const CfgNode &N, Domain &D) const {
    if (N.K == CfgNode::Kind::Stmt && D < Cap)
      ++D;
  }
};

} // namespace

TEST(Dataflow, CyclicCfgTerminatesAtSaturation) {
  Program P = parse("shared x;\n"
                    "thread t {\n"
                    "  local i = 0;\n"
                    "  while (i < 100) { x = i; i = i + 1; }\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  DataflowResult<SaturatingCount> R = solveDataflow(G, SaturatingCount{});
  // The loop pumps the counter around the back-edge until the clamp: a
  // non-saturating domain would never leave the worklist.
  EXPECT_TRUE(R.Reached[G.exit()]);
  EXPECT_EQ(R.In[G.exit()], SaturatingCount::Cap);
}

TEST(Dataflow, UnreachedBranchKeepsDefaultState) {
  Program P = parse("shared x;\n"
                    "thread t {\n"
                    "  if (0 == 1) { x = 1; x = 2; }\n"
                    "  x = 3;\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  DataflowResult<SaturatingCount> R = solveDataflow(G, SaturatingCount{});
  // The constant-false arm is never reached: its nodes keep the
  // default-constructed domain and are flagged, and the dead state does
  // not leak into the join after the branch.
  bool SawDead = false;
  for (uint32_t Id = 0; Id < G.size(); ++Id)
    if (!G.reachable(Id)) {
      SawDead = true;
      EXPECT_FALSE(R.Reached[Id]);
      EXPECT_EQ(R.In[Id], 0u);
    }
  EXPECT_TRUE(SawDead);
  EXPECT_TRUE(R.Reached[G.exit()]);
}

TEST(Dataflow, BackEdgeMeetsWithLoopEntry) {
  Program P = parse("shared x;\n"
                    "thread t {\n"
                    "  local i = 0;\n"
                    "  while (i < 2) { i = i + 1; }\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  Cfg G(threadNamed(P, "t"));
  DataflowResult<SaturatingCount> R = solveDataflow(G, SaturatingCount{});
  // The loop-head branch meets the entry path (1 statement: the decl)
  // with the richer back-edge path; max-meet must keep the back-edge
  // value, so the exit sees the saturated count, not the entry count.
  for (uint32_t Id = 0; Id < G.size(); ++Id) {
    if (G.node(Id).K == CfgNode::Kind::Branch) {
      EXPECT_GT(R.In[Id], 1u);
    }
  }
}

// ------------------------------------------------------------ ValueRange

TEST(ValueRange, IntervalArithmetic) {
  Interval A = Interval::range(1, 2), B = Interval::range(3, 4);
  EXPECT_EQ(evalBinary(BinOp::Add, A, B), Interval::range(4, 6));
  EXPECT_EQ(evalBinary(BinOp::Sub, A, B), Interval::range(-3, -1));
  EXPECT_EQ(evalBinary(BinOp::Mul, A, B), Interval::range(3, 8));
  // Comparisons on disjoint intervals decide exactly.
  EXPECT_TRUE(evalBinary(BinOp::Lt, A, B).isConstant());
  EXPECT_TRUE(evalBinary(BinOp::Eq, A, B).isZero());
  // Overflow saturates to infinity instead of wrapping.
  Interval Big = Interval::constant(INT64_MAX);
  EXPECT_EQ(evalBinary(BinOp::Add, Big, Interval::constant(1)).Hi,
            Interval::PosInf);
  // Division by a zero-containing divisor stays top (runtime error path).
  EXPECT_TRUE(
      evalBinary(BinOp::Div, A, Interval::range(0, 4)).isTop());
  EXPECT_EQ(evalUnary(UnOp::Neg, A), Interval::range(-2, -1));
}

TEST(ValueRange, ReadOnlySharedIsSingleValued) {
  Program P = parse("shared gate = 7; shared x;\n"
                    "thread t { if (gate == 7) { x = 1; } }\n"
                    "main { spawn t; x = 2; join t; }\n");
  ValueRangeAnalysis VR(P);
  EXPECT_TRUE(VR.sharedSingleValued("gate"));
  EXPECT_EQ(VR.sharedRange("gate"), Interval::constant(7));
  EXPECT_FALSE(VR.sharedSingleValued("x"));
}

TEST(ValueRange, BranchOnReadOnlySharedIsConstant) {
  Program P = parse("shared gate = 1; shared x;\n"
                    "thread t {\n"
                    "  if (gate == 1) { x = 1; }\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  ValueRangeAnalysis VR(P);
  // Line 3 is the `if` — its branch event is provably taken.
  EXPECT_TRUE(VR.branchConstantAt(threadIndex(P, "t"), 3));
  EXPECT_GE(VR.branchSites(), 1u);
  EXPECT_GE(VR.constantBranchSites(), 1u);
}

TEST(ValueRange, BranchOnWrittenSharedIsNotConstant) {
  Program P = parse("shared flag; shared x;\n"
                    "thread t {\n"
                    "  if (flag == 1) { x = 1; }\n"
                    "}\n"
                    "thread u { flag = 1; }\n"
                    "main { spawn t; spawn u; join t; join u; }\n");
  ValueRangeAnalysis VR(P);
  // flag may be 0 or 1 depending on interleaving: never foldable.
  EXPECT_FALSE(VR.branchConstantAt(threadIndex(P, "t"), 3));
}

TEST(ValueRange, LoopCounterWidensWithoutDivergence) {
  Program P = parse("shared x;\n"
                    "thread t {\n"
                    "  local i = 0;\n"
                    "  while (i < 1000000) { x = x + i; i = i + 1; }\n"
                    "}\n"
                    "main { spawn t; join t; }\n");
  // Construction is the assertion: the two-level fixpoint must terminate
  // on an unbounded-looking accumulation (widening, not enumeration).
  ValueRangeAnalysis VR(P);
  EXPECT_FALSE(VR.branchConstantAt(threadIndex(P, "t"), 4));
}

// ------------------------------------------------------------- StaticMhb

TEST(StaticMhb, NestedForkJoinOrdersParentAccesses) {
  Program P = parse("shared hand; shared x;\n"
                    "thread helper { hand = hand + 1; }\n"
                    "thread t1 {\n"
                    "  hand = 1;\n"
                    "  spawn helper;\n"
                    "  join helper;\n"
                    "  x = hand;\n"
                    "}\n"
                    "thread t2 { x = 2; }\n"
                    "main { spawn t1; spawn t2; join t1; join t2; }\n");
  StaticMhbAnalysis Mhb(P);
  uint32_t T1 = threadIndex(P, "t1"), T2 = threadIndex(P, "t2");
  uint32_t Helper = threadIndex(P, "helper");
  // t1's pre-spawn write precedes every helper statement; helper's write
  // precedes t1's post-join read.
  EXPECT_TRUE(Mhb.orderedBefore(T1, 4, Helper, 2));
  EXPECT_TRUE(Mhb.orderedBefore(Helper, 2, T1, 7));
  // The post-join read is NOT ordered the other way around.
  EXPECT_FALSE(Mhb.orderedBefore(T1, 7, Helper, 2));
  // Siblings t1/t2 overlap: nothing orders their bodies.
  EXPECT_FALSE(Mhb.orderedBefore(T1, 7, T2, 9));
  EXPECT_FALSE(Mhb.orderedBefore(T2, 9, T1, 7));
  EXPECT_TRUE(Mhb.threadOrdered(Helper, T1) ||
              Mhb.orderedBefore(Helper, 2, T1, 7));
}

TEST(StaticMhb, ConditionalJoinDoesNotOrder) {
  Program P = parse("shared x; shared c;\n"
                    "thread t { x = 1; }\n"
                    "main {\n"
                    "  spawn t;\n"
                    "  if (c == 1) { join t; }\n"
                    "  x = 2;\n"
                    "}\n");
  StaticMhbAnalysis Mhb(P);
  uint32_t T = threadIndex(P, "t");
  // The join happens on one path only: it cannot prove main's late write
  // ordered after t's write.
  EXPECT_FALSE(Mhb.orderedBefore(T, 2, 0, 6));
}

TEST(StaticMhb, SequentialSpawnJoinChains) {
  Program P = parse("shared x;\n"
                    "thread a { x = 1; }\n"
                    "thread b { x = 2; }\n"
                    "main { spawn a; join a; spawn b; join b; }\n");
  StaticMhbAnalysis Mhb(P);
  uint32_t A = threadIndex(P, "a"), B = threadIndex(P, "b");
  // a fully precedes b through main's join-then-spawn.
  EXPECT_TRUE(Mhb.threadOrdered(A, B));
  EXPECT_TRUE(Mhb.orderedBefore(A, 2, B, 3));
  EXPECT_FALSE(Mhb.orderedBefore(B, 3, A, 2));
}

// ------------------------------------------------------------- RaceCheck

TEST(RaceCheck, FindsAndRanksTrueRace) {
  Program P = parse("shared x;\n"
                    "thread t1 { x = 1; }\n"
                    "thread t2 { x = 2; }\n"
                    "main { spawn t1; spawn t2; join t1; join t2; }\n");
  RaceCheckResult R = runRaceCheck(P);
  ASSERT_EQ(R.Warnings.size(), 1u);
  const StaticRaceWarning &W = R.Warnings[0];
  EXPECT_EQ(W.Var, "x");
  // Both writes, neither locked: maximal rank.
  EXPECT_EQ(W.Rank, 3);
  EXPECT_TRUE(W.A.Write);
  EXPECT_TRUE(W.B.Write);
}

TEST(RaceCheck, CommonMustLockFiltersPair) {
  Program P = parse("shared x; lock l;\n"
                    "thread t1 { sync l { x = 1; } }\n"
                    "thread t2 { sync l { x = x + 1; } }\n"
                    "main { spawn t1; spawn t2; join t1; join t2; }\n");
  RaceCheckResult R = runRaceCheck(P);
  EXPECT_TRUE(R.Warnings.empty());
  EXPECT_GT(R.PairsLockProtected, 0u);
}

TEST(RaceCheck, StaticMhbFiltersForkJoinPairs) {
  Program P = parse("shared x;\n"
                    "thread t { x = 1; }\n"
                    "main { spawn t; join t; x = 2; }\n");
  RaceCheckResult R = runRaceCheck(P);
  // main's post-join write is ordered after t's write in every run.
  EXPECT_TRUE(R.Warnings.empty());
}

TEST(RaceCheck, VolatileAccessesNeverWarn) {
  Program P = parse("shared volatile x;\n"
                    "thread t1 { x = 1; }\n"
                    "thread t2 { x = 2; }\n"
                    "main { spawn t1; spawn t2; join t1; join t2; }\n");
  RaceCheckResult R = runRaceCheck(P);
  EXPECT_TRUE(R.Warnings.empty());
}
