//===- tests/TraceIOTest.cpp - Trace text format tests ---------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "trace/Consistency.h"
#include "trace/TraceBuilder.h"
#include "workloads/Catalog.h"

#include <gtest/gtest.h>

using namespace rvp;

TEST(TraceIO, RoundTrip) {
  TraceBuilder B;
  B.fork("t1", "t2", "L1");
  B.begin("t2", "L2");
  B.write("t2", "x", 3, "L3");
  B.acquire("t1", "lock", "L4");
  B.read("t1", "x", 3, "L5", /*IsVolatile=*/true);
  B.release("t1", "lock", "L6");
  B.branch("t1", "L7");
  B.end("t2", "L8");
  B.join("t1", "t2", "L9");
  Trace T = B.build();

  std::string Text = writeTraceText(T);
  std::string Error;
  auto Parsed = parseTraceText(Text, Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  ASSERT_EQ(Parsed->size(), T.size());
  for (EventId Id = 0; Id < T.size(); ++Id) {
    const Event &A = T[Id];
    const Event &B2 = (*Parsed)[Id];
    EXPECT_EQ(A.Kind, B2.Kind) << "event " << Id;
    EXPECT_EQ(A.Data, B2.Data) << "event " << Id;
    EXPECT_EQ(A.Volatile, B2.Volatile) << "event " << Id;
    EXPECT_EQ(T.threadName(A.Tid), Parsed->threadName(B2.Tid));
    EXPECT_EQ(T.locName(A.Loc), Parsed->locName(B2.Loc));
  }
}

TEST(TraceIO, RoundTripKeepsInitialValues) {
  // `rvpredict record` then `rvpredict detect`: the catalog programs that
  // start variables at non-zero values must come back consistent.
  for (const char *Name : {"account", "airline"}) {
    std::optional<BenchmarkCase> Case = findBenchmark(Name);
    ASSERT_TRUE(Case.has_value()) << Name;
    Trace T;
    std::string Error;
    ASSERT_TRUE(benchmarkTrace(*Case, T, Error)) << Error;
    std::string Text = writeTraceText(T);
    EXPECT_NE(Text.find("\ninit "), std::string::npos) << Name;
    auto Parsed = parseTraceText(Text, Error);
    ASSERT_TRUE(Parsed.has_value()) << Name << ": " << Error;
    EXPECT_TRUE(checkConsistency(*Parsed, ConsistencyMode::Fragment).Ok)
        << Name;
    ASSERT_EQ(Parsed->numVars(), T.numVars()) << Name;
    for (VarId Var = 0; Var < T.numVars(); ++Var) {
      EXPECT_EQ(Parsed->varName(Var), T.varName(Var)) << Name;
      EXPECT_EQ(Parsed->initialValueOf(Var), T.initialValueOf(Var))
          << Name << " " << T.varName(Var);
    }
    EXPECT_EQ(writeTraceText(*Parsed), Text) << Name;
  }
}

TEST(TraceIO, InitLinesPrecedeEvents) {
  std::string Error;
  auto Parsed = parseTraceText("init x 5\nread t1 x 5\n", Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->initialValueOf(0), 5);
  EXPECT_FALSE(parseTraceText("read t1 x 0\ninit x 5\n", Error));
  EXPECT_NE(Error.find("init line after the first event"), std::string::npos)
      << Error;
  EXPECT_FALSE(parseTraceText("init x\n", Error));
}

TEST(TraceIO, RoundTripWaitNotify) {
  TraceBuilder B;
  B.acquire("t1", "l");
  B.waitSuspend("t1", "l", 5);
  B.acquire("t2", "l");
  B.notify("t2", "l", 5);
  B.release("t2", "l");
  B.waitResume("t1", "l", 5);
  B.release("t1", "l");
  Trace T = B.build();
  std::string Error;
  auto Parsed = parseTraceText(writeTraceText(T), Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ((*Parsed)[1].Aux, 5u);
  EXPECT_EQ((*Parsed)[3].Aux, 5u);
  EXPECT_EQ(Parsed->notifyOfMatch(5), 3u);
}

TEST(TraceIO, ParsesCommentsAndBlankLines) {
  std::string Error;
  auto T = parseTraceText("# header\n\nwrite t1 x 1\n  \nread t2 x 1\n",
                          Error);
  ASSERT_TRUE(T.has_value()) << Error;
  EXPECT_EQ(T->size(), 2u);
}

TEST(TraceIO, RejectsUnknownKind) {
  std::string Error;
  EXPECT_FALSE(parseTraceText("frobnicate t1 x", Error).has_value());
  EXPECT_NE(Error.find("line 1"), std::string::npos);
}

TEST(TraceIO, RejectsArityErrors) {
  std::string Error;
  EXPECT_FALSE(parseTraceText("write t1 x", Error).has_value());
  EXPECT_FALSE(parseTraceText("read t1 x 1 2", Error).has_value());
  EXPECT_FALSE(parseTraceText("branch", Error).has_value());
  EXPECT_FALSE(parseTraceText("acquire t1", Error).has_value());
}

TEST(TraceIO, RejectsMalformedValue) {
  std::string Error;
  EXPECT_FALSE(parseTraceText("write t1 x abc", Error).has_value());
  EXPECT_FALSE(parseTraceText("write t1 x 1 match=zz", Error).has_value());
}

TEST(TraceIO, SpanSerialization) {
  TraceBuilder B;
  B.write("t1", "x", 1);
  B.write("t1", "x", 2);
  B.write("t1", "x", 3);
  Trace T = B.build();
  std::string Text = writeTraceText(T, {1, 2});
  std::string Error;
  auto Parsed = parseTraceText(Text, Error);
  ASSERT_TRUE(Parsed.has_value());
  ASSERT_EQ(Parsed->size(), 1u);
  EXPECT_EQ((*Parsed)[0].Data, 2);
}
