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

TEST(TraceIO, FirstBadLineWinsWhetherGrammarOrSemantic) {
  // One pass: each line is parsed and its event checked before the next
  // line is read, so the diagnostic names the earliest bad line.
  TraceParseOptions Opts;
  Opts.FileName = "t.txt";
  std::string Error;
  EXPECT_FALSE(parseTraceText("write t1 x 1\n  read t2 x 5 @r\nfrobnicate\n",
                              Error, Opts));
  EXPECT_EQ(Error, "t.txt:2:3: inconsistent input trace: read of x returned "
                   "5 but last write was 1");
  EXPECT_FALSE(parseTraceText("write t1 x 1\nfrobnicate t1\nread t2 x 5\n",
                              Error, Opts));
  EXPECT_EQ(Error.rfind("t.txt:2:1: unknown event kind", 0), 0u) << Error;
}

TEST(TraceIO, SkippedLineInternsNothing) {
  // A rejected line takes the names it introduced back with it.
  TraceParseOptions Opts;
  Opts.SkipBadEvents = true;
  std::string Error;
  TraceParseStats Stats;
  auto T = parseTraceText("acquire t1 l @a\nrelease t9 l @b\n"
                          "read t8 y 3 @c\nwrite t2 x 1\n",
                          Error, Opts, &Stats);
  ASSERT_TRUE(T.has_value()) << Error;
  EXPECT_EQ(Stats.SkippedEvents, 2u);
  EXPECT_EQ(T->numThreads(), 2u); // t1, t2
  EXPECT_EQ(T->numVars(), 1u);    // x
  EXPECT_EQ(T->threadName(1), "t2");
  EXPECT_EQ(T->locName((*T)[0].Loc), "a");
  EXPECT_EQ((*T)[1].Loc, UnknownLoc);
}

namespace {

/// The diagnostic parsing \p Text gives (empty when it parses).
std::string diagnosticOf(std::string_view Text, const char *FileName = "") {
  TraceParseOptions Opts;
  Opts.FileName = FileName;
  std::string Error;
  bool Parsed = parseTraceText(Text, Error, Opts).has_value();
  EXPECT_EQ(Parsed, Error.empty());
  return Error;
}

/// Every name table and event of \p A and \p B are the same, ids included.
void expectSameTrace(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.numThreads(), B.numThreads());
  for (ThreadId Id = 0; Id < A.numThreads(); ++Id)
    EXPECT_EQ(A.threadName(Id), B.threadName(Id));
  ASSERT_EQ(A.numVars(), B.numVars());
  for (VarId Id = 0; Id < A.numVars(); ++Id) {
    EXPECT_EQ(A.varName(Id), B.varName(Id));
    EXPECT_EQ(A.initialValueOf(Id), B.initialValueOf(Id));
  }
  ASSERT_EQ(A.numLocks(), B.numLocks());
  for (LockId Id = 0; Id < A.numLocks(); ++Id)
    EXPECT_EQ(A.lockName(Id), B.lockName(Id));
  ASSERT_EQ(A.size(), B.size());
  for (EventId Id = 0; Id < A.size(); ++Id) {
    const Event &X = A[Id], &Y = B[Id];
    EXPECT_EQ(toString(X), toString(Y)) << "event " << Id;
    EXPECT_EQ(X.Loc, Y.Loc) << "event " << Id;
    EXPECT_EQ(X.Aux, Y.Aux) << "event " << Id;
    if (X.Loc != UnknownLoc) {
      EXPECT_EQ(A.locName(X.Loc), B.locName(Y.Loc));
    }
  }
}

} // namespace

// Diagnostics and traces pinned byte for byte from the split-based reader
// the one-pass tokenizer replaced.

TEST(TraceIOTokenizer, LinesLongerThanTheInlineFields) {
  std::string Error;
  auto T = parseTraceText("write t1 x 5 @a volatile volatile match=1 match=2 "
                          "@b volatile volatile match=3\n",
                          Error);
  ASSERT_TRUE(T) << Error;
  ASSERT_EQ(T->size(), 1u);
  // The leftmost @loc and the rightmost match= win.
  EXPECT_EQ(toString((*T)[0]), "write(t0, v0, 5) volatile");
  EXPECT_EQ(T->locName((*T)[0].Loc), "a");
  EXPECT_EQ((*T)[0].Aux, 3u);

  EXPECT_EQ(diagnosticOf("frob t1 a b c d e f g h i j k\n"),
            "line 1, col 1: unknown event kind 'frob' (offending token "
            "'frob')");
  EXPECT_EQ(diagnosticOf("frob t1 a b c d e f g h i j k\n", "t.txt"),
            "t.txt:1:1: unknown event kind 'frob' (offending token 'frob')");
  EXPECT_EQ(diagnosticOf("read t1 x 5 6 7 8 9 10 11 12 13\n"),
            "line 1, col 1: expected 'read <thread> <var> <value>' "
            "(offending token 'read')");
  EXPECT_EQ(diagnosticOf("read t1 x 5 @a @b @c @d @e @f @g @h match=zz\n"),
            "line 1, col 37: malformed match id (offending token "
            "'match=zz')");
}

TEST(TraceIOTokenizer, RunsOfSpaces) {
  std::string Error;
  auto T = parseTraceText("write   t1    x  1\nread  t2  x   1  @r\n", Error);
  ASSERT_TRUE(T) << Error;
  EXPECT_EQ(writeTraceText(*T),
            "# rvp-trace v1\nwrite t1 x 1\nread t2 x 1 @r\n");
  EXPECT_EQ(diagnosticOf("write  t1   x   abc\n"),
            "line 1, col 17: malformed value (offending token 'abc')");
  // Names of every length up to 80 bytes, with and without a newline
  // after the line.
  for (size_t Length = 1; Length <= 80; ++Length)
    for (const char *Gap : {" ", "   "})
      for (const char *Newline : {"", "\n"}) {
        std::string Var(Length, 'v');
        std::string Text = std::string("write") + Gap + "t1" + Gap + Var +
                           Gap + "7" + Gap + "@" + Var + Newline;
        T = parseTraceText(Text, Error);
        ASSERT_TRUE(T) << Error;
        EXPECT_EQ(T->varName(0), Var);
        EXPECT_EQ(T->locName((*T)[0].Loc), Var);
        EXPECT_EQ((*T)[0].Data, 7);
      }
}

TEST(TraceIOTokenizer, TabsAreTrimmedAtTheEndsButNotSeparators) {
  std::string Error;
  auto T = parseTraceText("\twrite t1 x 1\t\n", Error);
  ASSERT_TRUE(T) << Error;
  EXPECT_EQ(writeTraceText(*T), "# rvp-trace v1\nwrite t1 x 1\n");
  EXPECT_EQ(diagnosticOf("\t\tfrob t1\n"),
            "line 1, col 3: unknown event kind 'frob' (offending token "
            "'frob')");
  EXPECT_EQ(diagnosticOf("write t1\tx 1\n"),
            "line 1, col 1: expected 'write <thread> <var> <value>' "
            "(offending token 'write')");
  EXPECT_EQ(diagnosticOf("write t1 x 1\t@a\n"),
            "line 1, col 12: malformed value (offending token '1\t@a')");
  // A value is trimmed before it is parsed; a name keeps its tab.
  T = parseTraceText("write t1 x \t7\nwrite t\t1 x 8\n", Error);
  ASSERT_TRUE(T) << Error;
  EXPECT_EQ(writeTraceText(*T),
            "# rvp-trace v1\nwrite t1 x 7\nwrite t\t1 x 8\n");
  EXPECT_EQ(T->threadName(1), "t\t1");
}

TEST(TraceIOTokenizer, CrlfLineEnds) {
  std::string Error;
  auto T = parseTraceText("write t1 x 1\r\nread t2 x 1 @a\r\n", Error);
  ASSERT_TRUE(T) << Error;
  EXPECT_EQ(writeTraceText(*T),
            "# rvp-trace v1\nwrite t1 x 1\nread t2 x 1 @a\n");
  EXPECT_EQ(diagnosticOf("write t1 x abc\r\n"),
            "line 1, col 12: malformed value (offending token 'abc')");
  EXPECT_EQ(diagnosticOf("write t1 x 1\r\nread t2 x 2\r\n", "t.txt"),
            "t.txt:2:1: inconsistent input trace: read of x returned 2 but "
            "last write was 1");
}

TEST(TraceIOTokenizer, MatchGivenTwice) {
  std::string Error;
  auto T = parseTraceText("acquire t1 l match=1 match=2\n", Error);
  ASSERT_TRUE(T) << Error;
  EXPECT_EQ((*T)[0].Aux, 2u);
  EXPECT_EQ(diagnosticOf("acquire t1 l match=zz match=2\n"),
            "line 1, col 14: malformed match id (offending token "
            "'match=zz')");
  EXPECT_EQ(diagnosticOf("acquire t1 l match=1 match=-3\n"),
            "line 1, col 22: malformed match id (offending token "
            "'match=-3')");
}

TEST(TraceIOTokenizer, InitAfterTheFirstEvent) {
  EXPECT_EQ(diagnosticOf("write t1 x 1\ninit y 2\n"),
            "line 2, col 1: init line after the first event (offending "
            "token 'init')");
  EXPECT_EQ(diagnosticOf("write t1 x 1\ninit y 2\n", "t.txt"),
            "t.txt:2:1: init line after the first event (offending token "
            "'init')");
}

TEST(TraceIOTokenizer, SkippedLineNamesAreReinternedInOrder) {
  // Each rejected line introduces names that later lines re-use; they get
  // the ids the text without the rejected line gives.
  TraceParseOptions Skip;
  Skip.SkipBadEvents = true;
  const std::pair<const char *, const char *> Cases[] = {
      {"acquire t1 l\nacquire t9 l @b\nwrite t9 y 3 @c\nrelease t1 l\n"
       "acquire t9 l @b\nwrite t9 y 3 @c\n",
       "acquire t1 l\nwrite t9 y 3 @c\nrelease t1 l\nacquire t9 l @b\n"
       "write t9 y 3 @c\n"},
      {"init y 4\nwrite t1 x 1\nread t7 y 9 @q\nwrite t1 z 2\n"
       "read t7 y 4 @q\n",
       "init y 4\nwrite t1 x 1\nwrite t1 z 2\nread t7 y 4 @q\n"},
  };
  for (const auto &[WithBad, Without] : Cases) {
    std::string Error;
    TraceParseStats Stats;
    auto Skipped = parseTraceText(WithBad, Error, Skip, &Stats);
    ASSERT_TRUE(Skipped) << Error;
    EXPECT_EQ(Stats.SkippedEvents, 1u);
    auto Clean = parseTraceText(Without, Error);
    ASSERT_TRUE(Clean) << Error;
    expectSameTrace(*Skipped, *Clean);
  }
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
