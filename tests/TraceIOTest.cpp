//===- tests/TraceIOTest.cpp - Trace text format tests ---------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/FaultInjector.h"
#include "trace/Consistency.h"
#include "trace/TraceBuilder.h"
#include "workloads/Catalog.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <random>

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

TEST(TraceIOTokenizer, SkippedLineRollsBackAGrowth) {
  // Eight names of each kind fill half of a name table's first 16 slots,
  // so the rejected line's new thread, variable and location each grow
  // their table. The rollback must leave exactly the old ids: the names
  // the rejected line brought are interned afresh after `z` and `d`.
  TraceParseOptions Skip;
  Skip.SkipBadEvents = true;
  std::string Before;
  for (int I = 0; I < 8; ++I)
    Before += "write t" + std::to_string(I) + " x" + std::to_string(I) +
              " 1 @a" + std::to_string(I) + "\n";
  const std::string Bad = "read t8 y 5 @c\n";
  const std::string After = "write t0 z 1 @d\nwrite t8 y 5 @c\n"
                            "read t8 y 5 @c\nread t3 z 1 @d\n";
  std::string Error;
  TraceParseStats Stats;
  auto Skipped = parseTraceText(Before + Bad + After, Error, Skip, &Stats);
  ASSERT_TRUE(Skipped) << Error;
  EXPECT_EQ(Stats.SkippedEvents, 1u);
  auto Clean = parseTraceText(Before + After, Error);
  ASSERT_TRUE(Clean) << Error;
  expectSameTrace(*Skipped, *Clean);
  EXPECT_EQ(Skipped->internVar("z"), 8u);
  EXPECT_EQ(Skipped->internVar("y"), 9u);
  EXPECT_EQ(Skipped->internThread("t8"), 8u);
  EXPECT_EQ(Skipped->internLoc("c"), 9u);
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

namespace {

/// One field of a line and its 1-based column in the raw line.
struct RefField {
  std::string Text;
  size_t Column;
};

/// The reference splitter the tokenizer must agree with, byte loop by byte
/// loop: trim ASCII whitespace (std::isspace) at both ends, then split at
/// runs of spaces; any other byte, a tab included, belongs to its field.
std::vector<RefField> referenceFields(std::string_view Raw) {
  size_t Begin = 0, End = Raw.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Raw[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Raw[End - 1])))
    --End;
  std::vector<RefField> Fields;
  for (size_t I = Begin; I < End;) {
    if (Raw[I] == ' ') {
      ++I;
      continue;
    }
    size_t J = I;
    while (J < End && Raw[J] != ' ')
      ++J;
    Fields.push_back({std::string(Raw.substr(I, J - I)), I + 1});
    I = J;
  }
  return Fields;
}

/// The line the reference fields spell with one space between fields.
std::string canonicalLine(const std::vector<RefField> &Fields) {
  std::string Line;
  for (const RefField &F : Fields)
    Line += (Line.empty() ? "" : " ") + F.Text;
  return Line;
}

/// Random trace text in the format's corners: runs of spaces, tabs and CR
/// at the ends, a tab inside a name, names of 1-40 bytes (7, 8, 9, 15, 16
/// and 17 among them, and names that share their first 16 bytes), lines
/// over 64 bytes and over eight fields, blank and comment lines, and bad
/// kinds, arities, values and match ids.
class MessyTraceGen {
public:
  explicit MessyTraceGen(uint32_t Seed) : Rng(Seed) {
    const std::string Shared = "org.eclipse.core"; // 16 bytes
    for (size_t Length : {1, 2, 7, 8, 9, 15, 16, 17, 24, 40})
      Names.push_back(std::string(Length, 'n'));
    for (const char *Suffix : {"", "a", "b", ".Job", ".Jobs", ".internal.x"})
      Names.push_back(Shared + Suffix);
    for (size_t Length = 1; Length <= 40; Length += 3)
      Names.push_back("v" + std::to_string(Length) +
                      std::string(Length > 3 ? Length - 3 : 0, 'x') + "_");
    Names.push_back("t\t1");
  }

  /// A raw line, without its line end.
  std::string line() {
    std::vector<std::string> Tokens;
    switch (pick(12)) {
    case 0:
      return pickOf({"", " ", "   ", "\t", " \t "});
    case 1:
      Tokens = {"#", name(), name()};
      break;
    default:
      Tokens = event();
      break;
    }
    std::string Raw = pickOf({"", "", " ", "  ", "\t", " \t"});
    for (size_t I = 0; I < Tokens.size(); ++I)
      Raw += (I ? std::string(1 + pick(3), ' ') : "") + Tokens[I];
    return Raw + pickOf({"", "", "", " ", "\t", "\r", "  \r"});
  }

private:
  std::vector<std::string> event() {
    static const char *const Kinds[] = {
        "read",  "write", "write", "acquire", "release", "notify",
        "fork",  "join",  "begin", "end",     "branch",  "frob"};
    std::string Kind = Kinds[pick(std::size(Kinds))];
    std::vector<std::string> Tokens = {Kind, thread()};
    if (Kind == "read" || Kind == "write") {
      Tokens.push_back(name());
      Tokens.push_back(pick(20) ? std::to_string(pick(3)) : "x1");
    } else if (Kind == "fork" || Kind == "join") {
      Tokens.push_back(thread());
    } else if (Kind != "begin" && Kind != "end" && Kind != "branch") {
      Tokens.push_back(name());
    }
    if (pick(20) == 0)
      Tokens.pop_back(); // wrong arity
    for (size_t M = pick(4) ? pick(3) : pick(11); M > 0; --M) {
      switch (pick(4)) {
      case 0:
      case 1:
        Tokens.push_back("@" + name());
        break;
      case 2:
        Tokens.push_back("volatile");
        break;
      default:
        Tokens.push_back(pick(30) ? "match=" + std::to_string(pick(4))
                                  : "match=zz");
        break;
      }
    }
    return Tokens;
  }
  std::string thread() { return "t" + std::to_string(pick(4)); }
  std::string name() { return Names[pick(Names.size())]; }
  size_t pick(size_t N) {
    return std::uniform_int_distribution<size_t>(0, N - 1)(Rng);
  }
  std::string pickOf(std::initializer_list<const char *> Options) {
    return *(Options.begin() + pick(Options.size()));
  }

  std::mt19937 Rng;
  std::vector<std::string> Names;
};

/// \p Diagnostic ("line L, col C: ..."), given for the canonical line,
/// with the column C of a field there replaced by the column \p Raw gives
/// that field in the raw line.
std::string mapColumn(const std::string &Diagnostic,
                      const std::vector<RefField> &Raw) {
  size_t At = Diagnostic.find("col ");
  if (At == std::string::npos)
    return Diagnostic;
  size_t Colon = Diagnostic.find(':', At);
  size_t Column = std::stoul(Diagnostic.substr(At + 4, Colon - At - 4));
  size_t Canonical = 1;
  for (const RefField &F : Raw) {
    if (Canonical == Column)
      return Diagnostic.substr(0, At + 4) + std::to_string(F.Column) +
             Diagnostic.substr(Colon);
    Canonical += F.Text.size() + 1;
  }
  ADD_FAILURE() << "no field at column " << Column << ": " << Diagnostic;
  return Diagnostic;
}

/// Feeds the file at \p Path through readTraceFile in \p BlockSize blocks.
struct BlockRead {
  bool Ok;
  std::string Error;
  uint64_t Skipped;
  Trace T;
};
BlockRead readInBlocks(const std::string &Path,
                       const TraceParseOptions &Opts, size_t BlockSize) {
  TraceReader Reader(Opts);
  EXPECT_TRUE(readTraceFile(Path, Reader, BlockSize)) << Path;
  return {Reader.ok(), Reader.error(), Reader.skippedEvents(),
          std::move(Reader.trace())};
}

} // namespace

TEST(TraceIOTokenizer, GeneratedLinesMatchTheReferenceSplitter) {
  TraceParseOptions Skip;
  Skip.SkipBadEvents = true;
  TraceParseOptions Named;
  Named.FileName = "gen.txt";
  const std::string Path =
      ::testing::TempDir() + "rvp_traceio_generated_blocks.txt";
  for (uint32_t Seed = 1; Seed <= 30; ++Seed) {
    MessyTraceGen Gen(Seed);
    std::string Messy, Canonical;
    for (int I = 0; I < 150; ++I) {
      std::string Raw = Gen.line();
      std::vector<RefField> Fields = referenceFields(Raw);
      std::string Clean = canonicalLine(Fields);
      // Each line alone: the same verdict, and the same diagnostic at the
      // raw column of the same field.
      std::string Error, CleanError;
      std::optional<Trace> Alone = parseTraceText(Raw, Error);
      ASSERT_EQ(Alone.has_value(),
                parseTraceText(Clean, CleanError).has_value())
          << "seed " << Seed << ": '" << Raw << "'";
      if (!Alone) {
        EXPECT_EQ(Error, mapColumn(CleanError, Fields))
            << "seed " << Seed << ": '" << Raw << "'";
      } else if (Alone->size() == 1) {
        // The event names the reference fields.
        const Event &E = (*Alone)[0];
        EXPECT_EQ(Alone->threadName(E.Tid), Fields[1].Text) << Raw;
        std::string Operand;
        if (E.isAccess())
          Operand = Alone->varName(E.Target);
        else if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
          Operand = Alone->threadName(E.Target);
        else if (E.Kind == EventKind::Acquire ||
                 E.Kind == EventKind::Release || E.Kind == EventKind::Notify)
          Operand = Alone->lockName(E.Target);
        if (!Operand.empty()) {
          EXPECT_EQ(Operand, Fields[2].Text) << Raw;
        }
      }
      const char *End = Seed % 3 == 0 ? "\r\n" : "\n";
      Messy += Raw + End;
      Canonical += Clean + "\n";
    }
    // An unterminated last line on every other seed.
    if (Seed % 2 == 0) {
      Messy += "write  t1 n 1 \t";
      Canonical += "write t1 n 1";
    }

    // The whole text, bad lines skipped: the same events, name tables and
    // skip count as the canonical text.
    TraceParseStats MessyStats, CleanStats;
    std::string Error;
    auto FromMessy = parseTraceText(Messy, Error, Skip, &MessyStats);
    ASSERT_TRUE(FromMessy) << Error;
    auto FromClean = parseTraceText(Canonical, Error, Skip, &CleanStats);
    ASSERT_TRUE(FromClean) << Error;
    expectSameTrace(*FromMessy, *FromClean);
    EXPECT_EQ(MessyStats.SkippedEvents, CleanStats.SkippedEvents);
    EXPECT_GT(FromMessy->size(), 0u);

    // The same text fed from a file in blocks: the same trace and skip
    // count, and without skipping, the same first diagnostic.
    {
      std::ofstream File(Path, std::ios::binary);
      File << Messy;
    }
    std::string FirstError;
    EXPECT_FALSE(parseTraceText(Messy, FirstError, Named).has_value());
    for (size_t BlockSize : {1, 7, 4096}) {
      BlockRead Skipped = readInBlocks(Path, Skip, BlockSize);
      ASSERT_TRUE(Skipped.Ok) << Skipped.Error;
      expectSameTrace(Skipped.T, *FromMessy);
      EXPECT_EQ(Skipped.Skipped, MessyStats.SkippedEvents);
      BlockRead Stopped = readInBlocks(Path, Named, BlockSize);
      EXPECT_FALSE(Stopped.Ok);
      EXPECT_EQ(Stopped.Error, FirstError) << "block size " << BlockSize;
    }
  }
  std::remove(Path.c_str());
}

TEST(TraceIO, FileFaultsCutAndGarbleTheMiddle) {
  // On a regular file, trace.short_read stops the read at half the file's
  // size and trace.garble corrupts the middle byte of what is read: the
  // reader sees exactly that text, whatever the block size.
  std::string Text;
  for (int I = 0; I < 40; ++I)
    Text += "write t1 x" + std::to_string(I) + " " + std::to_string(I) + "\n";
  const std::string Path = ::testing::TempDir() + "rvp_traceio_faults.txt";
  {
    std::ofstream File(Path, std::ios::binary);
    File << Text;
  }
  TraceParseOptions Opts;
  Opts.FileName = "f.txt";
  auto expectSeen = [&](const char *Spec, const std::string &Seen) {
    std::string Error;
    std::optional<Trace> Expected = parseTraceText(Seen, Error, Opts);
    for (size_t BlockSize : {7, 4096}) {
      std::string SpecError;
      ASSERT_TRUE(FaultInjector::configure(Spec, SpecError)) << SpecError;
      TraceReader Reader(Opts);
      EXPECT_TRUE(readTraceFile(Path, Reader, BlockSize));
      FaultInjector::reset();
      ASSERT_EQ(Reader.ok(), Expected.has_value()) << Spec;
      if (Expected) {
        expectSameTrace(Reader.trace(), *Expected);
      } else {
        EXPECT_EQ(Reader.error(), Error) << Spec;
      }
    }
  };
  std::string Half = Text.substr(0, Text.size() / 2);
  expectSeen("trace.short_read", Half);
  std::string Garbled = Text;
  Garbled[Garbled.size() / 2] = '\x01';
  expectSeen("trace.garble", Garbled);
  Half[Half.size() / 2] = '\x01';
  expectSeen("trace.short_read,trace.garble", Half);
  std::remove(Path.c_str());
}

TEST(TraceIO, LinesSpanningManyBlocks) {
  // A line longer than many blocks, unterminated or not, and a file whose
  // lines end in a bare CR (so it holds one long line): the block reader
  // sees what parseTraceText sees in the whole text.
  const std::string Long = "write t1 " + std::string(300, 'v') + " 7";
  std::string CrOnly;
  for (int I = 0; I < 50; ++I)
    CrOnly += "write t1 x" + std::to_string(I) + " 1\r";
  const std::string Path = ::testing::TempDir() + "rvp_traceio_long.txt";
  TraceParseOptions Opts;
  Opts.FileName = "long.txt";
  for (const std::string &Text :
       {"begin t1\n" + Long, "begin t1\n" + Long + "\nend t1\n", CrOnly}) {
    {
      std::ofstream File(Path, std::ios::binary);
      File << Text;
    }
    std::string Error;
    std::optional<Trace> Expected = parseTraceText(Text, Error, Opts);
    for (size_t BlockSize : {1, 7, 4096}) {
      BlockRead Got = readInBlocks(Path, Opts, BlockSize);
      ASSERT_EQ(Got.Ok, Expected.has_value()) << Got.Error;
      if (Expected) {
        expectSameTrace(Got.T, *Expected);
      } else {
        EXPECT_EQ(Got.Error, Error) << "block size " << BlockSize;
      }
    }
  }
  std::remove(Path.c_str());
}
