//===- tests/IngestTest.cpp - Generative trace-ingest checks ----------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Fixed-seed generative checks of the one trace reader behind batch
/// parsing, `--skip-bad-events` and streaming sessions. Each seed records
/// a fuzzed MiniRV program (a consistent trace), injects guaranteed
/// offenders of every kind the reader rejects at random lines, and
/// asserts:
///
///  * the skip-bad parse writes back exactly the clean trace (same name
///    tables too) and counts every injected line;
///  * a StreamDetector fed the same text in random chunk sizes that split
///    lines reports the batch summary byte for byte;
///  * without skip-bad, batch and stream fail with the same diagnostic,
///    naming the first injected line;
///  * token-level mutations (truncation, duplication, swapped fields,
///    non-ASCII bytes) either parse or get a diagnostic, identically in
///    batch and stream, and never crash.
///
//===----------------------------------------------------------------------===//

#include "detect/Report.h"
#include "detect/Stream.h"
#include "runtime/Interpreter.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "trace/TraceIO.h"
#include "workloads/Fuzzer.h"

#include <gtest/gtest.h>

#include <map>
#include <regex>

using namespace rvp;

namespace {

Trace recordFuzzed(uint64_t Seed) {
  Trace T;
  RunResult Result;
  std::string Error;
  RandomScheduler S(Seed * 31 + 1);
  RunLimits Limits;
  Limits.MaxEvents = 2000;
  EXPECT_TRUE(recordTrace(fuzzProgram(Seed), T, Result, Error, &S, Limits))
      << Error;
  return T;
}

std::string normalizeTiming(const std::string &S) {
  static const std::regex Timing(" in [0-9.]+s");
  return std::regex_replace(S, Timing, " in Xs");
}

StreamOptions ingestOptions(bool SkipBad) {
  StreamOptions Opts;
  Opts.Detect.WindowSize = 25;
  Opts.Parse.SkipBadEvents = SkipBad;
  return Opts;
}

/// What `rvpredict detect` reports for \p Text: the summary, or the parse
/// diagnostic (Ok false).
struct Outcome {
  bool Ok = false;
  std::string Text;
  uint64_t Skipped = 0;
};

Outcome batch(const std::string &Text, const StreamOptions &Opts) {
  Outcome Out;
  TraceParseStats Stats;
  std::optional<Trace> T = parseTraceText(Text, Out.Text, Opts.Parse, &Stats);
  if (!T)
    return Out;
  Out.Ok = true;
  Out.Skipped = Stats.SkippedEvents;
  DetectionResult R = detectRaces(*T, Opts.Tech, Opts.Detect);
  Out.Text = normalizeTiming(renderRaceReport(*T, Opts.Tech, R, Opts.Render));
  return Out;
}

/// The same text through a streaming session, fed in random chunks of 1
/// to 96 bytes, stepping whenever a window is ready (the daemon's pump).
Outcome stream(const std::string &Text, const StreamOptions &Opts,
               Rng &R) {
  StreamDetector Det(Opts);
  Outcome Out;
  for (size_t Off = 0; Off < Text.size();) {
    size_t Len = 1 + R.below(96);
    Det.feed(std::string_view(Text).substr(Off, Len));
    Off += Len;
    while (Det.windowReady()) {
      StreamStep Step;
      if (!Det.step(Step, /*Degrade=*/false, Out.Text))
        return Out;
    }
  }
  std::string Summary;
  if (!Det.finish(Summary, Out.Text))
    return Out;
  Out.Ok = true;
  Out.Text = normalizeTiming(Summary);
  Out.Skipped = Det.run().SkippedEvents;
  return Out;
}

/// A clean trace's text with offender lines inserted after event lines.
struct Injected {
  std::string Text;
  size_t Count = 0;
  size_t FirstLine = 0; ///< 1-based line of the earliest injected line
};

/// Builds offender lines against the clean trace \p T: each one is
/// rejected given the events before its insertion point, whatever else
/// is injected (every injected line is rejected, so the accepted prefix
/// at each point is the clean one).
Injected inject(const Trace &T, Rng &R, unsigned PerKind) {
  std::map<EventId, std::vector<std::string>> After; // event -> lines
  auto at = [&](const std::vector<EventId> &Points) {
    return Points[R.below(Points.size())];
  };
  auto otherThread = [&](ThreadId Not) {
    if (T.numThreads() < 2 || R.chance(1, 3))
      return std::string("ghost");
    ThreadId Tid = static_cast<ThreadId>(R.below(T.numThreads()));
    return T.threadName(Tid == Not ? (Tid + 1) % T.numThreads() : Tid);
  };
  std::vector<EventId> All, Acquires, Ends, Forks;
  for (EventId Id = 0; Id < T.size(); ++Id) {
    All.push_back(Id);
    EventKind Kind = T[Id].Kind;
    if (Kind == EventKind::Acquire)
      Acquires.push_back(Id);
    else if (Kind == EventKind::End)
      Ends.push_back(Id);
    else if (Kind == EventKind::Fork)
      Forks.push_back(Id);
  }
  for (unsigned I = 0; I < PerKind; ++I) {
    // An impossible read: a value the variable does not hold there.
    EventId P = at(All);
    VarId Var = static_cast<VarId>(R.below(std::max(1u, T.numVars())));
    Value Current = T.initialValueOf(Var);
    for (EventId Id = 0; Id <= P; ++Id)
      if (T[Id].isWrite() && T[Id].Target == Var)
        Current = T[Id].Data;
    std::string Name = T.numVars() ? T.varName(Var) : "ghost_v";
    After[P].push_back(formatString(
        "read %s %s %lld @inj", otherThread(InvalidEvent).c_str(),
        Name.c_str(), static_cast<long long>(Current + 1 + R.below(9))));
    // Releases by a non-holder and acquires of a held lock, right after
    // an acquire.
    for (const char *Kind : {"release", "acquire"}) {
      if (Acquires.empty())
        break;
      EventId Acq = at(Acquires);
      After[Acq].push_back(std::string(Kind) + " " +
                           otherThread(T[Acq].Tid) + " " +
                           T.lockName(T[Acq].Target) + " @inj");
    }
    // An event after `end`, and a second fork of a forked thread.
    if (!Ends.empty()) {
      EventId End = at(Ends);
      After[End].push_back("write " + T.threadName(T[End].Tid) + " inj 1");
    }
    if (!Forks.empty()) {
      EventId Fork = at(Forks);
      EventId Later = Fork + static_cast<EventId>(R.below(T.size() - Fork));
      After[Later].push_back("fork " + otherThread(InvalidEvent) + " " +
                             T.threadName(T[Fork].Target));
    }
    // Grammar garbage.
    static const char *const Garbage[] = {
        "frobnicate t1 x", "read t1 x", "write t1 x banana", "acquire",
        "release t1 l match=zz", "init x 1", "begin t1 t2 t3", "\x01\x02"};
    After[at(All)].push_back(Garbage[R.below(std::size(Garbage))]);
  }

  // writeTraceText's lines: the header, init lines, then one per event.
  const std::string Clean = writeTraceText(T);
  std::vector<std::string> Lines;
  for (std::string_view Line : split(Clean, '\n'))
    if (!Line.empty())
      Lines.emplace_back(Line);
  size_t FirstEventLine = Lines.size() - T.size();
  Injected Out;
  size_t LineNo = 0;
  for (size_t I = 0; I < Lines.size(); ++I) {
    Out.Text += Lines[I] + "\n";
    ++LineNo;
    if (I < FirstEventLine)
      continue;
    auto It = After.find(static_cast<EventId>(I - FirstEventLine));
    if (It == After.end())
      continue;
    for (const std::string &Bad : It->second) {
      Out.Text += Bad + "\n";
      if (Out.Count++ == 0)
        Out.FirstLine = LineNo + 1;
      ++LineNo;
    }
  }
  return Out;
}

/// One token-level mutation of one random line of \p Text.
std::string mutate(const std::string &Text, Rng &R) {
  std::vector<std::string> Lines;
  for (std::string_view Line : split(Text, '\n'))
    Lines.emplace_back(Line);
  size_t I = R.below(Lines.size());
  std::string &Line = Lines[I];
  switch (R.below(4)) {
  case 0: // truncate
    Line.resize(R.below(Line.size() + 1));
    break;
  case 1: // duplicate
    Lines.insert(Lines.begin() + static_cast<long>(I), Line);
    break;
  case 2: { // swap two fields
    std::vector<std::string> Fields;
    for (std::string_view F : split(Line, ' '))
      Fields.emplace_back(F);
    if (Fields.size() >= 2)
      std::swap(Fields[R.below(Fields.size())],
                Fields[R.below(Fields.size())]);
    Line.clear();
    for (const std::string &F : Fields)
      Line += (Line.empty() ? "" : " ") + F;
    break;
  }
  default: { // non-ASCII bytes
    static const std::string_view Bytes[] = {
        "\xff", "\xc3\xa9", "\x80\x80", std::string_view("\0", 1),
        "\xe2\x80\x8b"};
    Line.insert(R.below(Line.size() + 1), Bytes[R.below(std::size(Bytes))]);
    break;
  }
  }
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

class IngestTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IngestTest, InjectedOffendersAreDroppedOnlineAlike) {
  const uint64_t Seed = GetParam();
  // The recorder interns names no event uses; the clean trace is what
  // its text reads back as.
  const std::string CleanText = writeTraceText(recordFuzzed(Seed + 5000));
  std::string Error;
  std::optional<Trace> Reread = parseTraceText(CleanText, Error);
  ASSERT_TRUE(Reread) << Error;
  const Trace &Clean = *Reread;
  ASSERT_GT(Clean.size(), 0u);
  Rng R(Seed);
  Injected Bad = inject(Clean, R, /*PerKind=*/3);
  ASSERT_GT(Bad.Count, 0u);

  // The skip-bad parse is the clean trace, name tables included.
  TraceParseOptions Skip;
  Skip.SkipBadEvents = true;
  TraceParseStats Stats;
  std::optional<Trace> Parsed = parseTraceText(Bad.Text, Error, Skip, &Stats);
  ASSERT_TRUE(Parsed) << Error;
  EXPECT_EQ(writeTraceText(*Parsed), CleanText) << "seed " << Seed;
  EXPECT_EQ(Stats.SkippedEvents, Bad.Count) << "seed " << Seed;
  EXPECT_EQ(Parsed->numThreads(), Clean.numThreads());
  EXPECT_EQ(Parsed->numVars(), Clean.numVars());
  EXPECT_EQ(Parsed->numLocks(), Clean.numLocks());

  // Streamed in random chunks, the session reports the batch summary.
  Outcome Batch = batch(Bad.Text, ingestOptions(true));
  ASSERT_TRUE(Batch.Ok) << Batch.Text;
  EXPECT_EQ(Batch.Text, batch(CleanText, ingestOptions(false)).Text);
  Outcome Streamed = stream(Bad.Text, ingestOptions(true), R);
  ASSERT_TRUE(Streamed.Ok) << Streamed.Text;
  EXPECT_EQ(Streamed.Text, Batch.Text) << "seed " << Seed;
  EXPECT_EQ(Streamed.Skipped, Bad.Count);

  // Strict: both fail on the first injected line, with one diagnostic.
  Outcome StrictBatch = batch(Bad.Text, ingestOptions(false));
  Outcome StrictStream = stream(Bad.Text, ingestOptions(false), R);
  ASSERT_FALSE(StrictBatch.Ok);
  EXPECT_FALSE(StrictStream.Ok);
  EXPECT_EQ(StrictStream.Text, StrictBatch.Text);
  EXPECT_TRUE(startsWith(StrictBatch.Text,
                         formatString("line %zu, col ", Bad.FirstLine)))
      << StrictBatch.Text;
}

TEST_P(IngestTest, MutatedTextParsesOrGetsOneDiagnostic) {
  const uint64_t Seed = GetParam();
  const std::string CleanText = writeTraceText(recordFuzzed(Seed + 6000));
  Rng R(Seed + 17);
  for (unsigned I = 0; I < 12; ++I) {
    std::string Text = CleanText;
    for (uint64_t M = 1 + R.below(3); M > 0; --M)
      Text = mutate(Text, R);
    for (bool SkipBad : {false, true}) {
      StreamOptions Opts = ingestOptions(SkipBad);
      Opts.Tech = Technique::Hb; // the reader is under test, not the solver
      Outcome Batch = batch(Text, Opts);
      Outcome Streamed = stream(Text, Opts, R);
      EXPECT_FALSE(Batch.Text.empty());
      EXPECT_EQ(Streamed.Ok, Batch.Ok) << Batch.Text;
      EXPECT_EQ(Streamed.Text, Batch.Text);
      EXPECT_EQ(Streamed.Skipped, Batch.Skipped);
      if (SkipBad) {
        EXPECT_TRUE(Batch.Ok) << Batch.Text;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IngestTest, ::testing::Range<uint64_t>(0, 16));

} // namespace
