//===- tests/ServerTest.cpp - Framing + streaming detector tests ----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit coverage for the rvpredictd building blocks (docs/SERVER.md): the
// framed wire protocol and the incremental StreamDetector. The invariants
// pinned here are what the end-to-end ServerGolden and CheckServer gates
// rely on: chunk boundaries never change results, the cumulative summary
// is byte-identical to the batch report, and a recycled detector carries
// nothing across reset().
//
//===----------------------------------------------------------------------===//

#include "detect/Stream.h"
#include "server/Framing.h"
#include "support/FaultInjector.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <regex>

using namespace rvp;

namespace {

struct FaultGuard {
  FaultGuard() { FaultInjector::reset(); }
  ~FaultGuard() { FaultInjector::reset(); }
};

/// Strips the wall-clock part of report headers so byte-compares only see
/// the findings (mirrors the goldens' normalization).
std::string normalizeTiming(const std::string &S) {
  static const std::regex Timing(" in [0-9.]+s");
  return std::regex_replace(S, Timing, " in Xs");
}

/// A two-thread trace with one unordered write-write race per \p Pairs,
/// each on its own variable so every pair reports separately.
std::string racyTrace(unsigned Pairs) {
  std::string Text;
  for (unsigned I = 0; I < Pairs; ++I) {
    std::string Var = "x" + std::to_string(I);
    Text += "write t1 " + Var + " 1 @w" + std::to_string(I) + "\n";
    Text += "write t2 " + Var + " 2 @v" + std::to_string(I) + "\n";
  }
  return Text;
}

/// Batch reference: parse + detect + render in one shot, exactly what
/// `rvpredict detect` prints for a race run.
std::string batchRaceReport(const std::string &Text,
                            const StreamOptions &Opts) {
  std::string Error;
  auto T = parseTraceText(Text, Error, Opts.Parse);
  EXPECT_TRUE(T.has_value()) << Error;
  DetectionResult R = detectRaces(*T, Opts.Tech, Opts.Detect);
  return renderRaceReport(*T, Opts.Tech, R, Opts.Render);
}

StreamOptions smallWindowOptions(uint32_t Window) {
  StreamOptions Opts;
  Opts.Detect.WindowSize = Window;
  Opts.Render.WitnessTag = true; // Maximal + witnesses, the CLI default
  return Opts;
}

/// Runs a full streaming session over \p Text in \p Chunk-byte pieces and
/// returns the summary. Steps eagerly whenever a window is ready, like
/// the daemon's pump loop.
std::string streamAll(StreamDetector &Det, const std::string &Text,
                      size_t Chunk) {
  std::string Error;
  for (size_t Off = 0; Off < Text.size(); Off += Chunk) {
    Det.feed(std::string_view(Text).substr(
        Off, std::min(Chunk, Text.size() - Off)));
    while (Det.windowReady()) {
      StreamStep Step;
      EXPECT_TRUE(Det.step(Step, /*Degrade=*/false, Error)) << Error;
    }
  }
  std::string Summary;
  EXPECT_TRUE(Det.finish(Summary, Error)) << Error;
  return Summary;
}

// ----------------------------------------------------------------------
// Framing
// ----------------------------------------------------------------------

TEST(ServerFraming, RoundTripCoalesced) {
  std::string Wire = encodeFrame(FrameType::Hello, "technique=rv\n");
  Wire += encodeFrame(FrameType::Data, "write t1 x 1 @a\n");
  Wire += encodeFrame(FrameType::Fin, "");
  FrameDecoder Decoder;
  Decoder.feed(Wire);
  Frame F;
  std::string Error;
  ASSERT_EQ(Decoder.next(F, Error), FrameDecoder::Result::Ready);
  EXPECT_EQ(F.Type, FrameType::Hello);
  EXPECT_EQ(F.Payload, "technique=rv\n");
  ASSERT_EQ(Decoder.next(F, Error), FrameDecoder::Result::Ready);
  EXPECT_EQ(F.Type, FrameType::Data);
  EXPECT_EQ(F.Payload, "write t1 x 1 @a\n");
  ASSERT_EQ(Decoder.next(F, Error), FrameDecoder::Result::Ready);
  EXPECT_EQ(F.Type, FrameType::Fin);
  EXPECT_TRUE(F.Payload.empty());
  EXPECT_EQ(Decoder.next(F, Error), FrameDecoder::Result::NeedMore);
  EXPECT_FALSE(Decoder.midFrame());
}

TEST(ServerFraming, ByteAtATimeDelivery) {
  std::string Wire = encodeFrame(FrameType::Report, "window 0 ok\n");
  FrameDecoder Decoder;
  Frame F;
  std::string Error;
  for (size_t I = 0; I + 1 < Wire.size(); ++I) {
    Decoder.feed(std::string_view(&Wire[I], 1));
    EXPECT_EQ(Decoder.next(F, Error), FrameDecoder::Result::NeedMore);
    EXPECT_TRUE(Decoder.midFrame());
  }
  Decoder.feed(std::string_view(&Wire[Wire.size() - 1], 1));
  ASSERT_EQ(Decoder.next(F, Error), FrameDecoder::Result::Ready);
  EXPECT_EQ(F.Type, FrameType::Report);
  EXPECT_EQ(F.Payload, "window 0 ok\n");
  EXPECT_FALSE(Decoder.midFrame());
}

TEST(ServerFraming, OversizeLengthPoisonsPermanently) {
  // Length 2 MiB > MaxFramePayload, then a perfectly valid frame: the
  // decoder must stay poisoned — resynchronizing inside a hostile byte
  // stream is how protocol confusion bugs happen.
  std::string Wire;
  uint32_t Big = 2u << 20;
  for (int Shift = 24; Shift >= 0; Shift -= 8)
    Wire.push_back(static_cast<char>((Big >> Shift) & 0xff));
  Wire.push_back('D');
  FrameDecoder Decoder;
  Decoder.feed(Wire);
  Frame F;
  std::string Error;
  EXPECT_EQ(Decoder.next(F, Error), FrameDecoder::Result::Malformed);
  EXPECT_FALSE(Error.empty());
  Decoder.feed(encodeFrame(FrameType::Fin, ""));
  EXPECT_EQ(Decoder.next(F, Error), FrameDecoder::Result::Malformed);
}

TEST(ServerFraming, UnknownTypeTagIsMalformed) {
  std::string Wire = encodeFrame(FrameType::Data, "abc");
  Wire[4] = 'X'; // corrupt the tag byte
  FrameDecoder Decoder;
  Decoder.feed(Wire);
  Frame F;
  std::string Error;
  EXPECT_EQ(Decoder.next(F, Error), FrameDecoder::Result::Malformed);
}

TEST(ServerFraming, GarbleFaultCorruptsTheStream) {
  // net.frame_garble flips one received byte upstream of validation; the
  // frame must either fail to decode or decode to different bytes —
  // never crash, and never pretend the stream was clean.
  FaultGuard Guard;
  std::string Error;
  ASSERT_TRUE(
      FaultInjector::configure("seed=1,net.frame_garble", Error))
      << Error;
  std::string Wire = encodeFrame(FrameType::Data, "write t1 x 1 @a\n");
  FrameDecoder Decoder;
  Decoder.feed(Wire);
  FaultInjector::reset(); // only the feed is under fault
  Frame F;
  FrameDecoder::Result R = Decoder.next(F, Error);
  if (R == FrameDecoder::Result::Ready)
    EXPECT_NE(F.Payload, "write t1 x 1 @a\n");
  else
    EXPECT_EQ(R, FrameDecoder::Result::Malformed);
}

// ----------------------------------------------------------------------
// StreamDetector
// ----------------------------------------------------------------------

TEST(StreamDetector, WindowReadyTracksCompleteWindows) {
  StreamDetector Det(smallWindowOptions(4));
  std::string Text = racyTrace(5); // 10 events, window 4 -> 2 full windows
  Det.feed(std::string_view(Text).substr(0, Text.find('\n') + 1));
  EXPECT_FALSE(Det.windowReady()); // 1 event < 4
  Det.feed(std::string_view(Text).substr(Text.find('\n') + 1));
  EXPECT_TRUE(Det.windowReady());
  EXPECT_EQ(Det.pendingWindows(), 2u); // the 2-event tail waits for FIN
  std::string Error;
  StreamStep Step;
  ASSERT_TRUE(Det.step(Step, false, Error)) << Error;
  EXPECT_EQ(Step.Window, 0u);
  EXPECT_EQ(Det.pendingWindows(), 1u);
  ASSERT_TRUE(Det.step(Step, false, Error)) << Error;
  EXPECT_EQ(Step.Window, 1u);
  EXPECT_FALSE(Det.windowReady());
  EXPECT_FALSE(Det.step(Step, false, Error)); // nothing pending
  EXPECT_TRUE(Error.empty());                 // ... and that's not an error
}

TEST(StreamDetector, PartialLinesWaitForTheirNewline) {
  StreamDetector Det(smallWindowOptions(1));
  Det.feed("write t1 x");
  EXPECT_FALSE(Det.windowReady()); // no complete line yet
  Det.feed(" 1 @a\nwrite t2");
  EXPECT_TRUE(Det.windowReady()); // first line completed
  EXPECT_EQ(Det.pendingWindows(), 1u);
}

TEST(StreamDetector, SummaryMatchesBatchAcrossChunkSizes) {
  std::string Text = racyTrace(6); // 12 events
  StreamOptions Opts = smallWindowOptions(5);
  std::string Batch = normalizeTiming(batchRaceReport(Text, Opts));
  for (size_t Chunk : {1u, 7u, 64u, 4096u}) {
    StreamDetector Det(Opts);
    std::string Summary = streamAll(Det, Text, Chunk);
    EXPECT_EQ(normalizeTiming(Summary), Batch)
        << "chunk size " << Chunk << " changed the report";
    EXPECT_EQ(Det.run().WindowsDone, 3u); // 5+5+2 events
  }
}

TEST(StreamDetector, FinishAloneEqualsBatch) {
  // No intermediate steps at all: FIN right after the data must still
  // produce the batch report (the daemon hits this when a client uploads
  // faster than analysis dequeues).
  std::string Text = racyTrace(4);
  StreamOptions Opts = smallWindowOptions(3);
  StreamDetector Det(Opts);
  Det.feed(Text);
  std::string Summary, Error;
  std::vector<StreamStep> Steps;
  ASSERT_TRUE(Det.finish(Summary, Error, &Steps)) << Error;
  EXPECT_EQ(normalizeTiming(Summary),
            normalizeTiming(batchRaceReport(Text, Opts)));
  EXPECT_EQ(Steps.size(), 3u); // 3+3+2 events in 3 windows
}

TEST(StreamDetector, DeltasAreAdditiveAndCountFindings) {
  std::string Text = racyTrace(4); // every window adds races
  StreamDetector Det(smallWindowOptions(2));
  Det.feed(Text);
  std::string Error;
  size_t Total = 0;
  while (Det.windowReady()) {
    StreamStep Step;
    ASSERT_TRUE(Det.step(Step, false, Error)) << Error;
    Total += Step.NewFindings;
    if (Step.NewFindings)
      EXPECT_NE(Step.Delta.find("race on"), std::string::npos);
  }
  std::string Summary;
  ASSERT_TRUE(Det.finish(Summary, Error)) << Error;
  EXPECT_EQ(Total, Det.run().Findings);
  EXPECT_GT(Total, 0u);
}

TEST(StreamDetector, DegradedStepUsesTheWcpTier) {
  std::string Text = racyTrace(4);
  StreamDetector Det(smallWindowOptions(4));
  Det.feed(Text);
  std::string Error;
  StreamStep Step;
  ASSERT_TRUE(Det.step(Step, /*Degrade=*/true, Error)) << Error;
  EXPECT_TRUE(Step.Degraded);
  EXPECT_EQ(Det.run().DegradedWindows, 1u);
  ASSERT_TRUE(Det.step(Step, /*Degrade=*/false, Error)) << Error;
  EXPECT_FALSE(Step.Degraded);
  EXPECT_EQ(Det.run().DegradedWindows, 1u);
}

TEST(StreamDetector, ResetLeavesNoResidue) {
  // Session one: a racy trace. After reset(), a fresh trace with its own
  // names must produce exactly what a brand-new detector produces — no
  // interned strings, findings, or clock state may survive.
  StreamOptions Opts = smallWindowOptions(4);
  StreamDetector Recycled(Opts);
  streamAll(Recycled, racyTrace(5), 64);
  Recycled.reset();
  std::string TextB = "write t3 y 1 @p\nread t4 y 1 @q\n";
  std::string Recycled2 = streamAll(Recycled, TextB, 8);
  StreamDetector Fresh(Opts);
  std::string FreshOut = streamAll(Fresh, TextB, 8);
  EXPECT_EQ(normalizeTiming(Recycled2), normalizeTiming(FreshOut));
  EXPECT_EQ(Recycled.run().WindowsDone, Fresh.run().WindowsDone);
}

TEST(StreamDetector, ParseErrorSurfacesFromCheckParse) {
  StreamOptions Opts = smallWindowOptions(4);
  StreamDetector Det(Opts);
  Det.feed("write t1 x 1 @a\nbogus line here\n");
  std::string Error;
  EXPECT_FALSE(Det.checkParse(Error));
  EXPECT_FALSE(Error.empty());
}

TEST(StreamDetector, SkipBadEventsCoversSemanticRejects) {
  // Satellite of the daemon work: --skip-bad-events drops lines the
  // grammar accepts but the consistency checker rejects (a release by a
  // non-holder, an impossible read value), and counts both kinds.
  std::string Text = "write t1 x 1 @a1\n"
                     "acquire t1 m @a2\n"
                     "release t2 m @b1\n" // t2 never acquired m
                     "read t2 x 1 @b2\n"
                     "read t2 x 7 @b3\n" // 7 was never written
                     "release t1 m @a3\n";
  TraceParseOptions Parse;
  Parse.SkipBadEvents = true;
  TraceParseStats Stats;
  std::string Error;
  auto T = parseTraceText(Text, Error, Parse, &Stats);
  ASSERT_TRUE(T.has_value()) << Error;
  EXPECT_EQ(Stats.SkippedEvents, 2u);
  EXPECT_EQ(T->size(), 4u);
  // The sanitized parse equals parsing the pre-cleaned text directly.
  std::string Cleaned = "write t1 x 1 @a1\n"
                        "acquire t1 m @a2\n"
                        "read t2 x 1 @b2\n"
                        "release t1 m @a3\n";
  auto TC = parseTraceText(Cleaned, Error, TraceParseOptions());
  ASSERT_TRUE(TC.has_value()) << Error;
  EXPECT_EQ(writeTraceText(*T), writeTraceText(*TC));
}

TEST(StreamDetector, RestoreSuspendsUntilPrefixCoversWindows) {
  // Crash recovery: run two windows, capture the state, then restore it
  // into a fresh detector. Before the replayed prefix covers the restored
  // windows, nothing is pending; after a full replay the summary matches
  // the uninterrupted run.
  std::string Text = racyTrace(6); // 12 events
  StreamOptions Opts = smallWindowOptions(4);
  StreamDetector Full(Opts);
  std::string Expected = streamAll(Full, Text, 64);

  StreamDetector First(Opts);
  First.feed(Text);
  std::string Error;
  StreamStep Step;
  ASSERT_TRUE(First.step(Step, false, Error)) << Error;
  ASSERT_TRUE(First.step(Step, false, Error)) << Error;
  std::string Saved = First.state();
  ASSERT_FALSE(Saved.empty());

  StreamDetector Resumed(Opts);
  Resumed.restore(Saved, 2);
  Resumed.feed(Text); // full replay, as the daemon requires
  EXPECT_EQ(Resumed.pendingWindows(), 1u); // only the third window is new
  ASSERT_TRUE(Resumed.step(Step, false, Error)) << Error;
  EXPECT_EQ(Step.Window, 2u);
  std::string Summary;
  ASSERT_TRUE(Resumed.finish(Summary, Error)) << Error;
  EXPECT_EQ(normalizeTiming(Summary), normalizeTiming(Expected));
}

TEST(StreamDetector, SessionTelemetryCountsWindowsNotResumes) {
  // Every window of a streamed session is analyzed by exactly one step;
  // the per-step in-memory resume is bookkeeping, not a checkpoint resume
  // (docs/ROBUSTNESS.md). The one flush at finish() must say so for every
  // property alike.
  Telemetry::setEnabled(true);
  for (StreamProperty P : {StreamProperty::Race, StreamProperty::Atomicity,
                           StreamProperty::Deadlock}) {
    Telemetry::instance().reset();
    StreamOptions Opts = smallWindowOptions(4);
    Opts.Property = P;
    StreamDetector Det(Opts);
    streamAll(Det, racyTrace(6), 64); // 12 events -> 3 windows
    MetricsSnapshot M = MetricsRegistry::global().snapshot();
    EXPECT_EQ(M.counterValue("detect.windows"), 3u)
        << "property " << static_cast<int>(P);
    EXPECT_EQ(M.counterValue("detect.resumed_windows"), 0u)
        << "property " << static_cast<int>(P);
  }
  Telemetry::instance().reset();
  Telemetry::setEnabled(false);
}

TEST(StreamDetector, ParseStreamPropertyNames) {
  StreamProperty P = StreamProperty::Race;
  EXPECT_TRUE(parseStreamProperty("race", P));
  EXPECT_EQ(P, StreamProperty::Race);
  EXPECT_TRUE(parseStreamProperty("atomicity", P));
  EXPECT_EQ(P, StreamProperty::Atomicity);
  EXPECT_TRUE(parseStreamProperty("deadlock", P));
  EXPECT_EQ(P, StreamProperty::Deadlock);
  EXPECT_FALSE(parseStreamProperty("races", P));
  EXPECT_FALSE(parseStreamProperty("", P));
}

} // namespace
