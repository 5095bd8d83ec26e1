//===- tests/ServerTest.cpp - Framing + streaming detector tests ----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit coverage for the rvpredictd building blocks (docs/SERVER.md): the
// framed wire protocol, the incremental StreamDetector and the HELLO
// options an in-process daemon accepts. The invariants
// pinned here are what the end-to-end ServerGolden and CheckServer gates
// rely on: chunk boundaries never change results, the cumulative summary
// is byte-identical to the batch report, and a recycled detector carries
// nothing across reset().
//
//===----------------------------------------------------------------------===//

#include "detect/Stream.h"
#include "server/Framing.h"
#include "server/Server.h"
#include "support/FaultInjector.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <regex>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

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
  // The vc tier decides without the solver: no witnesses, no witness work.
  EXPECT_EQ(Step.NewFindings, 2u);
  EXPECT_NE(Step.Delta.find("[witness UNVALIDATED]"), std::string::npos);
  EXPECT_EQ(Step.Delta.find("[witness validated]"), std::string::npos);
  DetectionStats Shed = Det.run().Stats;
  EXPECT_EQ(Shed.WcpShortCircuits, 0u);

  // The next window runs at the session's own (hybrid) tier again: its
  // WCP-racy pairs go through the witness solve and carry witnesses.
  ASSERT_TRUE(Det.step(Step, /*Degrade=*/false, Error)) << Error;
  EXPECT_FALSE(Step.Degraded);
  EXPECT_EQ(Det.run().DegradedWindows, 1u);
  EXPECT_EQ(Step.NewFindings, 2u);
  EXPECT_EQ(Step.Delta.find("[witness UNVALIDATED]"), std::string::npos);
  EXPECT_NE(Step.Delta.find("[witness validated]"), std::string::npos);
  EXPECT_EQ(Det.run().Stats.WcpShortCircuits - Shed.WcpShortCircuits, 2u);
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

TEST(StreamDetector, RestoreThatDoesNotFitTheReplayFails) {
  // A crash-recovery payload the replayed trace cannot carry (here: one
  // that names events beyond it, as a different trace would) must fail
  // the session with a typed error, never restart silently at window 0
  // while reporting the recovered window index.
  std::string Text = racyTrace(6); // 12 events, window 4
  StreamOptions Opts = smallWindowOptions(4);
  StreamDetector Longer(Opts);
  Longer.feed(racyTrace(12));
  std::string Error;
  StreamStep Step;
  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE(Longer.step(Step, false, Error)) << Error;

  StreamDetector Resumed(Opts);
  Resumed.restore(Longer.state(), 2);
  Resumed.feed(Text);
  EXPECT_EQ(Resumed.pendingWindows(), 1u);
  EXPECT_FALSE(Resumed.step(Step, false, Error));
  EXPECT_EQ(Error, "resume state does not match the replayed trace");
  // The error sticks: finish() cannot render a report either.
  std::string Summary;
  EXPECT_FALSE(Resumed.finish(Summary, Error));
  EXPECT_EQ(Error, "resume state does not match the replayed trace");

  // A payload covering a different number of windows than claimed is the
  // same mismatch.
  StreamDetector First(Opts);
  First.feed(Text);
  ASSERT_TRUE(First.step(Step, false, Error)) << Error;
  StreamDetector Miscounted(Opts);
  Miscounted.restore(First.state(), 2);
  Miscounted.feed(Text);
  EXPECT_FALSE(Miscounted.step(Step, false, Error));
  EXPECT_EQ(Error, "resume state does not match the replayed trace");
}

TEST(StreamDetector, RestoreWithAShorterReplayStartsOver) {
  // A replay that ends before it covers the recovered windows is a
  // different trace: the session analyzes it from scratch (always sound)
  // instead of failing or resuming.
  StreamOptions Opts = smallWindowOptions(4);
  StreamDetector Full(Opts);
  Full.feed(racyTrace(6));
  std::string Error;
  StreamStep Step;
  ASSERT_TRUE(Full.step(Step, false, Error)) << Error;
  ASSERT_TRUE(Full.step(Step, false, Error)) << Error;

  std::string Short = racyTrace(3); // 6 events: one full window
  StreamDetector Resumed(Opts);
  Resumed.restore(Full.state(), 2);
  Resumed.feed(Short);
  EXPECT_FALSE(Resumed.windowReady()); // suspended
  std::string Summary;
  std::vector<StreamStep> Steps;
  ASSERT_TRUE(Resumed.finish(Summary, Error, &Steps)) << Error;
  EXPECT_EQ(Steps.size(), 2u);
  EXPECT_EQ(normalizeTiming(Summary),
            normalizeTiming(batchRaceReport(Short, Opts)));
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

/// An in-process rvpredictd with default session options on a private
/// Unix socket, serving on its own thread until destroyed.
class LiveServer {
public:
  LiveServer() {
    std::signal(SIGPIPE, SIG_IGN); // torn sessions surface as write errors
    std::string Template = ::testing::TempDir() + "rvpsrvXXXXXX";
    if (::mkdtemp(Template.data()))
      Dir = Template;
    ServerOptions SO;
    SO.SocketPath = Dir + "/d.sock";
    Srv = std::make_unique<Server>(SO);
    std::string Error;
    Started = !Dir.empty() && Srv->start(Error);
    if (Started)
      Loop = std::thread([this] { Srv->run(); });
  }
  ~LiveServer() {
    if (Started) {
      Srv->requestStop();
      Loop.join();
    }
    Srv.reset();
    if (!Dir.empty())
      ::rmdir(Dir.c_str());
  }

  bool started() const { return Started; }

  /// One client session: connects, writes \p Frames (encoded frames) and
  /// returns every frame the daemon sends until it closes the connection.
  std::vector<Frame> session(const std::string &Frames) {
    std::vector<Frame> Got;
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::string Path = Dir + "/d.sock";
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    timeval Timeout{10, 0}; // a hung daemon fails the test, not the run
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
            0 &&
        ::write(Fd, Frames.data(), Frames.size()) ==
            static_cast<ssize_t>(Frames.size())) {
      FrameDecoder Decoder;
      char Buf[4096];
      ssize_t N;
      while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0) {
        Decoder.feed(std::string_view(Buf, static_cast<size_t>(N)));
        Frame F;
        std::string Error;
        while (Decoder.next(F, Error) == FrameDecoder::Result::Ready)
          Got.push_back(F);
      }
    }
    ::close(Fd);
    return Got;
  }

private:
  std::string Dir;
  std::unique_ptr<Server> Srv;
  std::thread Loop;
  bool Started = false;
};

size_t countFrames(const std::vector<Frame> &Frames, FrameType Type) {
  size_t N = 0;
  for (const Frame &F : Frames)
    N += F.Type == Type;
  return N;
}

TEST(ServerHello, BadOptionsGetOneErrorFrameAndTheDaemonServesOn) {
  // HELLO takes the analysis keys through the parser and rules the batch
  // CLI uses (detect/Stream.h). Each bad option must end its own session
  // with exactly one typed ERROR frame, and the next session must be
  // served normally.
  LiveServer Daemon;
  ASSERT_TRUE(Daemon.started());
  const std::string Text = racyTrace(3);
  StreamOptions Batch = smallWindowOptions(4);
  const std::string Want = normalizeTiming(batchRaceReport(Text, Batch));
  const std::string Clean = encodeFrame(FrameType::Hello, "window=4") +
                            encodeFrame(FrameType::Data, Text) +
                            encodeFrame(FrameType::Fin, "");
  struct Case {
    const char *Hello;
    const char *Diagnostic;
  };
  const Case Cases[] = {
      {"colour=blue", "unknown HELLO option 'colour'"},
      {"solver=z3", "unknown HELLO option 'solver'"},
      {"window", "malformed HELLO option 'window' (expected key=value)"},
      {"window=0", "window must be a positive event count"},
      {"window=4294967297", "window must be a positive event count up to "
                            "4294967295 (got '4294967297')"},
      {"tier=bogus", "tier must be vc, smt, or hybrid (got 'bogus')"},
      {"tier=vc property=atomicity", "tier=vc detects races only"},
      {"tier=vc technique=hb", "has its own dedicated detector"},
      {"technique=bogus", "technique must be rv, said, cp, or hb"},
      {"property=bogus", "property must be race, atomicity, or deadlock"},
      {"budget=0", "budget must be a positive number of seconds"},
      {"ckpt=../escape", "ckpt key must be non-empty [A-Za-z0-9_-]"},
      {"skip-bad-events=yes",
       "skip-bad-events must be true, false, 1, or 0 (got 'yes')"},
  };
  for (const Case &C : Cases) {
    std::vector<Frame> Got =
        Daemon.session(encodeFrame(FrameType::Hello, C.Hello) +
                       encodeFrame(FrameType::Data, Text) +
                       encodeFrame(FrameType::Fin, ""));
    EXPECT_EQ(countFrames(Got, FrameType::Error), 1u) << C.Hello;
    EXPECT_EQ(countFrames(Got, FrameType::Summary), 0u) << C.Hello;
    for (const Frame &F : Got) {
      if (F.Type == FrameType::Error) {
        EXPECT_NE(F.Payload.find(C.Diagnostic), std::string::npos)
            << C.Hello << ": " << F.Payload;
      }
    }

    std::vector<Frame> Next = Daemon.session(Clean);
    ASSERT_EQ(countFrames(Next, FrameType::Summary), 1u) << C.Hello;
    EXPECT_EQ(countFrames(Next, FrameType::Error), 0u) << C.Hello;
    EXPECT_EQ(normalizeTiming(Next.back().Payload), Want) << C.Hello;
  }
}

/// The line of a rejected-line diagnostic after its location prefix
/// ("file:3:1: " batch, "line 3, col 1: " streamed).
std::string fromInconsistent(const std::string &Diagnostic) {
  size_t At = Diagnostic.find("inconsistent input trace");
  if (At == std::string::npos)
    return std::string();
  return Diagnostic.substr(At, Diagnostic.find('\n', At) - At);
}

TEST(ServerSession, InconsistentTraceFailsLikeBatch) {
  // A trace with one impossible read, streamed without skip-bad-events,
  // must end its session with an ERROR frame carrying the diagnostic the
  // batch parse (what `rvpredict detect` prints before exiting 2) gives.
  LiveServer Daemon;
  ASSERT_TRUE(Daemon.started());
  const std::string Text =
      racyTrace(4) + "read t2 x1 9 @bad\n" + racyTrace(2);
  std::string BatchError;
  ASSERT_FALSE(parseTraceText(Text, BatchError, TraceParseOptions()));
  const std::string Want = fromInconsistent(BatchError);
  ASSERT_EQ(Want,
            "inconsistent input trace: read of x1 returned 9 but last write "
            "was 2");

  std::vector<Frame> Got = Daemon.session(
      encodeFrame(FrameType::Hello, "window=4") +
      encodeFrame(FrameType::Data, Text) + encodeFrame(FrameType::Fin, ""));
  ASSERT_FALSE(Got.empty());
  EXPECT_EQ(countFrames(Got, FrameType::Summary), 0u);
  ASSERT_EQ(Got.back().Type, FrameType::Error);
  EXPECT_EQ(fromInconsistent(Got.back().Payload), Want)
      << Got.back().Payload;
  EXPECT_NE(Got.back().Payload.find("line 9, col 1: "), std::string::npos)
      << Got.back().Payload;
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
