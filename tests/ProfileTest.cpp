//===- tests/ProfileTest.cpp - Chrome/Perfetto trace export tests ---------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Profile.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

using namespace rvp;

namespace {

/// Turns telemetry on with \p C attached for one test (nullptr attaches
/// none) and always turns it back off, so a failing assertion can't leak
/// profiling into the next test.
class CollectorGuard {
public:
  explicit CollectorGuard(ProfileCollector *C) {
    Telemetry::setEnabled(true);
    Telemetry::instance().reset();
    Telemetry::instance().setProfiler(C);
  }
  ~CollectorGuard() {
    Telemetry::instance().setProfiler(nullptr);
    Telemetry::instance().reset();
    Telemetry::setEnabled(false);
  }
};

TEST(Profile, InactiveByDefault) {
  EXPECT_EQ(Telemetry::instance().profiler(), nullptr);
  // An attached collector is reached only while telemetry is on, and a
  // timer then leaves its out-parameter alone.
  ProfileCollector C;
  Telemetry::instance().setProfiler(&C);
  EXPECT_EQ(Telemetry::instance().profiler(), nullptr);
  double Seconds = -1;
  { ScopedPhaseTimer T("telemetry-off", &Seconds); }
  Telemetry::instance().setProfiler(nullptr);
  EXPECT_EQ(C.eventCount(), 0u);
  EXPECT_EQ(Seconds, -1);
}

TEST(Profile, RecordsSpansCountersAndInstants) {
  ProfileCollector C;
  C.span("encode", "phase", 10, 5);
  C.counter("cops", 42);
  C.instant("solver-retry", "resilience");
  EXPECT_EQ(C.eventCount(), 3u);

  std::string Json = C.toJson();
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"encode\""), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":5"), std::string::npos);
}

TEST(Profile, ThreadNameMetadataComesFirst) {
  ProfileCollector C;
  C.setThreadName("main");
  C.span("detect", "phase", 0, 1);
  std::string Json = C.toJson();
  size_t Meta = Json.find("thread_name");
  size_t Span = Json.find("\"name\":\"detect\"");
  ASSERT_NE(Meta, std::string::npos);
  ASSERT_NE(Span, std::string::npos);
  EXPECT_LT(Meta, Span);
  EXPECT_NE(Json.find("\"name\":\"main\""), std::string::npos);
}

TEST(Profile, UnnamedThreadsGetSyntheticNames) {
  ProfileCollector C;
  C.span("work", "phase", 0, 1); // names no thread
  std::string Json = C.toJson();
  EXPECT_NE(Json.find("\"name\":\"thread-0\""), std::string::npos);
}

TEST(Profile, DistinctThreadsGetDistinctTids) {
  ProfileCollector C;
  uint32_t MainTid = C.currentTid();
  uint32_t OtherTid = MainTid;
  std::thread T([&] {
    OtherTid = C.currentTid();
    C.setThreadName("worker-0");
    C.span("solve", "phase", 0, 2);
  });
  T.join();
  EXPECT_NE(MainTid, OtherTid);
  std::string Json = C.toJson();
  EXPECT_NE(Json.find("\"name\":\"worker-0\""), std::string::npos);
}

TEST(Profile, TidIsPerCollector) {
  // The thread-local tid slot is keyed by collector: a second collector
  // on the same thread starts numbering from zero again.
  uint32_t A, B;
  {
    ProfileCollector C1;
    A = C1.currentTid();
  }
  {
    ProfileCollector C2;
    B = C2.currentTid();
  }
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 0u);
}

TEST(Profile, EventsSortedByTimestamp) {
  ProfileCollector C;
  C.span("late", "phase", 100, 1);
  C.span("early", "phase", 5, 1);
  std::string Json = C.toJson();
  EXPECT_LT(Json.find("\"name\":\"early\""), Json.find("\"name\":\"late\""));
}

TEST(Profile, NamesAreJsonEscaped) {
  ProfileCollector C;
  C.setThreadName("quo\"te");
  C.span("spa\\n", "phase", 0, 1);
  std::string Json = C.toJson();
  EXPECT_NE(Json.find("quo\\\"te"), std::string::npos);
  EXPECT_NE(Json.find("spa\\\\n"), std::string::npos);
}

TEST(Profile, ScopedPhaseTimerEmitsSpanWhenActive) {
  ProfileCollector C;
  CollectorGuard Guard(&C);
  double Seconds = -1;
  { ScopedPhaseTimer T("profiled-phase", &Seconds); }
  EXPECT_EQ(C.eventCount(), 1u);
  EXPECT_NE(C.toJson().find("\"name\":\"profiled-phase\""),
            std::string::npos);
  // One measurement: the caller's seconds are the phase tree's.
  const TelemetrySnapshot Snap = Telemetry::instance().snapshot();
  const PhaseSnapshot *Phase = Snap.Phases.find("profiled-phase");
  ASSERT_NE(Phase, nullptr);
  EXPECT_EQ(Phase->Seconds, Seconds);
  EXPECT_GE(Seconds, 0);
}

TEST(Profile, ScopedPhaseTimerSilentWhenInactive) {
  // Telemetry on without a collector: the phase tree still records.
  ProfileCollector C;
  CollectorGuard Guard(nullptr);
  { ScopedPhaseTimer T("unprofiled-phase"); }
  EXPECT_EQ(C.eventCount(), 0u);
  EXPECT_NE(Telemetry::instance().snapshot().Phases.find("unprofiled-phase"),
            nullptr);
}

TEST(Profile, WriteFileRoundTrips) {
  ProfileCollector C;
  C.span("detect", "phase", 0, 3);
  std::string Path =
      testing::TempDir() + "rvp_profile_test_trace.json";
  std::string Error;
  ASSERT_TRUE(C.writeFile(Path, Error)) << Error;
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  std::string Content;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Content.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());
  EXPECT_EQ(Content, C.toJson());
}

TEST(Profile, WriteFileReportsUnwritablePath) {
  ProfileCollector C;
  std::string Error;
  EXPECT_FALSE(C.writeFile("/nonexistent-dir/trace.json", Error));
  EXPECT_FALSE(Error.empty());
}

} // namespace
