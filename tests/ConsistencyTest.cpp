//===- tests/ConsistencyTest.cpp - Consistency checker tests ---------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Consistency.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace rvp;

TEST(Consistency, AcceptsFigure4Trace) {
  TraceBuilder B;
  B.fork("t1", "t2");
  B.acquire("t1", "l");
  B.write("t1", "x", 1);
  B.write("t1", "y", 1);
  B.release("t1", "l");
  B.begin("t2");
  B.acquire("t2", "l");
  B.read("t2", "y", 1);
  B.release("t2", "l");
  B.read("t2", "x", 1);
  B.branch("t2");
  B.write("t2", "z", 1);
  B.end("t2");
  B.join("t1", "t2");
  B.read("t1", "z", 1);
  Trace T = B.build();
  ConsistencyResult R = checkConsistency(T, ConsistencyMode::Strict);
  EXPECT_TRUE(R.Ok) << R.Message;
}

TEST(Consistency, RejectsStaleRead) {
  TraceBuilder B;
  B.write("t1", "x", 1);
  B.read("t2", "x", 0); // should read 1
  Trace T = B.build();
  ConsistencyResult R = checkConsistency(T, ConsistencyMode::Strict);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Offender, 1u);
}

TEST(Consistency, InitialValueIsZero) {
  TraceBuilder B;
  B.read("t1", "x", 0);
  Trace T = B.build();
  EXPECT_TRUE(checkConsistency(T, ConsistencyMode::Strict).Ok);
}

TEST(Consistency, RejectsReadBeforeAnyWriteOfNonZero) {
  TraceBuilder B;
  B.read("t1", "x", 7);
  Trace T = B.build();
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Strict).Ok);
}

TEST(Consistency, RejectsDoubleAcquire) {
  TraceBuilder B;
  B.acquire("t1", "l");
  B.acquire("t2", "l");
  Trace T = B.build();
  ConsistencyResult R = checkConsistency(T, ConsistencyMode::Strict);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Offender, 1u);
}

TEST(Consistency, RejectsReleaseByNonHolder) {
  TraceBuilder B;
  B.acquire("t1", "l");
  B.release("t2", "l");
  Trace T = B.build();
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Strict).Ok);
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Fragment).Ok)
      << "non-holder release is wrong even in fragments";
}

TEST(Consistency, StrictRejectsBareReleaseButFragmentAllowsIt) {
  TraceBuilder B;
  B.release("t1", "l");
  Trace T = B.build();
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Strict).Ok);
  EXPECT_TRUE(checkConsistency(T, ConsistencyMode::Fragment).Ok);
}

TEST(Consistency, StrictRejectsHeldLockAtEndButFragmentAllowsIt) {
  TraceBuilder B;
  B.acquire("t1", "l");
  Trace T = B.build();
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Strict).Ok);
  EXPECT_TRUE(checkConsistency(T, ConsistencyMode::Fragment).Ok);
}

TEST(Consistency, RejectsBeginBeforeFork) {
  TraceBuilder B;
  B.begin("t1"); // root thread: fine
  B.begin("t2"); // never forked: strict violation
  Trace T = B.build();
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Strict).Ok);
  EXPECT_TRUE(checkConsistency(T, ConsistencyMode::Fragment).Ok);
}

TEST(Consistency, RejectsEventAfterEnd) {
  TraceBuilder B;
  B.end("t1");
  B.write("t1", "x", 1);
  Trace T = B.build();
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Strict).Ok);
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Fragment).Ok);
}

TEST(Consistency, RejectsJoinBeforeEnd) {
  TraceBuilder B;
  B.fork("t1", "t2");
  B.begin("t2");
  B.join("t1", "t2");
  B.end("t2");
  Trace T = B.build();
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Strict).Ok);
}

TEST(Consistency, RejectsDoubleFork) {
  TraceBuilder B;
  B.fork("t1", "t2");
  B.fork("t3", "t2");
  Trace T = B.build();
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Strict).Ok);
}

TEST(Consistency, RejectsBeginAfterOtherEvents) {
  TraceBuilder B;
  B.write("t1", "x", 1);
  B.begin("t1");
  Trace T = B.build();
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Fragment).Ok);
}

TEST(Consistency, WaitNotifyOrdering) {
  // t1 waits on l; t2 notifies while holding l. Lowered form.
  TraceBuilder B;
  B.acquire("t1", "l");
  B.waitSuspend("t1", "l", /*Match=*/1);
  B.acquire("t2", "l");
  B.notify("t2", "l", /*Match=*/1);
  B.release("t2", "l");
  B.waitResume("t1", "l", /*Match=*/1);
  B.release("t1", "l");
  Trace T = B.build();
  EXPECT_TRUE(checkConsistency(T, ConsistencyMode::Strict).Ok);
}

TEST(Consistency, WaitResumeBeforeNotifyRejected) {
  TraceBuilder B;
  B.acquire("t1", "l");
  B.waitSuspend("t1", "l", 1);
  B.waitResume("t1", "l", 1); // resumed without its notify
  B.release("t1", "l");
  B.acquire("t2", "l");
  B.notify("t2", "l", 1);
  B.release("t2", "l");
  Trace T = B.build();
  EXPECT_FALSE(checkConsistency(T, ConsistencyMode::Strict).Ok);
}

TEST(Consistency, ReorderedSequenceChecked) {
  TraceBuilder B;
  B.write("t1", "x", 1); // 0
  B.write("t2", "x", 2); // 1
  B.read("t1", "x", 2);  // 2
  Trace T = B.build();
  // Recorded order is consistent.
  EXPECT_TRUE(checkConsistency(T, ConsistencyMode::Strict).Ok);
  // Swapping the writes makes the read stale.
  EXPECT_FALSE(checkConsistency(T, {1, 0, 2}, ConsistencyMode::Strict).Ok);
}
