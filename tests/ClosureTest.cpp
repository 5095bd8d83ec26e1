//===- tests/ClosureTest.cpp - Vector-clock closure tests -------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Closure.h"

#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace rvp;

TEST(Closure, ProgramOrder) {
  TraceBuilder B;
  B.write("t1", "x", 1);
  B.write("t1", "y", 1);
  B.write("t2", "z", 1);
  Trace T = B.build();
  EventClosure C(T, T.fullSpan(), ClosureConfig::mhb());
  EXPECT_TRUE(C.ordered(0, 1));
  EXPECT_FALSE(C.ordered(1, 0));
  EXPECT_FALSE(C.ordered(0, 2));
  EXPECT_FALSE(C.ordered(2, 0));
  EXPECT_FALSE(C.ordered(0, 0)) << "ordering is strict";
}

TEST(Closure, ForkJoinEdges) {
  TraceBuilder B;
  B.write("t1", "a", 1); // 0
  B.fork("t1", "t2");    // 1
  B.begin("t2");         // 2
  B.write("t2", "b", 1); // 3
  B.end("t2");           // 4
  B.join("t1", "t2");    // 5
  B.write("t1", "c", 1); // 6
  Trace T = B.build();
  EventClosure C(T, T.fullSpan(), ClosureConfig::mhb());
  EXPECT_TRUE(C.ordered(0, 3)) << "pre-fork events precede child events";
  EXPECT_TRUE(C.ordered(3, 6)) << "child events precede post-join events";
  EXPECT_TRUE(C.ordered(1, 2));
  EXPECT_TRUE(C.ordered(4, 5));
}

TEST(Closure, ConcurrentAfterFork) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0
  B.begin("t2");         // 1
  B.write("t1", "a", 1); // 2
  B.write("t2", "b", 1); // 3
  Trace T = B.build();
  EventClosure C(T, T.fullSpan(), ClosureConfig::mhb());
  EXPECT_FALSE(C.ordered(2, 3));
  EXPECT_FALSE(C.ordered(3, 2));
}

TEST(Closure, LockEdgesOnlyInHb) {
  TraceBuilder B;
  B.acquire("t1", "l");  // 0
  B.write("t1", "x", 1); // 1
  B.release("t1", "l");  // 2
  B.acquire("t2", "l");  // 3
  B.read("t2", "x", 1);  // 4
  B.release("t2", "l");  // 5
  Trace T = B.build();
  EventClosure Mhb(T, T.fullSpan(), ClosureConfig::mhb());
  EventClosure Hb(T, T.fullSpan(), ClosureConfig::hb());
  EXPECT_FALSE(Mhb.ordered(1, 4)) << "MHB has no lock edges";
  EXPECT_TRUE(Hb.ordered(1, 4)) << "HB orders through the release/acquire";
  EXPECT_TRUE(Hb.ordered(2, 3));
}

TEST(Closure, VolatileEdgesInHbAndCpBase) {
  TraceBuilder B;
  B.write("t1", "x", 1);                            // 0
  B.write("t1", "f", 1, "", /*IsVolatile=*/true);   // 1
  B.read("t2", "f", 1, "", /*IsVolatile=*/true);    // 2
  B.read("t2", "x", 1);                             // 3
  Trace T = B.build();
  EventClosure Hb(T, T.fullSpan(), ClosureConfig::hb());
  EventClosure CpBase(T, T.fullSpan(), ClosureConfig::cpBase());
  EventClosure Mhb(T, T.fullSpan(), ClosureConfig::mhb());
  EXPECT_TRUE(Hb.ordered(0, 3));
  EXPECT_TRUE(CpBase.ordered(0, 3));
  EXPECT_FALSE(Mhb.ordered(0, 3)) << "the maximal model drops the edge";
}

TEST(Closure, WaitNotifyOrdering) {
  TraceBuilder B;
  B.acquire("t1", "l");        // 0
  B.waitSuspend("t1", "l", 1); // 1 (release)
  B.acquire("t2", "l");        // 2
  B.write("t2", "x", 5);       // 3
  B.notify("t2", "l", 1);      // 4
  B.release("t2", "l");        // 5
  B.waitResume("t1", "l", 1);  // 6 (acquire)
  B.read("t1", "x", 5);        // 7
  B.release("t1", "l");        // 8
  Trace T = B.build();
  EventClosure Mhb(T, T.fullSpan(), ClosureConfig::mhb());
  EXPECT_TRUE(Mhb.ordered(1, 4)) << "wait release precedes its notify";
  EXPECT_TRUE(Mhb.ordered(4, 6)) << "notify precedes the wait resume";
  EXPECT_TRUE(Mhb.ordered(3, 7)) << "transitively through the notify";
}

TEST(Closure, WindowedClosureIgnoresOutsideEvents) {
  TraceBuilder B;
  B.fork("t1", "t2");    // 0 (outside the window below)
  B.begin("t2");         // 1 (outside)
  B.write("t1", "a", 1); // 2
  B.write("t2", "b", 1); // 3
  Trace T = B.build();
  EventClosure C(T, {2, 4}, ClosureConfig::mhb());
  EXPECT_FALSE(C.ordered(2, 3));
  EXPECT_FALSE(C.ordered(3, 2));
}
