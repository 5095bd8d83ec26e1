//===- support/Timer.h - Wall-clock timing helpers --------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monotonic wall-clock timer and a simple deadline type used to implement
/// the per-COP solving budget described in Section 4 of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_TIMER_H
#define RVP_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>

namespace rvp {

/// Measures elapsed wall-clock time since construction or the last reset().
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  void reset() { Start = Clock::now(); }

  /// Elapsed time in seconds.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// A deadline that can be polled cheaply. A default-constructed Deadline
/// never expires.
class Deadline {
public:
  Deadline() = default;

  /// Creates a deadline \p Seconds from now; non-positive values mean
  /// "no limit".
  static Deadline after(double Seconds) {
    Deadline D;
    if (Seconds > 0) {
      D.HasLimit = true;
      D.Expiry = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(Seconds));
    }
    return D;
  }

  bool expired() const { return HasLimit && Clock::now() >= Expiry; }

  /// True when the deadline actually limits anything. Check this before
  /// doing arithmetic with remainingSeconds(): the -1.0 "no limit"
  /// sentinel silently poisons budget computations otherwise.
  bool hasLimit() const { return HasLimit; }

  /// Seconds until expiry; negative when no limit (see hasLimit()),
  /// 0 when already expired.
  double remainingSeconds() const {
    if (!HasLimit)
      return -1.0;
    double Left = std::chrono::duration<double>(Expiry - Clock::now()).count();
    return Left < 0 ? 0 : Left;
  }

private:
  using Clock = std::chrono::steady_clock;
  bool HasLimit = false;
  Clock::time_point Expiry;
};

} // namespace rvp

#endif // RVP_SUPPORT_TIMER_H
