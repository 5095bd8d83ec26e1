//===- trace/Window.h - Fixed-size trace windowing --------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splits a long trace into fixed-size windows (Section 4, "Handling long
/// traces"). Each window is analyzed independently; races across window
/// boundaries are not reported, which does not affect soundness.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_TRACE_WINDOW_H
#define RVP_TRACE_WINDOW_H

#include "trace/Trace.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace rvp {

/// The paper's default window size.
constexpr uint32_t DefaultWindowSize = 10000;

/// Window \p K of a trace of \p Total events cut into windows of \p Size
/// events; the last one may be shorter. \p Size == 0 means a single
/// window over the whole trace.
inline Span windowAt(uint64_t Total, uint32_t Size, uint64_t K) {
  if (Size == 0)
    return {0, static_cast<EventId>(Total)};
  uint64_t Begin = K * Size;
  return {static_cast<EventId>(Begin),
          static_cast<EventId>(std::min<uint64_t>(Begin + Size, Total))};
}

/// The number of windows of a trace of \p Total events: every one with
/// \p Final, else only the full ones (a growing trace's tail, or with
/// \p Size == 0 its one window, may still grow).
inline uint64_t windowCount(uint64_t Total, uint32_t Size, bool Final) {
  if (Size == 0)
    return Final && Total > 0 ? 1 : 0;
  return Final ? (Total + Size - 1) / Size : Total / Size;
}

/// Returns consecutive spans of at most \p Size events covering the trace.
/// \p Size == 0 means a single window over the whole trace.
inline std::vector<Span> splitWindows(const Trace &T, uint32_t Size) {
  uint64_t Count = windowCount(T.size(), Size, /*Final=*/true);
  std::vector<Span> Windows;
  Windows.reserve(Count);
  for (uint64_t K = 0; K < Count; ++K)
    Windows.push_back(windowAt(T.size(), Size, K));
  return Windows;
}

} // namespace rvp

#endif // RVP_TRACE_WINDOW_H
