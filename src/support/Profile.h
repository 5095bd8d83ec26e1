//===- support/Profile.h - Chrome/Perfetto trace export ---------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deep-profiling export in Chrome Trace Event Format, loadable in
/// ui.perfetto.dev or chrome://tracing with zero post-processing
/// (docs/OBSERVABILITY.md). A ProfileCollector gathers three event kinds:
///
///  * duration events (`ph:"X"`) — every ScopedPhaseTimer enter/exit pair
///    becomes a span on the emitting thread's track, so the phase tree is
///    visible as a real timeline, per worker;
///  * counter events (`ph:"C"`) — sampled metric tracks (live COP/race
///    totals, subsystem bytes) emitted at window barriers;
///  * instant events (`ph:"i"`) — point markers for retries, session
///    quarantines, backend fallbacks, and checkpoint saves.
///
/// Threads are identified by a stable per-collector tid assigned on first
/// use; the thread pool names its workers (`worker-N`) so solve spans land
/// on per-worker tracks. A collector records nothing by itself: behind
/// `rvpredict detect --profile=<path>` it is attached to Telemetry next to
/// the trace-event sink (Telemetry::setProfiler), and reached only through
/// Telemetry::profiler(), so telemetry's one switch also gates profiling.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_PROFILE_H
#define RVP_SUPPORT_PROFILE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace rvp {

/// One collected event; rendered into Chrome Trace Event JSON by
/// ProfileCollector::toJson().
struct ProfileEvent {
  std::string Name;
  const char *Category = "phase";
  char Phase = 'X';   ///< 'X' duration, 'C' counter, 'i' instant
  uint64_t TsUs = 0;  ///< microseconds since collector construction
  uint64_t DurUs = 0; ///< duration ('X' only)
  uint32_t Tid = 0;
  double Value = 0; ///< counter value ('C' only)
};

class ProfileCollector {
public:
  ProfileCollector() = default;
  ProfileCollector(const ProfileCollector &) = delete;
  ProfileCollector &operator=(const ProfileCollector &) = delete;

  using Clock = std::chrono::steady_clock;

  /// Microseconds from this collector's construction to \p At (the trace
  /// timebase); 0 for an earlier time point.
  uint64_t toUs(Clock::time_point At) const {
    if (At <= Epoch)
      return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(At - Epoch)
            .count());
  }
  uint64_t nowUs() const { return toUs(Clock::now()); }

  /// Records a completed duration span on the calling thread's track.
  void span(const char *Name, const char *Category, uint64_t StartUs,
            uint64_t DurUs);

  /// Records a sample on the counter track \p Name.
  void counter(const char *Name, double Value);

  /// Records a thread-scoped instant marker on the calling thread's track.
  void instant(const char *Name, const char *Category);

  /// Names the calling thread's track ("main", "worker-3", ...); later
  /// calls win. Unnamed threads render as "thread-<tid>".
  void setThreadName(const std::string &Name);

  /// The calling thread's stable tid within this collector, assigned on
  /// first use (0 is the first caller, normally the main thread).
  uint32_t currentTid();

  size_t eventCount() const;

  /// The whole trace as one Chrome Trace Event JSON object:
  /// {"displayTimeUnit":"ms","traceEvents":[...]} with thread-name
  /// metadata first and all other events sorted by timestamp (stable, so
  /// equal stamps keep recording order).
  std::string toJson() const;

  /// Writes toJson() to \p Path. False (with \p Error set) on I/O failure.
  bool writeFile(const std::string &Path, std::string &Error) const;

private:
  void record(ProfileEvent Event);

  const Clock::time_point Epoch = Clock::now();
  mutable std::mutex Mutex;
  std::vector<ProfileEvent> Events;
  std::map<uint32_t, std::string> ThreadNames;
  std::atomic<uint32_t> NextTid{0};
  /// Process-unique id of this collector: the key of the per-thread tid
  /// cache, which a collector built at a dead one's address must miss.
  const uint64_t Serial = nextSerial();

  static uint64_t nextSerial();
};

} // namespace rvp

#endif // RVP_SUPPORT_PROFILE_H
