//===- support/MemStats.h - Per-subsystem memory accounting ------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight per-subsystem byte accounting for the detection pipeline
/// (docs/OBSERVABILITY.md). Subsystems with data structures that dominate
/// large-window memory — the formula DAG, the SAT clause database and the
/// per-window encoding state — report allocations into
/// a fixed set of pools; each pool tracks its current and high-water byte
/// counts with relaxed atomics, so concurrent solver workers account
/// without synchronization and the default (telemetry-off) path pays
/// nothing: every hook site guards on Telemetry::enabled().
///
/// The pools are published as `mem.*` gauges into the metrics registry at
/// snapshot time, alongside the process RSS read from /proc/self/status
/// (0 on platforms without procfs).
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_MEMSTATS_H
#define RVP_SUPPORT_MEMSTATS_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace rvp {

class MetricsRegistry;

/// The accounted subsystems. Count is the array bound, not a pool.
enum class MemPool : uint8_t {
  Clauses,    ///< SAT clause database (problem + learned)
  Encoding,   ///< per-window WindowEncoding state
  FormulaDag, ///< FormulaBuilder arena chunks (smt/Arena.h)
  Count
};

/// Dotted gauge-name stem of \p Pool ("clauses", "encoding", ...).
const char *memPoolName(MemPool Pool);

/// Process-wide accounting registry. All operations are relaxed atomics;
/// totals are exact when every add() is matched by a sub() (the RAII
/// owners below guarantee that), and peaks are monotone high-water marks
/// until reset().
class MemStats {
public:
  static void add(MemPool Pool, uint64_t Bytes);
  static void sub(MemPool Pool, uint64_t Bytes);

  static uint64_t current(MemPool Pool);
  static uint64_t peak(MemPool Pool);

  /// Zeroes every pool's current and peak count (run delimiter, paired
  /// with Telemetry::reset()).
  static void reset();

  /// Resident set size in bytes from /proc/self/status (VmRSS), 0 when
  /// unavailable.
  static uint64_t currentRssBytes();

  /// Peak resident set size in bytes (VmHWM), 0 when unavailable.
  static uint64_t peakRssBytes();

  /// Publishes every pool's current/peak plus the RSS numbers into \p Reg
  /// as `mem.<pool>_bytes` / `mem.<pool>_peak_bytes` /
  /// `mem.rss_bytes` / `mem.peak_rss_bytes` gauges.
  static void publishGauges(MetricsRegistry &Reg);
};

/// RAII pool charge: adds \p Bytes on charge(), releases the accumulated
/// total on destruction. Data-structure owners (BumpArena, SatSolver,
/// WindowEncoding) embed one so accounting can never leak across runs even
/// when telemetry is toggled mid-lifetime: only bytes actually charged are
/// ever released. charge() may run on several threads at once (a
/// WindowEncoding charges each read skeleton from whichever solver worker
/// builds it); release() and discharge() belong to the owning thread.
class MemCharge {
public:
  explicit MemCharge(MemPool Pool) : Pool(Pool) {}
  ~MemCharge() { release(); }
  MemCharge(const MemCharge &) = delete;
  MemCharge &operator=(const MemCharge &) = delete;

  void charge(uint64_t Bytes) {
    MemStats::add(Pool, Bytes);
    Charged.fetch_add(Bytes, std::memory_order_relaxed);
  }

  void release() {
    if (uint64_t Bytes = Charged.exchange(0, std::memory_order_relaxed))
      MemStats::sub(Pool, Bytes);
  }

  /// Releases part of the charge (clamped to what was actually charged, so
  /// an owner that shrinks while telemetry is off never underflows).
  void discharge(uint64_t Bytes) {
    uint64_t Have = charged();
    if (Bytes > Have)
      Bytes = Have;
    if (Bytes) {
      MemStats::sub(Pool, Bytes);
      Charged.fetch_sub(Bytes, std::memory_order_relaxed);
    }
  }

  uint64_t charged() const { return Charged.load(std::memory_order_relaxed); }

private:
  MemPool Pool;
  std::atomic<uint64_t> Charged{0};
};

} // namespace rvp

#endif // RVP_SUPPORT_MEMSTATS_H
