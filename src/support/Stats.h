//===- support/Stats.h - Metrics registry ------------------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide metrics registry: named counters, gauges, and fixed-bucket
/// latency histograms with percentile estimates. The detection pipeline
/// records into it when telemetry is enabled (support/Telemetry.h) and
/// DetectionStats carries a snapshot out to the --stats table and the
/// --stats-json machine form.
///
/// The registry is thread-safe: detector workers (support/ThreadPool.h)
/// record from the parallel per-COP solve loop, so counters and gauges are
/// relaxed atomics, histograms take a per-histogram mutex, and the name →
/// metric maps are guarded by a registry mutex. References returned by
/// counter()/gauge()/histogram() stay valid for the registry's lifetime —
/// reset() zeroes values but keeps registrations, so hot paths may cache
/// them (function-local statics are fine: magic-static init is
/// thread-safe).
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_STATS_H
#define RVP_SUPPORT_STATS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rvp {

/// A monotonically increasing event count. Increments are relaxed atomics:
/// concurrent workers never lose counts, and nothing orders through them.
class Counter {
public:
  void inc() { V.fetch_add(1, std::memory_order_relaxed); }
  void add(uint64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A point-in-time value (last write wins, atomically).
class Gauge {
public:
  void set(double Value) { V.store(Value, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<double> V{0};
};

/// Aggregates of one histogram, with percentile estimates.
struct HistogramSnapshot {
  uint64_t Count = 0;
  double Sum = 0;
  double Min = 0;
  double Max = 0;
  double P50 = 0;
  double P90 = 0;
  double P99 = 0;

  double mean() const { return Count ? Sum / static_cast<double>(Count) : 0; }
};

/// A fixed-bucket histogram for non-negative values (latencies in seconds).
/// Buckets are log-spaced: bucket i covers (Base*Growth^(i-1), Base*Growth^i]
/// with Base = 1e-6 s and Growth = 1.3, so the range 1µs .. ~8e5s is covered
/// with ≤ 30% relative bucket width; percentile() interpolates linearly
/// within a bucket and clamps to the observed [min, max]. All operations
/// take a per-histogram mutex so concurrent record() calls keep the
/// bucket/total/sum invariants consistent.
class Histogram {
public:
  static constexpr size_t NumBuckets = 96;

  /// Inclusive upper bound of bucket \p I (the last bucket catches
  /// everything above the penultimate bound).
  static double bucketUpperBound(size_t I);

  void record(double Value);

  uint64_t count() const {
    std::lock_guard<std::mutex> Guard(Mutex);
    return Total;
  }
  double sum() const {
    std::lock_guard<std::mutex> Guard(Mutex);
    return Sum;
  }

  /// Percentile estimate for \p Q in [0, 1]; 0 when empty.
  double percentile(double Q) const;

  HistogramSnapshot snapshot() const;
  void reset();

private:
  double percentileLocked(double Q) const;

  mutable std::mutex Mutex;
  std::array<uint64_t, NumBuckets> Buckets{};
  uint64_t Total = 0;
  double Sum = 0;
  double MinV = 0;
  double MaxV = 0;
};

/// Point-in-time copy of every registered metric, ordered by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, double>> Gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> Histograms;

  bool empty() const {
    return Counters.empty() && Gauges.empty() && Histograms.empty();
  }

  /// Value of a counter by name; 0 when absent.
  uint64_t counterValue(std::string_view Name) const;

  /// Human-readable rendering, one metric per line, indented by \p Indent.
  std::string renderTable(unsigned Indent = 2) const;
};

/// The registry. Metrics are created on first lookup; lookups are by full
/// dotted name ("solver.latency_seconds"). Cache the returned reference on
/// hot paths.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name) {
    std::lock_guard<std::mutex> Guard(Mutex);
    return Counters[Name];
  }
  Gauge &gauge(const std::string &Name) {
    std::lock_guard<std::mutex> Guard(Mutex);
    return Gauges[Name];
  }
  Histogram &histogram(const std::string &Name) {
    std::lock_guard<std::mutex> Guard(Mutex);
    return Histograms[Name];
  }

  MetricsSnapshot snapshot() const;

  /// Zeroes every metric but keeps registrations: references handed out
  /// earlier remain valid.
  void reset();

  /// The process-wide registry the pipeline instrumentation records into.
  static MetricsRegistry &global();

private:
  // std::map: node-based, so metric references are stable across inserts
  // and remain usable without the registry mutex once handed out.
  mutable std::mutex Mutex;
  std::map<std::string, Counter> Counters;
  std::map<std::string, Gauge> Gauges;
  std::map<std::string, Histogram> Histograms;
};

// --------------------------------------------------------------- JSON

/// Escapes \p Text for inclusion inside a JSON string literal (quotes,
/// backslashes, and control characters; UTF-8 passes through unchanged).
std::string jsonEscape(std::string_view Text);

/// Incremental writer for one JSON object; keys are emitted in call order.
/// str() closes the object. Values passed to field() are escaped; raw()
/// splices pre-rendered JSON (for nested objects/arrays).
class JsonObject {
public:
  JsonObject &field(std::string_view Key, uint64_t Value);
  JsonObject &field(std::string_view Key, int64_t Value);
  JsonObject &field(std::string_view Key, double Value);
  JsonObject &field(std::string_view Key, bool Value);
  JsonObject &field(std::string_view Key, std::string_view Value);
  JsonObject &field(std::string_view Key, const char *Value) {
    return field(Key, std::string_view(Value));
  }
  JsonObject &raw(std::string_view Key, std::string_view Json);

  std::string str() const { return Buf + "}"; }

private:
  void key(std::string_view Key);
  std::string Buf = "{";
};

/// Renders a double as a JSON number (non-finite values become 0).
std::string jsonNumber(double Value);

/// Adds the snapshot's "counters":{...}, "gauges":{...} and
/// "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,"p50":..,
/// "p90":..,"p99":..}} members to \p Json.
void appendMetrics(JsonObject &Json, const MetricsSnapshot &Snapshot);

/// The snapshot as one JSON object of appendMetrics' three members.
std::string metricsToJson(const MetricsSnapshot &Snapshot);

} // namespace rvp

#endif // RVP_SUPPORT_STATS_H
