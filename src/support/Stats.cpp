//===- support/Stats.cpp - Metrics registry ---------------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace rvp;

// ----------------------------------------------------------- Histogram

namespace {

constexpr double BucketBase = 1e-6;
constexpr double BucketGrowth = 1.3;

/// Precomputed inclusive upper bounds; the last entry is infinity so the
/// final bucket absorbs outliers.
struct BucketBounds {
  std::array<double, Histogram::NumBuckets> Upper;

  BucketBounds() {
    double Bound = BucketBase;
    for (size_t I = 0; I + 1 < Upper.size(); ++I) {
      Upper[I] = Bound;
      Bound *= BucketGrowth;
    }
    Upper.back() = std::numeric_limits<double>::infinity();
  }
};

const BucketBounds &bounds() {
  static const BucketBounds B;
  return B;
}

size_t bucketOf(double Value) {
  const auto &Upper = bounds().Upper;
  return static_cast<size_t>(
      std::lower_bound(Upper.begin(), Upper.end(), Value) - Upper.begin());
}

} // namespace

double Histogram::bucketUpperBound(size_t I) { return bounds().Upper[I]; }

void Histogram::record(double Value) {
  if (!std::isfinite(Value) || Value < 0)
    Value = 0;
  std::lock_guard<std::mutex> Guard(Mutex);
  if (Total == 0) {
    MinV = MaxV = Value;
  } else {
    MinV = std::min(MinV, Value);
    MaxV = std::max(MaxV, Value);
  }
  ++Total;
  Sum += Value;
  ++Buckets[bucketOf(Value)];
}

double Histogram::percentile(double Q) const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return percentileLocked(Q);
}

double Histogram::percentileLocked(double Q) const {
  if (Total == 0)
    return 0;
  Q = std::clamp(Q, 0.0, 1.0);
  // Rank of the q-th value (1-based, nearest-rank with interpolation
  // inside the bucket, assuming a uniform spread across the bucket).
  double Rank = std::max(1.0, Q * static_cast<double>(Total));
  uint64_t Cumulative = 0;
  for (size_t I = 0; I < NumBuckets; ++I) {
    if (Buckets[I] == 0)
      continue;
    double Before = static_cast<double>(Cumulative);
    Cumulative += Buckets[I];
    if (static_cast<double>(Cumulative) < Rank)
      continue;
    double Lo = I == 0 ? 0 : bounds().Upper[I - 1];
    double Hi = bounds().Upper[I];
    if (!std::isfinite(Hi))
      Hi = MaxV; // the overflow bucket has no natural upper bound
    // Tighten the span to the observed range: no bucket holds mass outside
    // [MinV, MaxV], so interpolating across the full bucket width would
    // drift single-sample and single-bucket distributions toward bucket
    // edges the data never touched.
    Lo = std::max(Lo, MinV);
    Hi = std::min(Hi, MaxV);
    if (Hi < Lo)
      Hi = Lo;
    double Fraction = (Rank - Before) / static_cast<double>(Buckets[I]);
    double Value = Lo + Fraction * (Hi - Lo);
    return std::clamp(Value, MinV, MaxV);
  }
  return MaxV;
}

HistogramSnapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  HistogramSnapshot S;
  S.Count = Total;
  S.Sum = Sum;
  S.Min = Total ? MinV : 0;
  S.Max = Total ? MaxV : 0;
  S.P50 = percentileLocked(0.50);
  S.P90 = percentileLocked(0.90);
  S.P99 = percentileLocked(0.99);
  return S;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> Guard(Mutex);
  Buckets.fill(0);
  Total = 0;
  Sum = 0;
  MinV = 0;
  MaxV = 0;
}

// ------------------------------------------------------------- registry

uint64_t MetricsSnapshot::counterValue(std::string_view Name) const {
  for (const auto &[N, V] : Counters)
    if (N == Name)
      return V;
  return 0;
}

std::string MetricsSnapshot::renderTable(unsigned Indent) const {
  std::string Pad(Indent, ' ');
  std::string Out;
  for (const auto &[Name, Value] : Counters)
    Out += formatString("%s%-44s %12llu\n", Pad.c_str(), Name.c_str(),
                        static_cast<unsigned long long>(Value));
  for (const auto &[Name, Value] : Gauges)
    Out += formatString("%s%-44s %12.4f\n", Pad.c_str(), Name.c_str(), Value);
  for (const auto &[Name, H] : Histograms)
    Out += formatString(
        "%s%-44s n=%llu mean=%.6f p50=%.6f p90=%.6f p99=%.6f max=%.6f\n",
        Pad.c_str(), Name.c_str(), static_cast<unsigned long long>(H.Count),
        H.mean(), H.P50, H.P90, H.P99, H.Max);
  return Out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  MetricsSnapshot S;
  S.Counters.reserve(Counters.size());
  for (const auto &[Name, C] : Counters)
    S.Counters.emplace_back(Name, C.value());
  S.Gauges.reserve(Gauges.size());
  for (const auto &[Name, G] : Gauges)
    S.Gauges.emplace_back(Name, G.value());
  S.Histograms.reserve(Histograms.size());
  for (const auto &[Name, H] : Histograms)
    S.Histograms.emplace_back(Name, H.snapshot());
  return S;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Guard(Mutex);
  for (auto &[Name, C] : Counters)
    C.reset();
  for (auto &[Name, G] : Gauges)
    G.reset();
  for (auto &[Name, H] : Histograms)
    H.reset();
}

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry Registry;
  return Registry;
}

// ----------------------------------------------------------------- JSON

std::string rvp::jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (unsigned char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (C < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += static_cast<char>(C);
    }
  }
  return Out;
}

std::string rvp::jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "0";
  return formatString("%.9g", Value);
}

void JsonObject::key(std::string_view Key) {
  if (Buf.size() > 1)
    Buf += ",";
  Buf += "\"";
  Buf += jsonEscape(Key);
  Buf += "\":";
}

JsonObject &JsonObject::field(std::string_view Key, uint64_t Value) {
  key(Key);
  Buf += formatString("%llu", static_cast<unsigned long long>(Value));
  return *this;
}

JsonObject &JsonObject::field(std::string_view Key, int64_t Value) {
  key(Key);
  Buf += formatString("%lld", static_cast<long long>(Value));
  return *this;
}

JsonObject &JsonObject::field(std::string_view Key, double Value) {
  key(Key);
  Buf += jsonNumber(Value);
  return *this;
}

JsonObject &JsonObject::field(std::string_view Key, bool Value) {
  key(Key);
  Buf += Value ? "true" : "false";
  return *this;
}

JsonObject &JsonObject::field(std::string_view Key, std::string_view Value) {
  key(Key);
  Buf += "\"";
  Buf += jsonEscape(Value);
  Buf += "\"";
  return *this;
}

JsonObject &JsonObject::raw(std::string_view Key, std::string_view Json) {
  key(Key);
  Buf += Json;
  return *this;
}

void rvp::appendMetrics(JsonObject &Json, const MetricsSnapshot &Snapshot) {
  JsonObject CountersObj;
  for (const auto &[Name, Value] : Snapshot.Counters)
    CountersObj.field(Name, Value);
  JsonObject GaugesObj;
  for (const auto &[Name, Value] : Snapshot.Gauges)
    GaugesObj.field(Name, Value);
  JsonObject HistsObj;
  for (const auto &[Name, H] : Snapshot.Histograms) {
    JsonObject HistObj;
    HistObj.field("count", H.Count)
        .field("sum", H.Sum)
        .field("min", H.Min)
        .field("max", H.Max)
        .field("p50", H.P50)
        .field("p90", H.P90)
        .field("p99", H.P99);
    HistsObj.raw(Name, HistObj.str());
  }
  Json.raw("counters", CountersObj.str())
      .raw("gauges", GaugesObj.str())
      .raw("histograms", HistsObj.str());
}

std::string rvp::metricsToJson(const MetricsSnapshot &Snapshot) {
  JsonObject Out;
  appendMetrics(Out, Snapshot);
  return Out.str();
}
