//===- support/MemStats.cpp - Per-subsystem memory accounting ---------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/MemStats.h"

#include "support/Stats.h"
#include "support/StringUtils.h"

#include <atomic>
#include <cstdio>
#include <cstring>

using namespace rvp;

namespace {

constexpr size_t NumPools = static_cast<size_t>(MemPool::Count);

struct PoolState {
  std::atomic<uint64_t> Current{0};
  std::atomic<uint64_t> Peak{0};
};

PoolState &pool(MemPool P) {
  static PoolState Pools[NumPools];
  return Pools[static_cast<size_t>(P)];
}

/// Reads one "Vm...:  12345 kB" field from /proc/self/status. Returns 0
/// when procfs is unavailable or the field is absent (non-Linux hosts).
uint64_t readProcStatusKb(const char *Field) {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  uint64_t Kb = 0;
  size_t FieldLen = std::strlen(Field);
  while (std::fgets(Line, sizeof(Line), F)) {
    if (std::strncmp(Line, Field, FieldLen) != 0 || Line[FieldLen] != ':')
      continue;
    unsigned long long Value = 0;
    if (std::sscanf(Line + FieldLen + 1, " %llu", &Value) == 1)
      Kb = Value;
    break;
  }
  std::fclose(F);
  return Kb;
}

} // namespace

const char *rvp::memPoolName(MemPool Pool) {
  switch (Pool) {
  case MemPool::Clauses:
    return "clauses";
  case MemPool::Encoding:
    return "encoding";
  case MemPool::FormulaDag:
    return "formula_dag";
  case MemPool::Count:
    break;
  }
  return "unknown";
}

void MemStats::add(MemPool P, uint64_t Bytes) {
  PoolState &S = pool(P);
  uint64_t Now =
      S.Current.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  // CAS-max: concurrent adders converge on the true high-water mark.
  uint64_t Peak = S.Peak.load(std::memory_order_relaxed);
  while (Now > Peak &&
         !S.Peak.compare_exchange_weak(Peak, Now,
                                       std::memory_order_relaxed))
    ;
}

void MemStats::sub(MemPool P, uint64_t Bytes) {
  pool(P).Current.fetch_sub(Bytes, std::memory_order_relaxed);
}

uint64_t MemStats::current(MemPool P) {
  return pool(P).Current.load(std::memory_order_relaxed);
}

uint64_t MemStats::peak(MemPool P) {
  return pool(P).Peak.load(std::memory_order_relaxed);
}

void MemStats::reset() {
  for (size_t I = 0; I < NumPools; ++I) {
    PoolState &S = pool(static_cast<MemPool>(I));
    S.Current.store(0, std::memory_order_relaxed);
    S.Peak.store(0, std::memory_order_relaxed);
  }
}

uint64_t MemStats::currentRssBytes() {
  return readProcStatusKb("VmRSS") * 1024;
}

uint64_t MemStats::peakRssBytes() { return readProcStatusKb("VmHWM") * 1024; }

void MemStats::publishGauges(MetricsRegistry &Reg) {
  for (size_t I = 0; I < NumPools; ++I) {
    MemPool P = static_cast<MemPool>(I);
    const char *Name = memPoolName(P);
    Reg.gauge(formatString("mem.%s_bytes", Name))
        .set(static_cast<double>(current(P)));
    Reg.gauge(formatString("mem.%s_peak_bytes", Name))
        .set(static_cast<double>(peak(P)));
  }
  Reg.gauge("mem.rss_bytes").set(static_cast<double>(currentRssBytes()));
  Reg.gauge("mem.peak_rss_bytes").set(static_cast<double>(peakRssBytes()));
}
