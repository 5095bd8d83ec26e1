//===- support/FaultInjector.cpp - Deterministic fault injection -----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include "support/StringUtils.h"

#include <mutex>

using namespace rvp;

const std::vector<std::string> &rvp::knownFaultSites() {
  static const std::vector<std::string> Sites = {
      faults::SolverTimeout,     faults::SessionCorrupt,
      faults::SatDbAlloc,        faults::TraceShortRead,
      faults::TraceGarble,       faults::DetectAbort,
      faults::NetShortWrite,     faults::NetClientStall,
      faults::NetFrameGarble,    faults::ServerWorkerAbort,
      faults::ServerWorkerStall,
  };
  return Sites;
}

std::atomic<bool> FaultInjector::EnabledFlag{false};

/// All mutable injector state behind one mutex. shouldFail is on the
/// detector hot path only when injection is active, where determinism
/// matters far more than throughput.
struct FaultInjector::State {
  std::mutex Mu;
  std::vector<Rule> Rules;
  uint64_t RngState = 0x9e3779b97f4a7c15ULL;

  uint64_t nextRand() {
    // xorshift64*: deterministic, seedable, good enough for fault dice.
    RngState ^= RngState >> 12;
    RngState ^= RngState << 25;
    RngState ^= RngState >> 27;
    return RngState * 0x2545f4914f6cdd1dULL;
  }
};

FaultInjector &FaultInjector::instance() {
  static FaultInjector Injector;
  return Injector;
}

FaultInjector::State &FaultInjector::state() {
  static State S;
  return S;
}

const FaultInjector::State &FaultInjector::state() const {
  return const_cast<FaultInjector *>(this)->state();
}

static bool knownSite(std::string_view Site) {
  for (const std::string &S : knownFaultSites())
    if (S == Site)
      return true;
  return false;
}

bool FaultInjector::configure(const std::string &Spec, std::string &Error) {
  std::vector<Rule> Rules;
  uint64_t Seed = 0x9e3779b97f4a7c15ULL;
  for (std::string_view Entry : split(Spec, ',')) {
    Entry = trim(Entry);
    if (Entry.empty())
      continue;
    std::string_view Site = Entry;
    std::string_view Trigger;
    bool HasTrigger = false;
    if (size_t Eq = Entry.find('='); Eq != std::string_view::npos) {
      Site = Entry.substr(0, Eq);
      Trigger = Entry.substr(Eq + 1);
      HasTrigger = true;
    }
    if (Site == "seed") {
      int64_t Value = 0;
      if (!parseInt(Trigger, Value) || Value < 0) {
        Error = "malformed fault seed '" + std::string(Trigger) + "'";
        return false;
      }
      Seed = static_cast<uint64_t>(Value) * 0x9e3779b97f4a7c15ULL + 1;
      continue;
    }
    if (!knownSite(Site)) {
      Error = "unknown fault site '" + std::string(Site) +
              "' (known: " + join(knownFaultSites(), ", ") + ")";
      return false;
    }
    Rule R;
    R.Site = std::string(Site);
    if (HasTrigger && Trigger.empty()) {
      // "site=" is a typo, not a request to always fire.
      Error = "empty fault trigger for site '" + R.Site +
              "' (want N, N+, or N%; drop the '=' to fire always)";
      return false;
    }
    if (Trigger.empty()) {
      R.Kind = Rule::Trigger::Always;
    } else {
      char Suffix = Trigger.back();
      std::string_view Num = Trigger;
      if (Suffix == '+' || Suffix == '%')
        Num = Trigger.substr(0, Trigger.size() - 1);
      int64_t Value = 0;
      if (!parseInt(Num, Value) || Value < 0) {
        Error = "malformed fault trigger '" + std::string(Trigger) +
                "' for site '" + R.Site + "' (want N, N+, or N%)";
        return false;
      }
      if (Suffix == '+') {
        R.Kind = Rule::Trigger::FromNth;
      } else if (Suffix == '%') {
        if (Value > 100) {
          Error = "fault probability above 100% for site '" + R.Site + "'";
          return false;
        }
        R.Kind = Rule::Trigger::Percent;
      } else {
        R.Kind = Rule::Trigger::Nth;
        if (Value == 0) {
          Error = "fault trigger for site '" + R.Site +
                  "' is 1-based; got 0";
          return false;
        }
      }
      R.N = static_cast<uint64_t>(Value);
    }
    Rules.push_back(std::move(R));
  }

  State &S = instance().state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Rules = std::move(Rules);
  S.RngState = Seed;
  EnabledFlag.store(!S.Rules.empty(), std::memory_order_relaxed);
  return true;
}

void FaultInjector::reset() {
  State &S = instance().state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Rules.clear();
  S.RngState = 0x9e3779b97f4a7c15ULL;
  EnabledFlag.store(false, std::memory_order_relaxed);
}

bool FaultInjector::shouldFailSlow(const char *Site) {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  bool Fail = false;
  for (Rule &R : S.Rules) {
    if (R.Site != Site)
      continue;
    ++R.Hits;
    bool Fire = false;
    switch (R.Kind) {
    case Rule::Trigger::Always:
      Fire = true;
      break;
    case Rule::Trigger::Nth:
      Fire = R.Hits == R.N;
      break;
    case Rule::Trigger::FromNth:
      Fire = R.Hits >= R.N;
      break;
    case Rule::Trigger::Percent:
      Fire = S.nextRand() % 100 < R.N;
      break;
    }
    if (Fire) {
      ++R.Fired;
      Fail = true;
    }
  }
  return Fail;
}

uint64_t FaultInjector::hits(const std::string &Site) const {
  const State &S = state();
  std::lock_guard<std::mutex> Lock(const_cast<std::mutex &>(S.Mu));
  uint64_t Total = 0;
  for (const Rule &R : S.Rules)
    if (R.Site == Site)
      Total += R.Hits;
  return Total;
}

uint64_t FaultInjector::fired(const std::string &Site) const {
  const State &S = state();
  std::lock_guard<std::mutex> Lock(const_cast<std::mutex &>(S.Mu));
  uint64_t Total = 0;
  for (const Rule &R : S.Rules)
    if (R.Site == Site)
      Total += R.Fired;
  return Total;
}
