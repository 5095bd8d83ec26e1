//===- support/CostLedger.cpp - Per-COP / per-window cost ledger ------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CostLedger.h"

#include "support/Stats.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <tuple>

using namespace rvp;

namespace {

bool copCostlier(const CopCost &A, const CopCost &B) {
  double TotalA = A.totalSeconds(), TotalB = B.totalSeconds();
  if (TotalA != TotalB)
    return TotalA > TotalB;
  return std::tie(A.Window, A.LocFirst, A.LocSecond) <
         std::tie(B.Window, B.LocFirst, B.LocSecond);
}

bool windowCostlier(const WindowCost &A, const WindowCost &B) {
  if (A.Seconds != B.Seconds)
    return A.Seconds > B.Seconds;
  return A.Index < B.Index;
}

/// Appends \p Record; past 4 * TopK records keeps only the TopK costliest.
template <typename Record, typename Costlier>
void retain(std::vector<Record> &Records, Record R, size_t TopK,
            Costlier Less) {
  Records.push_back(std::move(R));
  if (Records.size() <= 4 * TopK)
    return;
  std::nth_element(Records.begin(), Records.begin() + TopK - 1,
                   Records.end(), Less);
  Records.resize(TopK);
}

/// The TopK costliest of \p Records, costliest first.
template <typename Record, typename Costlier>
std::vector<Record> top(std::vector<Record> Records, size_t TopK,
                        Costlier Less) {
  std::sort(Records.begin(), Records.end(), Less);
  if (Records.size() > TopK)
    Records.resize(TopK);
  return Records;
}

} // namespace

void CostLedger::recordCop(CopCost Cost) {
  retain(Cops, std::move(Cost), TopK, copCostlier);
}

void CostLedger::recordWindow(WindowCost Cost) {
  retain(Windows, Cost, TopK, windowCostlier);
}

std::vector<CopCost> CostLedger::topCops() const {
  return top(Cops, TopK, copCostlier);
}

std::vector<WindowCost> CostLedger::topWindows() const {
  return top(Windows, TopK, windowCostlier);
}

std::string CostLedger::renderTable() const {
  std::vector<WindowCost> TopW = topWindows();
  std::vector<CopCost> TopC = topCops();
  if (TopW.empty() && TopC.empty())
    return "";
  std::string Out = "top-costs:\n";
  if (!TopW.empty()) {
    Out += "  windows (most expensive first):\n";
    for (const WindowCost &W : TopW)
      Out += formatString("    window %zu: %.3fs  (%zu cops, %zu solves)\n",
                          W.Index, W.Seconds, W.Cops, W.Solves);
  }
  if (!TopC.empty()) {
    Out += "  cops (most expensive first):\n";
    for (const CopCost &C : TopC)
      Out += formatString(
          "    w%zu %s <-> %s on %s [%s]: %.3fs  "
          "(encode %.3fs, solve %.3fs, witness %.3fs, mem %llu B, "
          "attempts %u, cone %llu)\n",
          C.Window, C.LocFirst.c_str(), C.LocSecond.c_str(),
          C.Variable.c_str(), C.Outcome.c_str(), C.totalSeconds(),
          C.EncodeSeconds, C.SolveSeconds, C.WitnessSeconds,
          static_cast<unsigned long long>(C.MemDeltaBytes), C.Attempts,
          static_cast<unsigned long long>(C.ConeEvents));
  }
  return Out;
}

void CostLedger::addToJson(JsonObject &Json) const {
  auto Array = [](const auto &Records, auto Render) {
    std::string Out = "[";
    for (const auto &R : Records)
      Out += (Out.size() > 1 ? "," : "") + Render(R).str();
    return Out + "]";
  };
  std::string WindowsJson = Array(topWindows(), [](const WindowCost &W) {
    return JsonObject()
        .field("index", static_cast<uint64_t>(W.Index))
        .field("cops", static_cast<uint64_t>(W.Cops))
        .field("solves", static_cast<uint64_t>(W.Solves))
        .field("seconds", W.Seconds);
  });
  std::string CopsJson = Array(topCops(), [](const CopCost &C) {
    return JsonObject()
        .field("window", static_cast<uint64_t>(C.Window))
        .field("first", C.LocFirst)
        .field("second", C.LocSecond)
        .field("variable", C.Variable)
        .field("outcome", C.Outcome)
        .field("encode_seconds", C.EncodeSeconds)
        .field("solve_seconds", C.SolveSeconds)
        .field("witness_seconds", C.WitnessSeconds)
        .field("total_seconds", C.totalSeconds())
        .field("mem_delta_bytes", C.MemDeltaBytes)
        .field("attempts", static_cast<uint64_t>(C.Attempts))
        .field("cone_events", C.ConeEvents);
  });
  Json.raw("top_costs", JsonObject()
                            .raw("windows", WindowsJson)
                            .raw("cops", CopsJson)
                            .str());
}
