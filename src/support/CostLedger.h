//===- support/CostLedger.h - Per-COP / per-window cost ledger ---*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Attribution ledger behind the `top-costs` section of `--stats`
/// (docs/OBSERVABILITY.md): the detection driver records the encode / solve /
/// witness split, formula-memory delta, and retry count of every COP it
/// processes, plus per-window totals, and the ledger keeps the K most
/// expensive of each under a bounded retention cap. That answers the
/// question the flat phase tree cannot — *which* windows and COPs burn the
/// time — in both the human table and the stats JSON.
///
/// The driver only records from sequential contexts (the sequential COP
/// loop and the ordered collection phase of the parallel path), so the
/// ledger needs no locking.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_COSTLEDGER_H
#define RVP_SUPPORT_COSTLEDGER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rvp {

class JsonObject;

/// Record of one processed COP: the window driver builds one per decided
/// COP and renders both its `cop` trace event and its ledger entry from
/// it.
struct CopCost {
  size_t Window = 0;
  uint64_t First = 0, Second = 0; ///< event ids of the defining pair
  std::string LocFirst;
  std::string LocSecond;
  std::string Variable;
  std::string Outcome;
  /// Prune stage that decided the COP ("none" for a finding).
  std::string Stage;
  /// Went through the solver; the formula size below is set only then
  /// (and only while telemetry is enabled).
  bool Solved = false;
  uint64_t FormulaNodes = 0, DifferenceAtoms = 0, BoolVars = 0, OrderVars = 0;
  double EncodeSeconds = 0;
  double SolveSeconds = 0;
  double WitnessSeconds = 0;
  uint64_t MemDeltaBytes = 0;
  unsigned Attempts = 0;
  /// Cone-of-influence size of the decision-path encoding
  /// (docs/ENCODER.md); 0 when nothing was encoded.
  uint64_t ConeEvents = 0;

  double totalSeconds() const {
    return EncodeSeconds + SolveSeconds + WitnessSeconds;
  }
};

/// Record of one processed window, rendered as its `window` trace event
/// and its ledger entry.
struct WindowCost {
  size_t Index = 0;
  uint64_t Begin = 0, End = 0; ///< event range [Begin, End)
  size_t Cops = 0;
  size_t Solves = 0;
  double Seconds = 0;
};

/// Bounded collector for the records above. Retention: once more than
/// 4 * K records of a kind accumulate, the cheapest are dropped so a long
/// run holds O(K) entries per kind, while topCops()/topWindows() stay
/// exact for the K most expensive.
class CostLedger {
public:
  explicit CostLedger(size_t TopK = 10) : TopK(TopK ? TopK : 1) {}

  void recordCop(CopCost Cost);
  void recordWindow(WindowCost Cost);

  /// The K most expensive COPs, most expensive first. Ties break by
  /// (window, loc_first, loc_second) so output is deterministic across
  /// `--jobs` settings.
  std::vector<CopCost> topCops() const;

  /// The K most expensive windows, most expensive first; ties break by
  /// window index.
  std::vector<WindowCost> topWindows() const;

  /// Human-readable `top-costs:` section for the stats table. Empty string
  /// when nothing was recorded.
  std::string renderTable() const;

  /// Adds a "top_costs" member to \p Json:
  /// {"windows":[{index,cops,solves,seconds}...],
  ///  "cops":[{window,first,second,variable,outcome,encode_seconds,
  ///           solve_seconds,witness_seconds,total_seconds,
  ///           mem_delta_bytes,attempts,cone_events}...]}.
  void addToJson(JsonObject &Json) const;

private:
  size_t TopK;
  std::vector<CopCost> Cops;
  std::vector<WindowCost> Windows;
};

} // namespace rvp

#endif // RVP_SUPPORT_COSTLEDGER_H
