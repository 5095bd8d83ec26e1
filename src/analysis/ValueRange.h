//===- analysis/ValueRange.h - Interval value-range dataflow -----*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program interval analysis over MiniRV: every local and shared
/// variable gets a sound over-approximation of the values it may hold in
/// *any* execution under *any* interleaving. Two cooperating fixpoints:
///
///  * a flow-insensitive **global** round computes one interval per shared
///    base name — the join of its declared initializer with every value any
///    thread may assign to it, program-wide. Because it joins over all
///    writes regardless of order, it is sound for arbitrary interleavings;
///    arrays collapse to base-name granularity (one interval for all
///    cells), matching the rest of the static tier.
///  * a flow-sensitive **per-thread** pass runs the interval transfer
///    through the shared solveDataflow() worklist, with widening to +/-inf
///    once a node has been re-met more than WidenThreshold times, so loops
///    terminate on the infinite-height domain. Shared reads evaluate to the
///    global interval; locals flow through assignments precisely.
///
/// The rounds alternate until the shared intervals stabilise (shared
/// assignments may read locals whose ranges depend on shared reads).
///
/// The client-facing product is branch foldability: a *branch-emitting
/// site* (an `if`/`while`/`assert` condition, or an array access whose
/// index the compiler does not fold — see runtime/Compile.cpp) is
/// *statically determined* when the interval analysis proves its outcome
/// identical in every execution: the condition's interval excludes zero or
/// is exactly [0,0], or the index interval is a singleton. Such a branch
/// takes the recorded direction in every feasible reordering, so the
/// encoder's control-flow constraint for it is vacuous and can be folded
/// away (docs/STATIC_ANALYSIS.md). Queries are per (thread, source line)
/// and AND over every site the line may denote — the same conservative
/// granularity the trace's "L<line>" locations force on the pruner.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_ANALYSIS_VALUERANGE_H
#define RVP_ANALYSIS_VALUERANGE_H

#include "lang/Ast.h"

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rvp {

/// A closed integer interval [Lo, Hi] with +/-inf sentinels, plus bottom
/// (= "no value reaches here"). The lattice join is the interval hull.
struct Interval {
  static constexpr int64_t NegInf = std::numeric_limits<int64_t>::min();
  static constexpr int64_t PosInf = std::numeric_limits<int64_t>::max();

  int64_t Lo = 0;
  int64_t Hi = 0;
  bool Bottom = true;

  static Interval bottom() { return Interval{}; }
  static Interval top() { return range(NegInf, PosInf); }
  static Interval constant(int64_t V) { return range(V, V); }
  static Interval range(int64_t Lo, int64_t Hi) {
    Interval I;
    I.Lo = Lo;
    I.Hi = Hi;
    I.Bottom = false;
    return I;
  }

  bool isBottom() const { return Bottom; }
  bool isTop() const { return !Bottom && Lo == NegInf && Hi == PosInf; }
  bool isConstant() const { return !Bottom && Lo == Hi; }
  /// Interval definitely excludes zero (condition always true).
  bool excludesZero() const { return !Bottom && (Lo > 0 || Hi < 0); }
  /// Interval is exactly [0,0] (condition always false).
  bool isZero() const { return isConstant() && Lo == 0; }

  bool operator==(const Interval &O) const {
    return Bottom == O.Bottom && (Bottom || (Lo == O.Lo && Hi == O.Hi));
  }
  bool operator!=(const Interval &O) const { return !(*this == O); }

  /// Hull join; returns true when *this widened.
  bool joinWith(const Interval &O);
  /// Push any bound that moved relative to \p Old out to infinity.
  void widenAgainst(const Interval &Old);
};

/// Interval arithmetic used by the transfer functions (saturating — any
/// overflow risk answers the unbounded direction). Comparisons and logic
/// return [0,1], or the exact constant when the operands decide it.
Interval evalBinary(BinOp Op, const Interval &L, const Interval &R);
Interval evalUnary(UnOp Op, const Interval &V);

class ValueRangeAnalysis {
public:
  /// Re-meets per dataflow node before widening kicks in. Small enough to
  /// terminate fast, large enough that short counted loops (the catalog's
  /// are < 10 iterations) stay precise.
  static constexpr uint32_t WidenThreshold = 8;
  /// Global shared-interval rounds before forcing widening.
  static constexpr uint32_t MaxGlobalRounds = 12;

  /// Runs both fixpoints over \p P. The program must outlive the analysis.
  explicit ValueRangeAnalysis(const Program &P);

  /// Sound interval for shared base name \p Var across all executions;
  /// top for names the program never declares.
  Interval sharedRange(const std::string &Var) const;

  /// True when every read of shared \p Var can only observe one value
  /// (the initializer, and every write re-stores it).
  bool sharedSingleValued(const std::string &Var) const;

  /// True when every branch-emitting site that (thread, line) may denote
  /// is statically determined (see \file). Unknown lines answer false.
  bool branchConstantAt(uint32_t Thread, uint32_t Line) const;

  /// Total branch-emitting sites seen / proven constant (stats surface).
  uint64_t branchSites() const { return NumBranchSites; }
  uint64_t constantBranchSites() const { return NumConstantSites; }

private:
  struct SiteInfo {
    uint32_t Sites = 0;
    uint32_t Constant = 0;
  };

  void collectLocals(const ThreadDecl &T, std::set<std::string> &Locals);

  const Program &Prog;
  std::map<std::string, Interval> SharedIv;
  /// Per thread: line -> (branch sites at that line, sites proven
  /// constant). Foldable iff Sites > 0 and Sites == Constant.
  std::vector<std::map<uint32_t, SiteInfo>> BranchSiteByLine;
  uint64_t NumBranchSites = 0;
  uint64_t NumConstantSites = 0;
};

} // namespace rvp

#endif // RVP_ANALYSIS_VALUERANGE_H
