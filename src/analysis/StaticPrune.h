//===- analysis/StaticPrune.h - Sound static COP pruning ---------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// StaticPruneOracle: the CopPruner implementation that lets the dynamic
/// detectors skip conflicting operation pairs the *program text* already
/// proves race-free. A pair is prunable when any stage fires; prunable()
/// names the first that does (CopPruner::Rule), and the window driver
/// counts it:
///
///  1. the two accesses can never overlap in time — their threads' live
///     intervals (top-level spawn/join in main) are disjoint, or the main
///     access sits entirely before the spawn / after the join of the other
///     thread. Every window containing both events also contains the
///     end/join/fork/begin chain between them, so MHB orders the pair in
///     every technique; or
///
///  2. both accesses *must* hold a common lock (static must-lockset at
///     every program point the event's source line may denote). The trace
///     then places the two critical sections back to back inside the
///     window; HB and CP derive the release->acquire edge, and the SMT
///     encodings' mutual-exclusion constraints (with boundary critical
///     sections closed to the window edges) make the race formula unsat;
///     or
///
///  3. the static must-happen-before relation (analysis/StaticMhb.h)
///     orders the statement pair in every execution — this catches
///     spawn/join issued away from main's top level, which stage 1's
///     interval analysis cannot see. The witnessing fork/begin/end/join
///     chain again sits inside every window containing both events.
///
/// The oracle is also the detectors' CfFoldOracle: its value-range pass
/// (analysis/ValueRange.h) proves branch events whose condition or index
/// is a compile-time constant under every interleaving, and the encoder
/// folds their cf guards away (detect/RaceEncoder.h).
///
/// All conditions are one-sided: any missing information — unknown trace
/// location, thread not in the program, line absent from the per-thread
/// maps — answers "not prunable" / "not foldable". Race reports with the
/// oracle installed are byte-identical to runs without it
/// (tests/PruneGolden.cmake).
///
//===----------------------------------------------------------------------===//

#ifndef RVP_ANALYSIS_STATICPRUNE_H
#define RVP_ANALYSIS_STATICPRUNE_H

#include "analysis/StaticMhb.h"
#include "analysis/ThreadEscape.h"
#include "analysis/ValueRange.h"
#include "detect/Detect.h"
#include "lang/Ast.h"

#include <cstdint>
#include <map>
#include <vector>

namespace rvp {

class StaticPruneOracle : public CopPruner, public CfFoldOracle {
public:
  /// Runs the static analyses over \p P. The program must outlive the
  /// oracle.
  explicit StaticPruneOracle(const Program &P);

  /// Binds the oracle to the trace it will be queried against: resolves
  /// the trace's "L<line>" location names once. Queries against any other
  /// trace conservatively answer false.
  void bind(const Trace &T);

  Rule prunable(const Trace &T, EventId A, EventId B) const override;

  /// CfFoldOracle: branch events whose every site at (thread, line) the
  /// value-range pass proves statically determined.
  bool foldableBranch(const Trace &T, EventId Branch) const override;

  /// Shared declarations proven never concurrently accessed (the
  /// `analysis.vars_thread_local` gauge).
  uint64_t threadLocalVars() const { return Escape.threadLocalDeclCount(); }

  const ThreadEscapeAnalysis &escape() const { return Escape; }

private:
  /// Must-held lock bitmask for one event of (thread, line), intersected
  /// over every CFG node that line may denote. At most 64 locks are
  /// tracked; programs with more prune less (never unsoundly more).
  uint64_t mustLocksAt(uint32_t Thread, uint32_t Line) const;
  /// Source line of event \p E in the bound trace, 0 when unknown.
  uint32_t lineOf(const Event &E) const;

  ThreadEscapeAnalysis Escape;
  StaticMhbAnalysis Mhb;
  ValueRangeAnalysis Ranges;
  size_t NumThreads;
  /// Per program thread: line -> AND of must-held lock masks of all nodes
  /// registering that line. Lines never seen by a thread are absent
  /// (= no information = empty mask).
  std::vector<std::map<uint32_t, uint64_t>> MustLockByLine;

  const Trace *Bound = nullptr;
  /// LocId -> source line (0 = unparsable/unknown), for the bound trace.
  std::vector<uint32_t> LocLine;
};

} // namespace rvp

#endif // RVP_ANALYSIS_STATICPRUNE_H
