//===- analysis/StaticMhb.h - Static must-happen-before ----------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sound static must-happen-before relation over MiniRV programs, built
/// from fork/join structure and CFG dominance — including spawns and joins
/// issued by *non-main* threads and nested inside lock regions, which the
/// PR 3 interval analysis (main's top level only) cannot see.
///
/// The relation is carried by a tiny *milestone graph* with two nodes per
/// thread, begin(T) (its Begin event) and end(T) (its End event), and an
/// edge M1 -> M2 whenever the occurrence of M2 implies M1 already
/// occurred, in every execution:
///
///   begin(T) -> end(T)      a thread begins before it ends;
///   begin(C) -> begin(D)    C contains the unique spawn site of D;
///   end(A)   -> end(C)      a join of A dominates C's exit — C cannot
///                           finish without completing that join;
///   end(A)   -> begin(D)    a join of A dominates the unique spawn site
///                           of D in the same thread.
///
/// A statement pair (Ta, La) < (Tb, Lb) is then ordered when some
/// milestone M1 that every La-event precedes reaches (transitively) some
/// milestone M2 that every Lb-event follows:
///
///   a < end(Ta) always; a < begin(D) when Ta holds D's unique spawn site
///   and no node denoting La is reachable from it (the spawn's Fork event
///   fires at most once — re-spawns are runtime errors that emit nothing —
///   so every La occurrence precedes it);
///   begin(Tb) < b always; end(D) < b when some join(D) site dominates
///   every node denoting Lb (reaching b means the blocking join completed,
///   so D ended).
///
/// Everything is conservative in the "don't know = not ordered" direction:
/// duplicated spawn statements, lines absent from a thread's node map, or
/// sites only reachable through cycles all answer false. Soundness for the
/// pruner follows as in StaticPrune.h: the witnessing chain of
/// fork/begin/end/join events sits between the two accesses in the
/// recorded trace, so every window containing both also contains the
/// chain, and each technique's MHB closure orders the pair.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_ANALYSIS_STATICMHB_H
#define RVP_ANALYSIS_STATICMHB_H

#include "lang/Ast.h"

#include <cstdint>
#include <map>
#include <vector>

namespace rvp {

class StaticMhbAnalysis {
public:
  /// Builds the relation over \p P. The program must outlive the analysis.
  explicit StaticMhbAnalysis(const Program &P);

  /// Must every event of thread \p Ta at source line \p La happen before
  /// every event of thread \p Tb at line \p Lb? Unknown threads or lines
  /// answer false.
  bool orderedBefore(uint32_t Ta, uint32_t La, uint32_t Tb,
                     uint32_t Lb) const;

  /// Thread-level projection: must all of \p A finish before \p B begins?
  bool threadOrdered(uint32_t A, uint32_t B) const;

private:
  uint32_t beginOf(uint32_t T) const { return 2 * T; }
  uint32_t endOf(uint32_t T) const { return 2 * T + 1; }

  size_t NumThreads = 0;
  /// Transitive closure over the 2*NumThreads milestones, row-major;
  /// Reach[M1 * 2N + M2] means M1's event precedes M2's in every run.
  std::vector<bool> Reach;
  /// Per thread: line -> ids of reachable CFG nodes that may emit an
  /// event attributed to that line (statement line + owned expressions).
  std::vector<std::map<uint32_t, std::vector<uint32_t>>> LineNodes;
  /// Per spawned thread: owner thread and the bitset of owner-CFG nodes
  /// reachable from its unique spawn site (empty when no unique site).
  struct SpawnSite {
    uint32_t Owner = 0;
    bool Unique = false;
    std::vector<bool> ReachFromSite; ///< includes the site itself
  };
  std::vector<SpawnSite> SpawnOf; ///< indexed by spawned thread
  /// [Owner][Child]: owner-CFG nodes dominated by some `join Child` site
  /// (every Entry path to the node passes the join). Empty = none.
  std::vector<std::vector<std::vector<bool>>> JoinDominates;
};

} // namespace rvp

#endif // RVP_ANALYSIS_STATICMHB_H
