//===- workloads/Synthetic.h - Synthetic real-system traces ------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized trace generators standing in for the paper's seven real
/// systems (FTPServer, Jigsaw, Derby, Sunflow, Xalan, Lusearch, Eclipse),
/// whose executions we cannot reproduce here. Each generator emits a
/// consistent recorded trace containing a controlled number of race
/// *pattern instances* of each detectability class:
///
///   plain      — unordered, unprotected: found by HB/CP/Said/RV.
///   cpOnly     — HB lock edge between non-conflicting critical sections:
///                missed by HB, found by CP/Said/RV.
///   saidOnly   — like cpOnly but the sections conflict: missed by HB/CP,
///                found by Said/RV.
///   hbNotSaid  — a later read's value puts an unsynchronized flag
///                write and read between the pair: found by HB/CP/RV,
///                missed by Said (the ftpserver phenomenon the paper
///                describes). All of them share one flag, whose own pair
///                races for every technique (`flag` below: 1 when there
///                is any hbNotSaid race, else 0).
///   rvOnly     — Figure-1-shaped: a value read under a lock with no
///                control-flow dependence: found only by RV.
///   qcOnly     — the Section 4 array pattern: passes the quick check but
///                is not a race (solver refutes it).
///   ordered    — lock-protected conflicting pairs: filtered by lockset.
///
/// Expected counts per technique follow directly:
///   HB   = plain + flag + hbNotSaid
///   CP   = HB + cpOnly
///   Said = plain + flag + cpOnly + saidOnly
///   RV   = plain + flag + cpOnly + saidOnly + hbNotSaid + rvOnly
///   QC   = RV + qcOnly
///
/// Pattern instances are interleaved in clusters padded away from window
/// boundaries, so the expected counts are exact under the default
/// windowing. Filler traffic (thread-private reads/writes/branches and
/// lock activity) brings each trace to its target size and event mix.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_WORKLOADS_SYNTHETIC_H
#define RVP_WORKLOADS_SYNTHETIC_H

#include "trace/Trace.h"
#include "trace/Window.h"

#include <string>
#include <vector>

namespace rvp {

struct SyntheticSpec {
  std::string Name = "synthetic";
  uint32_t Workers = 8;
  uint64_t TargetEvents = 20000;
  uint32_t PlainRaces = 0;
  uint32_t CpOnlyRaces = 0;
  uint32_t SaidOnlyRaces = 0;
  uint32_t HbNotSaidRaces = 0;
  uint32_t RvOnlyRaces = 0;
  uint32_t QcOnlyPairs = 0;
  uint32_t OrderedPairs = 0;
  /// Atomicity-violation patterns (a locked read-modify-write intruded by
  /// an unlocked remote write). NOTE: each instance also contributes two
  /// plain race signatures; the Table 1 specs therefore leave this at 0.
  uint32_t AtomicityPairs = 0;
  /// Opposite-order lock nestings (one predicted deadlock each; no races).
  uint32_t DeadlockCycles = 0;
  /// Percent of filler events that are branches / lock operations.
  uint32_t BranchPercent = 30;
  uint32_t SyncPercent = 14;
  /// Clusters of patterns are padded away from multiples of this window
  /// size so no pattern straddles a boundary.
  uint32_t AlignWindow = DefaultWindowSize;
  /// When nonzero, up to this much filler is inserted between consecutive
  /// events of a pattern, stretching each race across a wide span (used by
  /// the window-size ablation to make boundary losses visible).
  uint32_t PatternSpread = 0;
  uint64_t Seed = 1;

  /// Races every technique reports: plain pairs, the hbNotSaid flag
  /// pair, and two per atomicity pattern.
  uint32_t expectedCommon() const {
    return PlainRaces + (HbNotSaidRaces > 0 ? 1 : 0) + 2 * AtomicityPairs;
  }
  uint32_t expectedHb() const { return expectedCommon() + HbNotSaidRaces; }
  uint32_t expectedCp() const { return expectedHb() + CpOnlyRaces; }
  uint32_t expectedSaid() const {
    return expectedCommon() + CpOnlyRaces + SaidOnlyRaces;
  }
  uint32_t expectedRv() const {
    return expectedCommon() + CpOnlyRaces + SaidOnlyRaces + HbNotSaidRaces +
           RvOnlyRaces;
  }
  uint32_t expectedQc() const {
    return expectedRv() + QcOnlyPairs + 2 * AtomicityPairs;
  }
  uint32_t expectedAtomicity() const { return AtomicityPairs; }
  uint32_t expectedDeadlocks() const { return DeadlockCycles; }
};

/// Generates the trace for \p Spec (strictly consistent).
Trace generateSynthetic(const SyntheticSpec &Spec);

/// The seven real-system rows of Table 1, with pattern counts calibrated
/// to the paper's per-technique race counts (see EXPERIMENTS.md).
std::vector<SyntheticSpec> realSystemSpecs();

/// Looks up one real-system spec by name ("ftpserver", "jigsaw", "derby",
/// "sunflow", "xalan", "lusearch", "eclipse"); returns the default spec
/// when unknown.
SyntheticSpec realSystemSpec(const std::string &Name);

} // namespace rvp

#endif // RVP_WORKLOADS_SYNTHETIC_H
