//===- detect/Detect.h - Predictive race detectors ---------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four detectors compared in the paper's evaluation, behind one entry
/// point:
///
///  * Technique::Hb      — Lamport happens-before [22].
///  * Technique::Cp      — causally-precedes (Smaragdakis et al.) [35].
///  * Technique::Said    — SMT with whole-trace read-write consistency
///                         (Said et al.) [30].
///  * Technique::Maximal — this paper: control-flow abstraction + minimal
///                         feasibility constraints; sound and maximal.
///
/// All techniques share the driver: fixed-size windows (Section 4), COP
/// enumeration, the hybrid quick-check filter and race-signature pruning
/// for the SMT-based ones, and per-COP solving budgets.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_DETECT_H
#define RVP_DETECT_DETECT_H

#include "detect/Cop.h"
#include "support/CostLedger.h"
#include "support/Telemetry.h"
#include "trace/Trace.h"
#include "trace/Window.h"

#include <span>
#include <string>
#include <vector>

namespace rvp {

enum class Technique : uint8_t { Hb, Cp, Said, Maximal };

const char *techniqueName(Technique Tech);

/// Which detection tiers run (docs/TIERS.md):
///  * Vc     — the linear-time WCP vector-clock detector alone; no
///             encoder, no solver. Weakly sound like HB and CP (the first
///             reported race is real; later ones may depend on it) and
///             not maximal.
///  * Smt    — the historical pipeline: static prune, signature,
///             quick check, SMT solve per residual COP.
///  * Hybrid — the default ladder: the WCP pass first prunes
///             MHB-ordered COPs and short-circuits WCP-provable races
///             past the solver; only the residue is encoded and solved.
///             Reports are byte-identical to Smt.
enum class DetectTier : uint8_t { Vc, Smt, Hybrid };

const char *tierName(DetectTier Tier);

/// Interface for sound static COP pruning (the analysis layer's
/// StaticPruneOracle implements it; the detectors only see this base so
/// rvp_detect does not depend on rvp_analysis).
///
/// Soundness obligation on implementations: prunable(T, A, B) may name a
/// rule only when NO technique could report the pair — i.e. when every
/// feasible reordering of any window containing both events keeps them
/// ordered or mutually excluded. The driver then skips the pair before
/// quick-check/encoding, and race reports are byte-identical with and
/// without the pruner.
class CopPruner {
public:
  /// The rule that proved a pair ordered (docs/STATIC_ANALYSIS.md): the
  /// threads' live intervals, a common must-held lock, or the static
  /// must-happen-before relation. None: the pair is not prunable.
  enum class Rule : uint8_t { None, Interval, Lockset, Mhb };

  virtual ~CopPruner() = default;
  /// \p A and \p B are the trace-ordered events of one COP.
  virtual Rule prunable(const Trace &T, EventId A, EventId B) const = 0;
};

/// Interface for static control-flow constant folding (the analysis
/// layer's StaticPruneOracle implements it via its value-range pass; the
/// encoder only sees this base so rvp_detect does not depend on
/// rvp_analysis).
///
/// Soundness obligation on implementations: foldableBranch(T, B) may
/// return true only when the branch event \p B takes the recorded
/// direction in *every* execution — its condition (or array index) is
/// statically a constant. The encoder then omits the cf read-consistency
/// guard for it: any model of the weakened formula still replays the
/// recorded control flow at that branch, so folded runs can only be more
/// maximal, never unsound. Witness encodes stay unfolded, keeping witness
/// orders byte-identical to unfolded runs.
class CfFoldOracle {
public:
  virtual ~CfFoldOracle() = default;
  /// \p Branch is a branch event of the bound trace.
  virtual bool foldableBranch(const Trace &T, EventId Branch) const = 0;
};

struct DetectorOptions {
  uint32_t WindowSize = DefaultWindowSize;
  /// Per-COP solver budget in seconds (Section 4 uses 60s).
  double PerCopBudgetSeconds = 60.0;
  /// Run the hybrid lockset + weak-HB quick check before building
  /// constraints (Section 4).
  bool UseQuickCheck = true;
  /// Use the `Oa := Ob` substitution instead of an explicit adjacency
  /// encoding (ablation knob; Section 4).
  bool SubstituteRaceVars = true;
  /// Extract, validate, and keep a witness order per reported race.
  bool CollectWitnesses = true;
  /// Sound static pruner consulted per COP before any other filter; null
  /// disables static pruning. Not owned; must outlive the detection run.
  const CopPruner *StaticPruner = nullptr;
  /// Static branch-constancy oracle: branches it proves data-independent
  /// lose their cf guards in the per-COP encodings (see CfFoldOracle).
  /// Null disables folding. Not owned; must outlive the detection run.
  const CfFoldOracle *CfFold = nullptr;
  /// Worker threads for the per-COP encode+solve loop of the SMT
  /// techniques. 1 (the default) runs the exact sequential code path; 0
  /// means one worker per hardware thread. Race reports are identical for
  /// every value — parallel windows pre-filter sequentially, solve
  /// independently, then collect results in COP order (see
  /// docs/OBSERVABILITY.md).
  uint32_t Jobs = 1;
  /// Escalating per-attempt solver budgets (`--retry-budgets`, parsed by
  /// parseBudgetList): an Unknown answer is retried at the next budget
  /// before the COP lands in the unknown section. Empty (the default)
  /// means a single attempt at PerCopBudgetSeconds — the exact historical
  /// behaviour. See docs/ROBUSTNESS.md.
  std::vector<double> RetryBudgets;
  /// Directory for per-window checkpoints (`--checkpoint`); empty
  /// disables them. A run restarted with the same flags and trace resumes
  /// after the last completed window. See docs/ROBUSTNESS.md.
  std::string CheckpointDir;
  /// Fingerprint guarding CheckpointDir (hash of trace + flags, computed
  /// by the front end via checkpointHash); snapshots with a different
  /// fingerprint are ignored.
  uint64_t CheckpointFingerprint = 0;
  /// Tier ladder (`--tier`, docs/TIERS.md). Hybrid (the default) runs the
  /// WCP vector-clock pass before the SMT stages; Smt is the historical
  /// solver-only pipeline; Vc is the vector-clock detector alone.
  DetectTier Tier = DetectTier::Hybrid;
};

/// One reported race (first COP found per signature).
struct RaceReport {
  RaceSignature Sig;
  EventId First = InvalidEvent;
  EventId Second = InvalidEvent;
  std::string LocFirst, LocSecond, Variable; ///< resolved display names
  /// Witness: the reordered window manifesting the race (Maximal only,
  /// when CollectWitnesses is set).
  std::vector<EventId> Witness;
  bool WitnessValid = false;
};

/// A pair the pipeline could not decide within every retry budget (or
/// whose solves kept failing under degradation). Soundness: these are
/// *maybe* races — they are reported in their own section, never merged
/// into the race list, so the race list stays sound under faults and
/// budget exhaustion (docs/ROBUSTNESS.md). The same struct serves the
/// atomicity and deadlock drivers, where First/Second are the defining
/// pair of the undecided candidate.
struct UnknownReport {
  EventId First = InvalidEvent;
  EventId Second = InvalidEvent;
  std::string LocFirst, LocSecond, Variable; ///< resolved display names
  /// Solve attempts spent before giving up.
  uint32_t Attempts = 1;
};

/// Everything one detection run counts, incremented once by the window
/// driver; every stats view reads it through statsFields()
/// (docs/OBSERVABILITY.md).
struct DetectionStats {
  uint64_t Windows = 0;
  uint64_t Cops = 0;
  /// Distinct signatures passing the quick check (Table 1's QC column).
  uint64_t QcPassed = 0;
  /// COPs skipped by DetectorOptions::StaticPruner before any dynamic
  /// filter ran (0 when no pruner is installed), and the ones of them its
  /// static must-happen-before rule pruned.
  uint64_t CopsPrunedStatic = 0, PrunedStaticMhb = 0;
  uint64_t SolverCalls = 0;
  uint64_t SolverTimeouts = 0;
  /// Extra solve attempts beyond each COP's first (the escalation ladder;
  /// 0 unless --retry-budgets is set and Unknowns occurred).
  uint64_t SolverRetries = 0;
  /// Incremental sessions quarantined and rebuilt (or dropped to one-shot
  /// solving) after corruption or a failed-query streak.
  uint64_t DegradedSessions = 0;
  /// Distinct signatures left undecided after all retry tiers — the
  /// entries of DetectionResult::Unknowns.
  uint64_t UnknownCops = 0;
  /// Races the WCP tier proved without a solver call (Vc tier reports;
  /// Hybrid short-circuits past the solver, Maximal only).
  uint64_t WcpRaces = 0;
  /// COPs the WCP tier pruned as MHB-ordered before signature/quick-check
  /// (Hybrid/Vc; a new prune stage ahead of the historical ones).
  uint64_t WcpPruned = 0;
  /// COPs the WCP tier could not decide — the residue that reached the
  /// signature/quick-check/SMT stages (Hybrid only).
  uint64_t WcpResidue = 0;
  /// Solver calls the Hybrid tier skipped because WCP already proved the
  /// COP racy (the `solver_calls_saved` JSON field).
  uint64_t WcpShortCircuits = 0;
  /// The quick check's passes and fails, signature-pruned candidates,
  /// discarded decided-ahead solves (jobs > 1), and windows a checkpoint
  /// covered.
  uint64_t QcHits = 0, QcMisses = 0, SignaturePruned = 0;
  uint64_t SpeculativeSolves = 0, ResumedWindows = 0;
  /// Decision-path encodes (decided-ahead ones included, witness encodes
  /// never) and the sums of their EncodeStats and formula sizes; the
  /// sizes are measured only while telemetry is enabled. GuardedFormulas
  /// counts the encodes whose query carries branch guards.
  uint64_t Formulas = 0, FormulaNodes = 0, DifferenceAtoms = 0;
  uint64_t BoolVars = 0, OrderVars = 0, GuardedFormulas = 0;
  uint64_t BranchConstraints = 0, ReadConsistency = 0, CfDefs = 0;
  uint64_t ConeEvents = 0, SlicedAtoms = 0, RangesFolded = 0;
  /// Witness solves, and findings whose witness solve was not Sat.
  uint64_t WitnessResolves = 0, WitnessFailures = 0;
  /// The summed SolveWork of every solve the run made: decisions,
  /// decided-ahead ones and witness solves. Not checkpointed: a resumed
  /// run counts only its own solves.
  uint64_t SatSearches = 0, SatSessionSearches = 0;
  uint64_t SatDecisions = 0, SatPropagations = 0, SatConflicts = 0;
  uint64_t SatRestarts = 0, SatAssumptionConflicts = 0;
  uint64_t IncrementalCalls = 0;
  /// Effective worker count used for per-COP solving (1 when the
  /// technique has no solver loop or the run was sequential).
  uint32_t Jobs = 1;
  double Seconds = 0;
  /// Registry + phase-tree snapshot, captured at the end of the run when
  /// telemetry is enabled (Telemetry::setEnabled); empty otherwise. See
  /// docs/OBSERVABILITY.md for the metric names and phase hierarchy.
  TelemetrySnapshot Telemetry;
  /// The K most expensive windows and COPs of the run (encode/solve/
  /// witness split, memory delta, attempts), populated only when telemetry
  /// is enabled; rendered as the `top-costs` section of --stats and the
  /// "top_costs" member of --stats-json. See docs/OBSERVABILITY.md.
  CostLedger TopCosts;
};

/// One counted DetectionStats field and every place it is reported.
struct StatsField {
  /// When the telemetry flush registers the counter (it relies on this
  /// order). A registered counter shows even at 0, so each rule keeps a
  /// counter absent from runs that never reach its code path.
  enum class Flush : uint8_t {
    Always,
    WcpTier, ///< the WCP tier ran (QueryPolicy::WcpTier)
    Encoded, ///< the run made a decision-path encode
    Guarded, ///< ... one whose query carries branch guards
    Searched, ///< the in-tree solver searched (SatSearches > 0)
    SessionSearched, ///< ... in a session (SatSessionSearches > 0)
    Nonzero,
  };

  uint64_t DetectionStats::*Member;
  const char *Counter; ///< registry counter, or null
  Flush When;
  /// Position among the checkpoint payload's counts (the `stats` line's
  /// 8, then the `tallies` line's 9; slot 12 is retired), or -1.
  int8_t Slot = -1;
  const char *JsonKey = nullptr; ///< top-level --stats-json key, or null
};

/// The counted fields, the ones with a JSON key first in JSON order.
std::span<const StatsField> statsFields();

/// Human-readable statistics: the classic one-line summary, followed (when
/// a telemetry snapshot was captured) by the phase tree, the counters, and
/// the latency histograms. \p What names the analysis ("RV", "Said",
/// "atomicity", ...).
std::string renderStatsTable(const DetectionStats &Stats, const char *What);

/// The same data as machine-readable JSON: one object with the Table-1
/// fields (windows, cops, qc_passed, solver_calls, solver_timeouts,
/// jobs, seconds) plus, when captured, "counters"/"gauges"/"histograms"
/// and the hierarchical "phases" tree. Schema in docs/OBSERVABILITY.md.
std::string statsToJson(const DetectionStats &Stats, const char *What);

struct DetectionResult {
  std::vector<RaceReport> Races;
  /// Maybe-races the solver never decided (one per signature, first COP
  /// seen); disjoint from Races. Empty in a healthy run with adequate
  /// budgets, so reports only grow this section when degradation happened.
  std::vector<UnknownReport> Unknowns;
  DetectionStats Stats;

  /// Distinct race signatures found (the paper's race counts).
  size_t raceCount() const { return Races.size(); }
  bool hasRaceAt(const std::string &LocA, const std::string &LocB) const;
};

/// Runs \p Tech over the whole trace.
DetectionResult detectRaces(const Trace &T, Technique Tech,
                            const DetectorOptions &Options =
                                DetectorOptions());

} // namespace rvp

#endif // RVP_DETECT_DETECT_H
