//===- detect/RaceEncoder.h - Race constraint encoding -----------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the first-order formulae of Section 3.2 for one trace window:
///
///   Φ = Φ_mhb ∧ Φ_lock ∧ Φ_race
///
/// over integer order variables O_e (one per event). Φ_race comes in two
/// flavours:
///
///  * encodeMaximalRace — the paper's technique: the adjacency of the COP
///    via the `Oa := Ob` substitution (Section 4) plus the control-flow
///    feasibility Φ^cf of both events. cf(e) definitions are emitted as
///    guarded boolean variables because their dependency graph (read →
///    matched write → that thread's earlier reads → ...) may be cyclic.
///
///  * encodeSaidRace — the Said et al. baseline: no control flow; instead
///    the *whole window* must stay read-write consistent (every read keeps
///    its original value).
///
/// Windowing: events before the window are fixed context; their only
/// influence is the initial value each variable has at window entry,
/// supplied by the caller.
///
/// The COP-invariant state (indices, Φ_mhb atoms, Φ_lock descriptors,
/// read-consistency skeletons) lives in a WindowEncoding built once per
/// window; every encode call builds its query directly from it. A const
/// RaceEncoder is safe to share across the parallel solve workers: encode
/// calls write nothing but the caller's FormulaBuilder, and their only
/// shared mutable state is the WindowEncoding's once-built read slots.
///
/// Every encode call assembles its query the same way: the query's own
/// part (control-flow guards, read-value formulas) over the substitution,
/// then Φ_mhb ∧ Φ_lock restricted to a cone of influence (docs/ENCODER.md),
/// then the query atoms. The cone is either computed — the events referenced
/// by the query's own part, the query events themselves, every cross-
/// thread MHB edge, and the endpoints of lock constraints one of whose
/// critical sections contains a cone event — or the whole window, meaning
/// every window event and every lock constraint. Per-thread program-order
/// chains are compressed to consecutive cone events, which over the whole
/// window is the full chain. The computed cone (the default) is
/// equisatisfiable with the whole window (the soundness proof lives in
/// docs/ENCODER.md), so detection decisions are unchanged. The proof's gap
/// placement is also how the window driver builds witnesses: it extends a
/// cone model to the whole window (placeByGaps in detect/WitnessChecker.h).
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_RACEENCODER_H
#define RVP_DETECT_RACEENCODER_H

#include "detect/Closure.h"
#include "detect/WindowEncoding.h"
#include "smt/Formula.h"
#include "trace/Trace.h"

#include <initializer_list>
#include <memory>
#include <unordered_map>
#include <vector>

namespace rvp {

class CfFoldOracle;

struct EncoderOptions {
  /// Use the `Oa := Ob` substitution (Section 4). When false, adjacency is
  /// encoded explicitly as `Oa < Ob` plus "no event between them", which
  /// is the naive encoding the ablation bench compares against.
  bool SubstituteRaceVars = true;
  /// Cone-of-influence slicing (docs/ENCODER.md): restrict Φ_mhb/Φ_lock
  /// to the events that can constrain the query. Off, the cone is the
  /// whole window: the reference the equivalence tests and the
  /// bench_constraints ablation compare against. The naive adjacency
  /// encoding references every window event, so its cone is the whole
  /// window either way.
  bool Slice = true;
  /// Static branch-constancy oracle (detect/Detect.h): a guarding branch
  /// it proves data-independent needs no cf constraint — the guard set
  /// walks back to the last *non*-foldable branch of each thread, which
  /// still covers every earlier one (cf is monotone along a thread).
  /// Shrinks the cone before construction; null (the default) folds
  /// nothing. Not owned; must outlive the encoder.
  const CfFoldOracle *Fold = nullptr;
};

/// The cone of influence of one query: the window events whose order
/// variables the encoding references, plus the indices of the active
/// LockConstraints. With EncoderOptions::Slice off (and under the naive
/// adjacency encoding) the cone is the whole window.
struct ConeInfo {
  std::vector<EventId> Events;       ///< ascending
  std::vector<uint32_t> ActiveLocks; ///< LockConstraint indices, ascending
  /// The race pair the `Oa := Ob` substitution merged onto one order
  /// variable (MergedFirst has none of its own), or InvalidEvent twice:
  /// gap placement puts MergedFirst right before MergedSecond.
  EventId MergedFirst = InvalidEvent;
  EventId MergedSecond = InvalidEvent;
};

/// What one encode call did, added into the stats the caller passes: the
/// encoder's only output besides the formula. Every call counts, whatever
/// its cone; the window driver folds the decision-path calls into the
/// run's DetectionStats (docs/OBSERVABILITY.md).
struct EncodeStats {
  uint64_t ConeEvents = 0;        ///< window events in the cone of influence
  uint64_t SlicedAtoms = 0;       ///< Φ_mhb/Φ_lock atoms actually emitted
  uint64_t BranchConstraints = 0; ///< branch-guard conjuncts emitted
  uint64_t ReadConsistency = 0;   ///< read-value formulas built
  uint64_t CfDefs = 0;            ///< cf variable definitions emitted
  uint64_t RangesFolded = 0;      ///< guards EncoderOptions::Fold dropped
  bool Guarded = false;           ///< branch guards built (all but Said)
  /// When set, receives the query's cone (the witness path extends a
  /// model over it to the whole window).
  ConeInfo *Cone = nullptr;
};

class RaceEncoder {
public:
  /// Builds a fresh WindowEncoding for the window. \p InitialValues gives
  /// each variable's value at window entry (index by VarId; missing
  /// entries default to 0). \p Mhb must be the MHB closure
  /// (ClosureConfig::mhb()) of the same window.
  RaceEncoder(const Trace &T, Span S, const EventClosure &Mhb,
              const std::vector<Value> &InitialValues,
              EncoderOptions Options = EncoderOptions());

  /// Shares an existing WindowEncoding (one per window, many encoders or
  /// many concurrent encode calls).
  explicit RaceEncoder(std::shared_ptr<const WindowEncoding> Encoding,
                       EncoderOptions Options = EncoderOptions());

  const WindowEncoding &windowEncoding() const { return *Enc; }
  std::shared_ptr<const WindowEncoding> sharedWindowEncoding() const {
    return Enc;
  }

  /// Φ for "COP (A,B) is a race" under the maximal technique.
  NodeRef encodeMaximalRace(FormulaBuilder &FB, EventId A, EventId B,
                            EncodeStats *Stats = nullptr) const;

  /// Φ for "COP (A,B) is a race" under Said et al.'s whole-trace
  /// read-write consistency.
  NodeRef encodeSaidRace(FormulaBuilder &FB, EventId A, EventId B,
                         EncodeStats *Stats = nullptr) const;

  /// Φ for "\p B can execute strictly between \p A1 and \p A2" with all
  /// three events control-flow feasible — the atomicity-violation query
  /// (see detect/Atomicity.h). No substitution: the between condition is
  /// the two atoms `O_A1 < O_B < O_A2`.
  NodeRef encodeBetween(FormulaBuilder &FB, EventId A1, EventId B,
                        EventId A2, EncodeStats *Stats = nullptr) const;

  /// Φ for a hold-and-wait deadlock between two lock-dependency chains
  /// (see detect/Deadlock.h): \p ReqA requests the lock of the section
  /// [OutB.AcquireId, OutB.ReleaseId) while that section is active, and
  /// symmetrically for \p ReqB and OutA. The critical sections of the two
  /// requests themselves are excluded from the mutual-exclusion
  /// constraints — in the deadlocked prefix they never start.
  NodeRef encodeDeadlock(FormulaBuilder &FB, EventId ReqA, EventId ReqB,
                         const LockPair &OutA, const LockPair &OutB,
                         EncodeStats *Stats = nullptr) const;

  /// The cone of COP (A,B) under the maximal-race encoding. Exposed for
  /// tests; computed by running the real encoding into a scratch builder
  /// so it can never diverge from what encodeMaximalRace emits.
  ConeInfo coneOf(EventId A, EventId B) const;

  /// The whole window's Φ_mhb and Φ_lock without substitution, for the
  /// Figure 5 pretty-printer.
  NodeRef encodeMhb(FormulaBuilder &FB) const;
  NodeRef encodeLock(FormulaBuilder &FB) const;

  /// The last branch event of each thread that must happen before \p E
  /// (the set B_e of Section 3.2), in ascending order. \p Folded, when
  /// set, is increased by the branches EncoderOptions::Fold dropped.
  std::vector<EventId> guardingBranches(EventId E,
                                        uint64_t *Folded = nullptr) const;

private:
  struct Subst {
    EventId A = InvalidEvent;
    EventId B = InvalidEvent;
    OrderVar operator()(EventId E) const { return E == A ? B : E; }
  };

  /// Cone-of-influence accumulator for one encode call (defined in the
  /// .cpp).
  struct Cone;

  /// Shared builder state for one encode call. Every event whose order or
  /// feasibility variable the query's own part references is recorded
  /// into the cone as a side effect of emission, so the computed cone is
  /// the referenced-variable set by construction.
  struct CfState {
    FormulaBuilder &FB;
    Subst S;
    Cone &C;
    EncodeStats &Stats;
    std::vector<NodeRef> Defs;
    std::unordered_map<EventId, uint32_t> VarOf;
    std::vector<EventId> Worklist;
  };

  NodeRef cfVar(CfState &St, EventId E) const;
  void emitCfDefs(CfState &St) const;
  /// Read-value consistency disjunction for read \p R; with \p Guarded the
  /// matched write's own feasibility variable is included (maximal mode).
  NodeRef readValueFormula(CfState &St, EventId R, bool Guarded) const;
  NodeRef branchGuards(CfState &St, EventId E) const;
  NodeRef adjacency(FormulaBuilder &FB, EventId A, EventId B) const;
  /// Atom `S(X) < S(Y)` that also records X and Y into the cone.
  NodeRef atomS(CfState &St, EventId X, EventId Y) const;

  /// The one query-assembly path behind every encode method: seeds the
  /// cone with \p Anchors, emits the query's own part through \p Own
  /// (guards, read-value formulas) and the cf definitions it references,
  /// closes the cone — or takes the whole window (Slice off, or the naive
  /// adjacency encoding) — and conjoins the cone's Φ_mhb ∧ Φ_lock (minus
  /// \p ExcludedAcquires' sections) and the query atoms \p Atoms.
  template <typename OwnPart>
  NodeRef assemble(FormulaBuilder &FB, Subst S,
                   std::initializer_list<EventId> Anchors,
                   std::initializer_list<std::pair<EventId, EventId>> Atoms,
                   const std::vector<EventId> &ExcludedAcquires,
                   EncodeStats *Stats, OwnPart Own) const;

  /// Emits the closed cone's Φ_mhb ∧ Φ_lock under substitution \p S:
  /// compressed per-thread chains, cross edges, then the active lock
  /// constraints minus \p ExcludedAcquires' sections.
  NodeRef emitMhbLock(FormulaBuilder &FB, const Cone &C, Subst S,
                      const std::vector<EventId> &ExcludedAcquires,
                      EncodeStats &Stats) const;

  std::shared_ptr<const WindowEncoding> Enc;
  const Trace &T;
  Span Window;
  const EventClosure &Mhb;
  EncoderOptions Options;
};

} // namespace rvp

#endif // RVP_DETECT_RACEENCODER_H
