//===- detect/WindowDriver.h - One window loop, many policies -*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The window driver behind detectRaces, detectAtomicityViolations,
/// detectDeadlocks and the streaming sessions of rvpredictd. Section 2.5's
/// point is that the maximal causal model does the work and each property
/// is only a different query atom, so the driver owns everything the
/// properties share:
///
///  * the window session (Section 4): one window per analyze() call, with
///    the running variable values and everything else a run accumulates;
///    runWindowDriver adds the batch loop, the checkpoint directory, the
///    per-window checkpoint and the `detect.abort` kill point;
///  * the one checkpoint payload (docs/ROBUSTNESS.md), built or restored
///    only when a caller asks;
///  * signature pruning, the unknown section and its supersede rule;
///  * solving through a per-window SolveHost (per worker with jobs > 1)
///    and the witness path (a sliced one-shot solve whose cone model gap
///    placement extends to the window);
///  * the window/cop/solve trace events, the phase tree, the cost ledger,
///    the Perfetto counters and the one telemetry flush at finish().
///
/// A QueryPolicy supplies the property: it enumerates a window's
/// candidates (each with its signature and its signature-independent
/// reject stage), encodes one candidate's query, checks its witness,
/// builds the finding and renders it.
///
/// Candidates are collected in enumeration order, which makes every
/// output independent of --jobs: with one job each candidate is decided
/// on demand inside the collect loop (no speculative solve); with more,
/// the candidates that survive the window-start filters are decided in
/// parallel first and the collect loop discards the ones an earlier
/// finding of the same window made redundant.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_WINDOWDRIVER_H
#define RVP_DETECT_WINDOWDRIVER_H

#include "detect/Closure.h"
#include "detect/Detect.h"
#include "detect/RaceEncoder.h"
#include "detect/Report.h"

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rvp {

/// One query of a window.
struct Candidate {
  enum class Verdict : uint8_t {
    Solve,        ///< decided by the solver
    ShortCircuit, ///< the WCP tier proved it racy; the solver only
                  ///< derives the witness (hybrid tier)
    Racy,         ///< a happens-before relation left it unordered
    WcpRacy,      ///< the WCP relation left it unordered (vc tier)
    Ordered,      ///< a relation ordered it
  };

  /// The defining pair, named in unknown entries, trace events and the
  /// cost ledger: a race's COP, an atomicity candidate's first local
  /// access and remote intruder, a deadlock's two lock requests.
  EventId First = InvalidEvent;
  EventId Second = InvalidEvent;
  /// Same signature, same finding: once one is reported, later
  /// candidates with its signature are pruned.
  uint64_t Sig = 0;
  /// Index into the policy's own per-window candidate storage.
  uint32_t Index = 0;
  /// Prune stage that rejects the candidate before the signature check
  /// ("static-prune", "wcp"), or null.
  const char *PreReject = nullptr;
  /// Prune stage that rejects it after the signature check ("wcp",
  /// "lockset", "quick-check"), or null.
  const char *Reject = nullptr;
  /// The quick check passed (tallied even when it does not filter).
  bool QcPass = true;
  Verdict How = Verdict::Solve;
  /// --check-tiers: WCP calls the pair racy; an Unsat solve is a mismatch.
  bool WcpClaimsRace = false;
};

/// The per-window state a policy enumerates and encodes against. The MHB
/// closure and the encoder are built on first use, always on the main
/// thread: the driver builds both before any parallel decision.
class WindowContext {
public:
  WindowContext(const Trace &T, Span Window, const std::vector<Value> &Values,
                const EncoderOptions &EncOpts, bool Degraded)
      : Window(Window), Values(Values), Degraded(Degraded), T(T),
        EncOpts(EncOpts) {}

  const Span Window;
  /// Variable values at window entry.
  const std::vector<Value> &Values;
  /// Load shedding: answer this window from the vc tier (docs/TIERS.md).
  /// Only the race policy's solver techniques honor it.
  const bool Degraded;

  /// The window's MHB closure ("closure" phase on first use).
  const EventClosure &mhb();
  /// The sliced decision-path encoder ("encode" phase on first use).
  const RaceEncoder &encoder();

private:
  const Trace &T;
  EncoderOptions EncOpts;
  std::optional<EventClosure> Mhb;
  std::unique_ptr<RaceEncoder> Encoder;
};

/// Everything one run accumulates besides the findings.
struct DriverOutput {
  std::vector<UnknownReport> Unknowns;
  DetectionStats Stats;
};

/// The property-specific half of detection.
class QueryPolicy {
public:
  virtual ~QueryPolicy() = default;

  /// Enumerates \p W's candidates in report order.
  virtual void enumerate(WindowContext &W, std::vector<Candidate> &Out) = 0;
  /// \p C's query formula, against the decision-path encoder or the
  /// witness encoder; fills \p Stats (may be null) including its cone.
  /// Must be safe to call concurrently.
  virtual NodeRef encode(const RaceEncoder &Encoder, FormulaBuilder &FB,
                         const Candidate &C, EncodeStats *Stats) const = 0;
  /// Validates \p Order as \p C's witness. Concurrency-safe like encode.
  virtual bool checkWitness(WindowContext &W, const Candidate &C,
                            const std::vector<EventId> &Order) const = 0;
  /// Records \p C as a finding.
  virtual void report(const Candidate &C, std::vector<EventId> Witness,
                      bool WitnessValid) = 0;
  virtual size_t numFindings() const = 0;
  /// The checkpoint line of finding \p I (see findingLine).
  virtual std::string checkpointLine(size_t I) const = 0;
  /// Replaces every finding with the ones \p Lines (checkpointLine()s)
  /// describe. All-or-nothing: false leaves the findings as they were.
  virtual bool restoreFindings(const std::vector<std::string> &Lines) = 0;
  /// Finding \p I as one report line (a streamed window's delta).
  virtual std::string renderFinding(size_t I,
                                    const ReportRenderOptions &Opts) const = 0;
  /// The whole report over every finding plus \p Out. Moves the findings
  /// out, so it is the policy's last call.
  virtual std::string renderReport(DriverOutput Out,
                                   const ReportRenderOptions &Opts) = 0;

  /// Outer phase name ("detect", "atomicity", "deadlock").
  const char *Phase = "detect";
  /// Counter the flush reports numFindings() under.
  const char *FindingsCounter = "detect.races";
  /// Candidates reach the solver (pool, hosts and Stats.Jobs apply).
  bool Solves = true;
  /// The WCP tier runs, so its counters are flushed.
  bool WcpTier = false;
  /// Solver-bound candidates are the WCP tier's residue.
  bool WcpResidue = false;
  /// Solved findings get a witness (with DetectorOptions::CollectWitnesses).
  bool WitnessOnSat = true;
  /// qc_passed counts distinct signatures past the quick check (Table 1)
  /// instead of solver-bound candidates.
  bool QcBySignature = false;
  /// Under the `Oa := Ob` substitution (Encoding.SubstituteRaceVars)
  /// First has no order variable of its own: the witness places it right
  /// before Second.
  bool FirstLeadsSecond = false;
  /// Decision-path encoder options; witness encodes are always sliced and
  /// never folded. Encoding.Slice off is the whole-window reference the
  /// equivalence tests compare the default against.
  EncoderOptions Encoding;
};

/// A finding's checkpoint line: "<tag> <event>... <witness-valid>
/// <witness event>...". Policies store only event ids and re-derive the
/// rest from the trace on restore.
std::string findingLine(const char *Tag,
                        std::initializer_list<EventId> Events,
                        bool WitnessValid,
                        const std::vector<EventId> &Witness);

/// Inverse of findingLine for \p NumEvents leading events; false on a
/// different tag or any malformed or out-of-range field.
bool parseFindingLine(const Trace &T, std::string_view Line, const char *Tag,
                      size_t NumEvents, std::vector<EventId> &Events,
                      bool &WitnessValid, std::vector<EventId> &Witness);

/// One run of a policy, one window per analyze() call: the resumable
/// session behind runWindowDriver and every streaming session. The trace
/// may grow between calls (a streamed session appends each line it reads
/// and finalizes again); event ids and interning are prefix-stable, so
/// analyzed windows never change.
class WindowDriver {
public:
  /// \p T, \p Options and \p Policy must outlive the driver.
  WindowDriver(const Trace &T, const DetectorOptions &Options,
               QueryPolicy &Policy);
  ~WindowDriver();

  /// Analyzes \p Window, the one after the output().Stats.Windows ones.
  /// \p Degraded answers it from the vc tier (WindowContext::Degraded).
  void analyze(Span Window, bool Degraded = false);

  /// What the run has accumulated so far; Stats.Windows counts resumed
  /// windows too.
  const DriverOutput &output() const;

  /// The checkpoint payload of everything accumulated so far.
  std::string saveState() const;
  /// Replaces the accumulated state with \p Payload's (a saveState() over
  /// a prefix of the trace); its windows count as detect.resumed_windows.
  /// All-or-nothing: a malformed or out-of-range field changes nothing.
  bool resume(const std::string &Payload);

  /// Ends the run: flushes its counters into the registry once, captures
  /// the telemetry snapshot, and hands over everything but the findings.
  DriverOutput finish();

private:
  class Impl;
  std::unique_ptr<Impl> P;
};

/// Runs \p Policy over every window of \p T, resuming from and saving to
/// Options.CheckpointDir when set.
DriverOutput runWindowDriver(const Trace &T, const DetectorOptions &Options,
                             QueryPolicy &Policy);

/// The three policies, for a streaming session's run-time choice.
std::unique_ptr<QueryPolicy> makeRacePolicy(const Trace &T, Technique Tech,
                                            const DetectorOptions &Options);
std::unique_ptr<QueryPolicy>
makeAtomicityPolicy(const Trace &T, const DetectorOptions &Options);
std::unique_ptr<QueryPolicy> makeDeadlockPolicy(const Trace &T,
                                                const DetectorOptions &Options);

} // namespace rvp

#endif // RVP_DETECT_WINDOWDRIVER_H
