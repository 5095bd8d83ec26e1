//===- detect/Resilience.h - Budget escalation & degradation -----*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The degradation policy shared by the race, atomicity, and deadlock
/// drivers (docs/ROBUSTNESS.md). A SolveHost owns everything that can go
/// wrong between "formula encoded" and "COP decided":
///
///  * budget escalation — an Unknown answer is retried through the
///    `--retry-budgets` ladder before the COP is given up;
///  * session quarantine — a poisoned incremental session (failed
///    clause-database allocation, backend exception, injected
///    `session.corrupt`) or a long streak of failed queries gets the
///    session quarantined and rebuilt once; a second quarantine drops the
///    host to one-shot fresh-solver queries for the rest of the window;
///  * backend fallback — when the named backend's factory reports
///    unavailable (no Z3 in the build, or the injected `z3.unavailable`
///    outage), the host silently falls back to the in-tree idl solver.
///
/// Soundness: the host only ever *repeats* a query against an equivalent
/// solver; it never invents an answer. A COP that stays Unknown after the
/// whole ladder is reported in the `unknown` section, never as a race.
///
/// With an empty ladder (the default) and no faults, decide() performs
/// exactly one attempt at the base budget — byte-identical behaviour to a
/// pipeline without this layer.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_RESILIENCE_H
#define RVP_DETECT_RESILIENCE_H

#include "smt/Solver.h"

#include <memory>
#include <string>
#include <vector>

namespace rvp {

/// Parses a `--retry-budgets` list ("50ms,250ms,1s") into seconds.
/// Accepted suffixes: us, ms, s (bare numbers mean seconds). Returns false
/// and fills \p Error on malformed input; an empty spec yields an empty
/// ladder (single attempt at the base budget).
bool parseBudgetList(const std::string &Spec, std::vector<double> &Out,
                     std::string &Error);

/// What the resilience layer had to do, accumulated per host and summed by
/// the drivers into DetectionStats (and from there into the telemetry
/// registry; see docs/OBSERVABILITY.md). The window driver also turns each
/// decision's delta into Perfetto instants.
struct ResilienceStats {
  /// Extra solve attempts beyond each COP's first (solver.retries).
  uint64_t Retries = 0;
  /// Sessions quarantined for corruption or failed-query streaks
  /// (solver.degraded_sessions).
  uint64_t DegradedSessions = 0;
  /// Backend factory failures absorbed by falling back to idl.
  uint64_t BackendFallbacks = 0;
};

/// One host per window (per worker when solving in parallel): holds the
/// incremental session — or the one-shot solver the host degrades to — and
/// runs the escalation ladder for every COP of that window.
class SolveHost {
public:
  /// \p SolverName       backend to try first ("idl" or "z3");
  /// \p BaseBudgetSeconds the per-COP budget when the ladder is empty;
  /// \p RetryBudgets     escalating per-attempt budgets (empty = one
  ///                     attempt at the base budget).
  SolveHost(std::string SolverName, double BaseBudgetSeconds,
            std::vector<double> RetryBudgets);
  ~SolveHost();

  struct Outcome {
    SatResult Sat = SatResult::Unknown;
    /// Solve attempts spent on this COP (1 = no retry).
    uint32_t Attempts = 1;
  };

  /// Decides \p Root, escalating through the budget ladder on Unknown and
  /// degrading the session as needed. Only the verdict comes back: the
  /// window driver builds witnesses through a solve of its own.
  Outcome decide(const FormulaBuilder &FB, NodeRef Root);

  const ResilienceStats &stats() const { return Stats; }
  /// The summed work of every solve attempt the host made.
  const SolveWork &work() const { return Work; }

  /// Name of the backend actually answering queries right now.
  const char *backendName() const;

private:
  SatResult attemptOnce(const FormulaBuilder &FB, NodeRef Root,
                        double BudgetSeconds);
  void ensureSession();
  void ensureSolver();
  void quarantineSession();

  /// Consecutive failed session queries that get the session quarantined
  /// on suspicion of sickness even without a poisoned() report.
  static constexpr uint64_t FailedStreakLimit = 4;

  std::string SolverName;
  double BaseBudgetSeconds;
  std::vector<double> RetryBudgets;

  std::unique_ptr<SmtSession> Session;
  std::unique_ptr<SmtSolver> Solver;
  /// Quarantine history: after one rebuild the next quarantine is final.
  bool RebuiltOnce = false;
  /// Session path abandoned for this window; all queries go one-shot.
  bool SessionDead = false;
  uint64_t FailedStreak = 0;
  ResilienceStats Stats;
  SolveWork Work;
};

} // namespace rvp

#endif // RVP_DETECT_RESILIENCE_H
