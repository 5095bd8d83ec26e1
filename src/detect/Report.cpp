//===- detect/Report.cpp - Textual finding renderers ----------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Report.h"

#include "support/StringUtils.h"

using namespace rvp;

std::string rvp::renderRaceHeader(Technique Tech, size_t Count,
                                  double Seconds,
                                  const ReportRenderOptions &Opts) {
  // The vc tier answers with WCP, not the requested maximal technique;
  // say so in the header rather than implying solver-grade precision.
  return formatString("%s: %zu race(s) in %.2fs\n",
                      Opts.VcTier ? "WCP" : techniqueName(Tech), Count,
                      Seconds);
}

std::string rvp::renderRaceLine(const Trace &T, const RaceReport &Race,
                                const ReportRenderOptions &Opts) {
  std::string Out =
      formatString("  race on %-12s %s <-> %s", Race.Variable.c_str(),
                   Race.LocFirst.c_str(), Race.LocSecond.c_str());
  if (Opts.WitnessTag)
    Out += formatString("  [witness %s]",
                        Race.WitnessValid ? "validated" : "UNVALIDATED");
  Out += '\n';
  if (Opts.WitnessEvents) {
    for (EventId Id : Race.Witness) {
      Out += "      ";
      appendEvent(Out, T[Id]);
      if (Id == Race.First || Id == Race.Second)
        Out += " <== race";
      Out += '\n';
    }
  }
  return Out;
}

std::string rvp::renderAtomicityHeader(size_t Count, double Seconds) {
  return formatString("atomicity: %zu violation(s) in %.2fs\n", Count,
                      Seconds);
}

std::string rvp::renderAtomicityLine(const AtomicityReport &V) {
  return formatString("  %-10s %s: %s .. [%s] .. %s  [witness %s]\n",
                      V.Variable.c_str(), atomicityPatternName(V.Pattern),
                      V.LocFirst.c_str(), V.LocRemote.c_str(),
                      V.LocSecond.c_str(),
                      V.WitnessValid ? "validated" : "UNVALIDATED");
}

std::string rvp::renderDeadlockHeader(size_t Count, double Seconds) {
  return formatString("deadlock: %zu potential deadlock(s) in %.2fs\n",
                      Count, Seconds);
}

std::string rvp::renderDeadlockLine(const Trace &T,
                                    const DeadlockReport &D) {
  return formatString(
      "  %s holds %s and requests %s at %s; %s holds %s and "
      "requests %s at %s  [witness %s]\n",
      T.threadName(D.ThreadA).c_str(), T.lockName(D.LockHeldByA).c_str(),
      T.lockName(D.LockHeldByB).c_str(), D.LocRequestA.c_str(),
      T.threadName(D.ThreadB).c_str(), T.lockName(D.LockHeldByB).c_str(),
      T.lockName(D.LockHeldByA).c_str(), D.LocRequestB.c_str(),
      D.WitnessValid ? "validated" : "UNVALIDATED");
}

std::string rvp::renderUnknowns(const std::vector<UnknownReport> &Unknowns,
                                const char *Pair) {
  // Printed only when non-empty, so healthy runs are byte-identical to
  // builds without the resilience layer; these are maybe-findings, never
  // merged into the sound report above (docs/ROBUSTNESS.md).
  if (Unknowns.empty())
    return std::string();
  std::string Out =
      formatString("unknown: %zu undecided %s(s) (exhausted every solver "
                   "budget; NOT findings)\n",
                   Unknowns.size(), Pair);
  for (const UnknownReport &U : Unknowns)
    Out += renderUnknownLine(U);
  return Out;
}

std::string rvp::renderUnknownLine(const UnknownReport &U) {
  std::string Out = "  unknown";
  if (!U.Variable.empty())
    Out += formatString(" on %-12s", U.Variable.c_str());
  Out += formatString(" %s <-> %s  [%u attempt(s)]\n", U.LocFirst.c_str(),
                      U.LocSecond.c_str(), U.Attempts);
  return Out;
}

std::string rvp::renderRaceReport(const Trace &T, Technique Tech,
                                  const DetectionResult &R,
                                  const ReportRenderOptions &Opts) {
  std::string Out =
      renderRaceHeader(Tech, R.raceCount(), R.Stats.Seconds, Opts);
  for (const RaceReport &Race : R.Races)
    Out += renderRaceLine(T, Race, Opts);
  Out += renderUnknowns(R.Unknowns, "pair");
  return Out;
}

std::string rvp::renderAtomicityReport(const AtomicityResult &R) {
  std::string Out =
      renderAtomicityHeader(R.Violations.size(), R.Stats.Seconds);
  for (const AtomicityReport &V : R.Violations)
    Out += renderAtomicityLine(V);
  Out += renderUnknowns(R.Unknowns, "candidate");
  return Out;
}

std::string rvp::renderDeadlockReport(const Trace &T,
                                      const DeadlockResult &R) {
  std::string Out =
      renderDeadlockHeader(R.Deadlocks.size(), R.Stats.Seconds);
  for (const DeadlockReport &D : R.Deadlocks)
    Out += renderDeadlockLine(T, D);
  Out += renderUnknowns(R.Unknowns, "lock pair");
  return Out;
}
