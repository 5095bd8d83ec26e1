//===- detect/Resilience.cpp - Budget escalation & degradation ------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Resilience.h"

#include "support/StringUtils.h"

#include <cmath>
#include <cstdlib>

using namespace rvp;

bool rvp::parseBudgetList(const std::string &Spec, std::vector<double> &Out,
                          std::string &Error) {
  Out.clear();
  std::string_view Trimmed = trim(Spec);
  if (Trimmed.empty())
    return true;
  for (std::string_view Raw : split(Trimmed, ',')) {
    std::string_view Entry = trim(Raw);
    double Scale = 1.0;
    if (Entry.size() > 2 && Entry.substr(Entry.size() - 2) == "ms") {
      Scale = 1e-3;
      Entry.remove_suffix(2);
    } else if (Entry.size() > 2 && Entry.substr(Entry.size() - 2) == "us") {
      Scale = 1e-6;
      Entry.remove_suffix(2);
    } else if (Entry.size() > 1 && Entry.back() == 's') {
      Entry.remove_suffix(1);
    }
    std::string Num(Entry);
    char *End = nullptr;
    double Value = Num.empty() ? 0.0 : std::strtod(Num.c_str(), &End);
    if (Num.empty() || End != Num.c_str() + Num.size() ||
        !std::isfinite(Value) || Value <= 0) {
      Error = formatString(
          "malformed retry budget '%s' (want a positive duration like "
          "50ms, 250ms, or 1s)",
          std::string(trim(Raw)).c_str());
      Out.clear();
      return false;
    }
    Out.push_back(Value * Scale);
  }
  return true;
}

SolveHost::SolveHost(std::string SolverName, double BaseBudgetSeconds,
                     std::vector<double> RetryBudgets)
    : SolverName(std::move(SolverName)), BaseBudgetSeconds(BaseBudgetSeconds),
      RetryBudgets(std::move(RetryBudgets)) {}

SolveHost::~SolveHost() = default;

const char *SolveHost::backendName() const {
  if (!SessionDead && Session)
    return Session->name();
  if (Solver)
    return Solver->name();
  return SolverName.empty() ? "idl" : SolverName.c_str();
}

void SolveHost::ensureSession() {
  if (Session)
    return;
  Session = createSessionByName(SolverName);
  if (!Session) {
    if (!SolverName.empty() && SolverName != "idl")
      ++Stats.BackendFallbacks;
    Session = createIdlSession();
  }
}

void SolveHost::ensureSolver() {
  if (Solver)
    return;
  Solver = createSolverByName(SolverName);
  if (!Solver) {
    if (!SolverName.empty() && SolverName != "idl")
      ++Stats.BackendFallbacks;
    Solver = createIdlSolver();
  }
}

void SolveHost::quarantineSession() {
  ++Stats.DegradedSessions;
  Session.reset();
  FailedStreak = 0;
  // One rebuild is worth trying: corruption may have been transient and
  // the window's learned clauses rebuild quickly. A second quarantine in
  // the same window means the session path itself is unhealthy here, so
  // every later query goes to a fresh one-shot solver instead.
  if (RebuiltOnce)
    SessionDead = true;
  else
    RebuiltOnce = true;
}

SatResult SolveHost::attemptOnce(const FormulaBuilder &FB, NodeRef Root,
                                 double BudgetSeconds) {
  SolveWork Attempt;
  if (!SessionDead) {
    ensureSession();
    SatResult Result = Session->query(FB, Root, Deadline::after(BudgetSeconds),
                                      nullptr, &Attempt);
    Work += Attempt;
    if (Session->poisoned()) {
      quarantineSession();
      return SatResult::Unknown;
    }
    if (Result == SatResult::Unknown) {
      if (++FailedStreak >= FailedStreakLimit)
        quarantineSession();
    } else {
      FailedStreak = 0;
    }
    return Result;
  }

  ensureSolver();
  SatResult Result = Solver->solve(FB, Root, Deadline::after(BudgetSeconds),
                                   nullptr, &Attempt);
  Work += Attempt;
  return Result;
}

SolveHost::Outcome SolveHost::decide(const FormulaBuilder &FB, NodeRef Root) {
  Outcome Out;
  size_t Tiers = RetryBudgets.empty() ? 1 : RetryBudgets.size();
  uint32_t Attempt = 0;
  for (size_t Tier = 0; Tier < Tiers; ++Tier) {
    double Budget =
        RetryBudgets.empty() ? BaseBudgetSeconds : RetryBudgets[Tier];
    bool Repeat = true;
    while (Repeat) {
      Repeat = false;
      if (Attempt > 0)
        ++Stats.Retries;
      uint64_t QuarantinesBefore = Stats.DegradedSessions;
      Out.Sat = attemptOnce(FB, Root, Budget);
      Out.Attempts = ++Attempt;
      if (Out.Sat != SatResult::Unknown)
        return Out;
      // A query lost to session sickness (quarantine fired during the
      // attempt) was never really asked — repeat it at the same tier
      // against the rebuilt session or the one-shot fallback. Bounded:
      // a host quarantines at most twice (rebuild once, then dead).
      if (Stats.DegradedSessions != QuarantinesBefore)
        Repeat = true;
    }
  }
  return Out;
}
