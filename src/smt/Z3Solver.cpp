//===- smt/Z3Solver.cpp - Z3 oracle for order formulas --------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Mirrors the paper's implementation choice (Z3/Yices via Integer
/// Difference Logic): every solver is created for the QF_IDL logic. Built
/// into `rvp_z3` only when the toolchain provides Z3; the tests and
/// bench_solver cross-check the in-tree CDCL(T) solver against it
/// (smt/Z3Solver.h).
///
//===----------------------------------------------------------------------===//

#include "smt/Z3Solver.h"

#include "support/FaultInjector.h"

#include <z3++.h>

#include <optional>

using namespace rvp;

namespace {

class Z3Solver : public SmtSolver {
public:
  SatResult solve(const FormulaBuilder &FB, NodeRef Root, Deadline Limit,
                  OrderModel *ModelOut, SolveWork *Work) override {
    if (Work)
      *Work = SolveWork{};
    // Z3 reports failures via exceptions; contain them at this boundary.
    try {
      return solveImpl(FB, Root, Limit, ModelOut);
    } catch (const z3::exception &) {
      return SatResult::Unknown;
    }
  }

private:
  SatResult solveImpl(const FormulaBuilder &FB, NodeRef Root, Deadline Limit,
                      OrderModel *ModelOut) {
    if (FaultInjector::shouldFail(faults::SolverTimeout))
      return SatResult::Unknown; // injected budget expiry
    z3::context Ctx;
    z3::solver Solver(Ctx, "QF_IDL");
    // Budget accounting is explicit about "no limit": only a real deadline
    // is turned into a Z3 timeout (remainingSeconds() is a sentinel
    // otherwise).
    if (Limit.hasLimit()) {
      double Remaining = Limit.remainingSeconds();
      z3::params Params(Ctx);
      Params.set("timeout",
                 static_cast<unsigned>(Remaining * 1000.0 + 1));
      Solver.set(Params);
    }

    std::vector<std::optional<z3::expr>> ExprOf(FB.numNodes());
    std::vector<OrderVar> Vars = FB.collectVars(Root);
    std::unordered_map<OrderVar, std::optional<z3::expr>> Consts;
    for (OrderVar V : Vars)
      Consts.emplace(
          V, Ctx.int_const(("O" + std::to_string(V)).c_str()));

    // Post-order iterative translation.
    std::vector<std::pair<NodeRef, bool>> Work = {{Root, false}};
    while (!Work.empty()) {
      auto [Ref, ChildrenDone] = Work.back();
      Work.pop_back();
      if (ExprOf[Ref])
        continue;
      const FormulaNode &N = FB.node(Ref);
      switch (N.Kind) {
      case FormulaKind::True:
        ExprOf[Ref] = Ctx.bool_val(true);
        break;
      case FormulaKind::False:
        ExprOf[Ref] = Ctx.bool_val(false);
        break;
      case FormulaKind::Atom:
        ExprOf[Ref] = *Consts.at(N.VarA) < *Consts.at(N.VarB);
        break;
      case FormulaKind::BoolVar: {
        z3::expr B =
            Ctx.bool_const(("b" + std::to_string(N.VarA)).c_str());
        ExprOf[Ref] = N.VarB ? !B : B;
        break;
      }
      case FormulaKind::And:
      case FormulaKind::Or: {
        if (!ChildrenDone) {
          Work.push_back({Ref, true});
          for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
               C != E; ++C)
            if (!ExprOf[*C])
              Work.push_back({*C, false});
          continue;
        }
        z3::expr_vector Kids(Ctx);
        for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
             C != E; ++C)
          Kids.push_back(*ExprOf[*C]);
        ExprOf[Ref] = N.Kind == FormulaKind::And ? z3::mk_and(Kids)
                                                 : z3::mk_or(Kids);
        break;
      }
      }
    }

    Solver.add(*ExprOf[Root]);
    switch (Solver.check()) {
    case z3::unsat:
      return SatResult::Unsat;
    case z3::unknown:
      return SatResult::Unknown;
    case z3::sat:
      break;
    }

    if (ModelOut) {
      ModelOut->clear();
      z3::model Model = Solver.get_model();
      for (OrderVar V : Vars) {
        z3::expr Value = Model.eval(*Consts.at(V), /*model_completion=*/true);
        int64_t Numeral = 0;
        if (Value.is_numeral_i64(Numeral))
          (*ModelOut)[V] = Numeral;
      }
    }
    return SatResult::Sat;
  }
};

/// The incremental mirror: one persistent z3::solver, roots guarded by
/// fresh selector booleans, queries decided via check(assumptions) — Z3's
/// check_sat_assuming — and selectors retired with a permanent negative
/// unit, exactly like the in-tree IdlSession.
class Z3Session : public SmtSession {
public:
  Z3Session() : Solver(Ctx, "QF_IDL") {}

  SatResult query(const FormulaBuilder &FB, NodeRef Root, Deadline Limit,
                  OrderModel *ModelOut, SolveWork *Work) override {
    if (Work)
      *Work = SolveWork{.SessionQueries = 1};
    try {
      return queryImpl(FB, Root, Limit, ModelOut);
    } catch (const z3::exception &) {
      return SatResult::Unknown;
    }
  }

  bool poisoned() const override { return Broken; }

private:
  SatResult queryImpl(const FormulaBuilder &FB, NodeRef Root, Deadline Limit,
                      OrderModel *ModelOut) {
    if (FaultInjector::shouldFail(faults::SessionCorrupt))
      Broken = true;
    if (Broken)
      return SatResult::Unknown;
    if (FaultInjector::shouldFail(faults::SolverTimeout))
      return SatResult::Unknown; // injected budget expiry
    if (Limit.hasLimit()) {
      double Remaining = Limit.remainingSeconds();
      z3::params Params(Ctx);
      Params.set("timeout",
                 static_cast<unsigned>(Remaining * 1000.0 + 1));
      Solver.set(Params);
    }

    z3::expr Guarded = translate(FB, Root);
    z3::expr Selector = Ctx.bool_const(
        ("sel" + std::to_string(NumSelectors++)).c_str());
    Solver.add(z3::implies(Selector, Guarded));
    z3::expr_vector Assumptions(Ctx);
    Assumptions.push_back(Selector);
    z3::check_result Check = Solver.check(Assumptions);
    SatResult Result = Check == z3::unsat  ? SatResult::Unsat
                       : Check == z3::sat  ? SatResult::Sat
                                           : SatResult::Unknown;
    if (Result == SatResult::Sat && ModelOut) {
      ModelOut->clear();
      z3::model Model = Solver.get_model();
      for (OrderVar V : FB.collectVars(Root)) {
        z3::expr Value =
            Model.eval(*Consts.at(V), /*model_completion=*/true);
        int64_t Numeral = 0;
        if (Value.is_numeral_i64(Numeral))
          (*ModelOut)[V] = Numeral;
      }
    }
    // Retire the selector so learned lemmas stay while this query's pin
    // can never constrain a later one.
    Solver.add(!Selector);
    return Result;
  }

  /// Incremental translation: ExprOf caches by node reference (all calls
  /// use the same builder), Consts by order variable.
  z3::expr translate(const FormulaBuilder &FB, NodeRef Root) {
    if (ExprOf.size() < FB.numNodes())
      ExprOf.resize(FB.numNodes());
    for (OrderVar V : FB.collectVars(Root))
      Consts.emplace(V,
                     Ctx.int_const(("O" + std::to_string(V)).c_str()));

    std::vector<std::pair<NodeRef, bool>> Work = {{Root, false}};
    while (!Work.empty()) {
      auto [Ref, ChildrenDone] = Work.back();
      Work.pop_back();
      if (ExprOf[Ref])
        continue;
      const FormulaNode &N = FB.node(Ref);
      switch (N.Kind) {
      case FormulaKind::True:
        ExprOf[Ref] = Ctx.bool_val(true);
        break;
      case FormulaKind::False:
        ExprOf[Ref] = Ctx.bool_val(false);
        break;
      case FormulaKind::Atom:
        ExprOf[Ref] = *Consts.at(N.VarA) < *Consts.at(N.VarB);
        break;
      case FormulaKind::BoolVar: {
        z3::expr B =
            Ctx.bool_const(("b" + std::to_string(N.VarA)).c_str());
        ExprOf[Ref] = N.VarB ? !B : B;
        break;
      }
      case FormulaKind::And:
      case FormulaKind::Or: {
        if (!ChildrenDone) {
          Work.push_back({Ref, true});
          for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
               C != E; ++C)
            if (!ExprOf[*C])
              Work.push_back({*C, false});
          continue;
        }
        z3::expr_vector Kids(Ctx);
        for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
             C != E; ++C)
          Kids.push_back(*ExprOf[*C]);
        ExprOf[Ref] = N.Kind == FormulaKind::And ? z3::mk_and(Kids)
                                                 : z3::mk_or(Kids);
        break;
      }
      }
    }
    return *ExprOf[Root];
  }

  z3::context Ctx;
  z3::solver Solver;
  std::vector<std::optional<z3::expr>> ExprOf;
  std::unordered_map<OrderVar, std::optional<z3::expr>> Consts;
  uint64_t NumSelectors = 0;
  bool Broken = false;
};

} // namespace

std::unique_ptr<SmtSolver> rvp::createZ3Solver() {
  return std::make_unique<Z3Solver>();
}

std::unique_ptr<rvp::SmtSession> rvp::createZ3Session() {
  return std::make_unique<Z3Session>();
}
