//===- smt/Tseitin.h - Shared CNF encoding for order formulas ---*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Tseitin encoding shared by the one-shot IdlSolver and the
/// incremental IdlSession: positive-polarity CNF (the formula language has
/// no negation except guarded definitions), one boolean variable per
/// unordered order-variable pair bound to the difference-logic theory, one
/// gate variable per And/Or node.
///
/// The encoder is a cache: LitOf is indexed by NodeRef of ONE
/// FormulaBuilder, and AtomVars/BoolVars persist across encode() calls.
/// Because the builder hash-conses, a subformula shared by many queries is
/// encoded — and its definitional clauses added — exactly once; this is
/// what makes the per-window solver session incremental (see
/// docs/INCREMENTAL_SOLVING.md). Definitional clauses are sound to keep
/// forever: each one only constrains the fresh gate variable it defines.
///
/// Internal to rvp_smt; not part of the public solver interface.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SMT_TSEITIN_H
#define RVP_SMT_TSEITIN_H

#include "smt/DiffLogic.h"
#include "smt/Formula.h"
#include "smt/Sat.h"
#include "smt/Solver.h"
#include "support/Compiler.h"

#include <map>
#include <utility>
#include <vector>

namespace rvp {

class TseitinEncoder {
public:
  TseitinEncoder(SatSolver &Sat, DiffLogicTheory &Theory)
      : Sat(Sat), Theory(Theory) {}

  /// Encodes \p Root (built in \p FB) into the solver, reusing every node
  /// already encoded by an earlier call on the same builder, and returns
  /// the literal equivalent to the formula. \p Root must not be a
  /// constant (callers special-case True/False).
  Lit encode(const FormulaBuilder &FB, NodeRef Root) {
    if (LitOf.size() < FB.numNodes())
      LitOf.resize(FB.numNodes(), Lit());

    // Post-order iterative encoding; children first.
    std::vector<std::pair<NodeRef, bool>> Work = {{Root, false}};
    while (!Work.empty()) {
      auto [Ref, ChildrenDone] = Work.back();
      Work.pop_back();
      if (LitOf[Ref].valid())
        continue;
      const FormulaNode &N = FB.node(Ref);
      switch (N.Kind) {
      case FormulaKind::True:
      case FormulaKind::False:
        // mkAnd/mkOr fold constants away; only the root can be constant,
        // and callers handle that case before encoding.
        RVP_UNREACHABLE("constant below the root of a simplified formula");
      case FormulaKind::Atom: {
        // One boolean variable per unordered pair; the positive literal
        // asserts min<max, the negative one max<min (all order variables
        // denote distinct positions).
        OrderVar Lo = std::min(N.VarA, N.VarB);
        OrderVar Hi = std::max(N.VarA, N.VarB);
        auto [It, Inserted] = AtomVars.try_emplace({Lo, Hi}, 0);
        if (Inserted) {
          Var V = Sat.newVar();
          It->second = V;
          Theory.bindLit(Lit::pos(V), Lo, Hi);
          Theory.bindLit(Lit::neg(V), Hi, Lo);
        }
        LitOf[Ref] =
            N.VarA == Lo ? Lit::pos(It->second) : Lit::neg(It->second);
        break;
      }
      case FormulaKind::BoolVar: {
        auto [It, Inserted] = BoolVars.try_emplace(N.VarA, 0);
        if (Inserted)
          It->second = Sat.newVar();
        LitOf[Ref] = N.VarB ? Lit::neg(It->second) : Lit::pos(It->second);
        break;
      }
      case FormulaKind::And:
      case FormulaKind::Or: {
        if (!ChildrenDone) {
          Work.push_back({Ref, true});
          for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
               C != E; ++C)
            if (!LitOf[*C].valid())
              Work.push_back({*C, false});
          continue;
        }
        Var Gate = Sat.newVar();
        Lit G = Lit::pos(Gate);
        if (N.Kind == FormulaKind::And) {
          for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
               C != E; ++C)
            Sat.addClause({~G, LitOf[*C]});
        } else {
          std::vector<Lit> Clause = {~G};
          for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
               C != E; ++C)
            Clause.push_back(LitOf[*C]);
          Sat.addClause(std::move(Clause));
        }
        LitOf[Ref] = G;
        break;
      }
      }
    }
    return LitOf[Root];
  }

  /// Lists in \p Out the solver variables of \p Root's cone: every node
  /// reachable from it, including nodes an earlier encode() defined. The
  /// walk stamps nodes, so a subformula shared inside the cone is listed
  /// once. \p Root must be encoded.
  void coneVars(const FormulaBuilder &FB, NodeRef Root,
                std::vector<Var> &Out) {
    Out.clear();
    Stamp.resize(LitOf.size(), 0);
    ++Epoch;
    Stamp[Root] = Epoch;
    std::vector<NodeRef> Work = {Root};
    while (!Work.empty()) {
      NodeRef Ref = Work.back();
      Work.pop_back();
      Out.push_back(LitOf[Ref].var());
      for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
           C != E; ++C)
        if (Stamp[*C] != Epoch) {
          Stamp[*C] = Epoch;
          Work.push_back(*C);
        }
    }
  }

  /// Reads the order positions of every variable any encoded atom
  /// mentions, off the theory's current topological order. Only meaningful
  /// right after Sat answered Sat, before any backtracking.
  void readModel(OrderModel &Out) const {
    Out.clear();
    for (const auto &[Pair, V] : AtomVars) {
      (void)V;
      auto Record = [&](OrderVar Variable) {
        uint32_t Pos = Theory.graph().positionOf(Variable);
        if (Pos != UINT32_MAX)
          Out[Variable] = Pos;
      };
      Record(Pair.first);
      Record(Pair.second);
    }
  }

private:
  SatSolver &Sat;
  DiffLogicTheory &Theory;
  std::vector<Lit> LitOf; ///< per NodeRef of the (single) builder
  std::map<std::pair<OrderVar, OrderVar>, Var> AtomVars;
  std::map<uint32_t, Var> BoolVars;
  /// coneVars() scratch: a node is visited when its stamp equals Epoch.
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 0;
};

} // namespace rvp

#endif // RVP_SMT_TSEITIN_H
