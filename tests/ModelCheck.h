//===- tests/ModelCheck.h - Does an order model satisfy a formula? -*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model check the solver cross-checks share: evaluate() decides
/// whether an OrderModel satisfies a formula, so a Sat answer is checked
/// on its own terms and not only against the other solver's verdict.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_TESTS_MODELCHECK_H
#define RVP_TESTS_MODELCHECK_H

#include "smt/Solver.h"

#include <unordered_map>
#include <vector>

namespace rvp {

namespace modelcheck {

/// One evaluation under fixed boolean values (absent = false), memoized
/// per node so shared subformulas cost once.
class Evaluator {
public:
  Evaluator(const FormulaBuilder &FB, const OrderModel &Model,
            const std::unordered_map<uint32_t, bool> &Bools)
      : FB(FB), Model(Model), Bools(Bools), Memo(FB.numNodes(), -1) {}

  bool eval(NodeRef Ref) {
    if (Memo[Ref] < 0)
      Memo[Ref] = compute(Ref);
    return Memo[Ref];
  }

private:
  bool compute(NodeRef Ref) {
    const FormulaNode &N = FB.node(Ref);
    switch (N.Kind) {
    case FormulaKind::True:
      return true;
    case FormulaKind::False:
      return false;
    case FormulaKind::Atom: {
      auto A = Model.find(N.VarA);
      auto B = Model.find(N.VarB);
      return A != Model.end() && B != Model.end() && A->second < B->second;
    }
    case FormulaKind::BoolVar: {
      auto It = Bools.find(N.VarA);
      bool Value = It != Bools.end() && It->second;
      return N.VarB ? !Value : Value;
    }
    case FormulaKind::And:
      for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
           C != E; ++C)
        if (!eval(*C))
          return false;
      return true;
    case FormulaKind::Or:
      for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
           C != E; ++C)
        if (eval(*C))
          return true;
      return false;
    }
    return false;
  }

  const FormulaBuilder &FB;
  const OrderModel &Model;
  const std::unordered_map<uint32_t, bool> &Bools;
  std::vector<int8_t> Memo;
};

} // namespace modelcheck

/// True when \p Model satisfies \p Root. A missing order variable makes
/// its atom false. Order models carry no boolean values, so each boolean
/// variable b takes its least value under the clauses that hold ¬b (the
/// race encoder's control-flow definitions `¬b ∨ Def`): b is true once
/// every such clause has another child true, so a variable without a
/// definition is true. Elsewhere b occurs only positively, and a
/// definition leans only on events the formula orders before b's event,
/// so a model that satisfies the formula under some boolean values
/// satisfies it under these.
inline bool evaluate(const FormulaBuilder &FB, NodeRef Root,
                     const OrderModel &Model) {
  // Every boolean variable reachable from Root, with the clauses that
  // hold it negated.
  std::unordered_map<uint32_t, std::vector<NodeRef>> Defs;
  std::vector<bool> Seen(FB.numNodes());
  std::vector<NodeRef> Stack = {Root};
  while (!Stack.empty()) {
    NodeRef Ref = Stack.back();
    Stack.pop_back();
    if (Seen[Ref])
      continue;
    Seen[Ref] = true;
    const FormulaNode &N = FB.node(Ref);
    if (N.Kind == FormulaKind::BoolVar)
      Defs[N.VarA];
    if (N.Kind != FormulaKind::And && N.Kind != FormulaKind::Or)
      continue;
    for (const NodeRef *C = FB.childBegin(Ref), *E = FB.childEnd(Ref);
         C != E; ++C) {
      const FormulaNode &Child = FB.node(*C);
      if (N.Kind == FormulaKind::Or && Child.Kind == FormulaKind::BoolVar &&
          Child.VarB)
        Defs[Child.VarA].push_back(Ref);
      Stack.push_back(*C);
    }
  }

  // Least fixpoint: a variable turns true once all its clauses hold
  // without it; a clause is a disjunction, so it then holds either way.
  std::unordered_map<uint32_t, bool> Bools;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const auto &[Var, Clauses] : Defs) {
      if (Bools[Var])
        continue;
      Bools[Var] = true; // try it: ¬b is now false in every clause
      modelcheck::Evaluator Try(FB, Model, Bools);
      bool Holds = true;
      for (NodeRef Clause : Clauses)
        Holds = Holds && Try.eval(Clause);
      Bools[Var] = Holds;
      Changed |= Holds;
    }
  }
  return modelcheck::Evaluator(FB, Model, Bools).eval(Root);
}

} // namespace rvp

#endif // RVP_TESTS_MODELCHECK_H
