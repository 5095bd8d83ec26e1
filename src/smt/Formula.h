//===- smt/Formula.h - Difference-logic formulas ----------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Negation-free formulas over strict difference atoms `O_a < O_b`, the
/// fragment the paper's encoding lives in (Section 3.2 and the `Oa := Ob`
/// substitution of Section 4 keep everything in ordering comparisons over
/// integer order variables).
///
/// Because all order variables denote *distinct* positions in a reordered
/// trace, the negation of `a < b` is exactly `b < a`; formulas therefore
/// never need Not nodes, and every subformula occurs positively, which the
/// Tseitin transform exploits (Plaisted–Greenbaum, positive polarity only).
///
/// Nodes are hash-consed in an arena owned by FormulaBuilder; NodeRef is a
/// plain index, cheap to copy and store in memo tables.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SMT_FORMULA_H
#define RVP_SMT_FORMULA_H

#include "smt/Arena.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace rvp {

/// An integer order variable; the detectors use event ids directly.
using OrderVar = uint32_t;

/// Index of a formula node inside its FormulaBuilder arena.
using NodeRef = uint32_t;

enum class FormulaKind : uint8_t {
  True,
  False,
  Atom,    ///< strict inequality VarA < VarB
  BoolVar, ///< named boolean variable VarA; VarB != 0 means negated
  And,
  Or,
};

/// One hash-consed formula node. Children of And/Or live in the builder's
/// child pool, in [ChildBegin, ChildEnd).
struct FormulaNode {
  FormulaKind Kind;
  OrderVar VarA = 0;
  OrderVar VarB = 0;
  uint32_t ChildBegin = 0;
  uint32_t ChildEnd = 0;

  uint32_t numChildren() const { return ChildEnd - ChildBegin; }
};

/// Arena + hash-consing constructor for formulas. All simplifications are
/// local and cheap: constant folding, flattening of nested And/Or,
/// duplicate-child removal, and complement detection (`a<b` and `b<a` in
/// the same And folds to False; in the same Or to True).
class FormulaBuilder {
public:
  FormulaBuilder();

  NodeRef mkTrue() const { return TrueRef; }
  NodeRef mkFalse() const { return FalseRef; }

  /// The atom `A < B`. Asserts A != B (an event never precedes itself).
  NodeRef mkAtom(OrderVar A, OrderVar B);

  /// A named boolean variable (used for the cf(e) feasibility definitions
  /// of Section 3.2, whose dependency graph may be cyclic and therefore
  /// cannot be inlined as a tree).
  NodeRef mkBoolVar(uint32_t Id);
  /// The negation of a boolean variable; only used to write one-directional
  /// definitions `var -> def` as `(!var | def)`. All definitions occur
  /// positively, so this is the only negation the language needs.
  NodeRef mkNotBoolVar(uint32_t Id);
  /// `(!var | Def)`, i.e. the definition clause for a boolean variable.
  NodeRef mkGuardedDef(uint32_t Id, NodeRef Def) {
    return mkOr2(mkNotBoolVar(Id), Def);
  }

  NodeRef mkAnd(std::vector<NodeRef> Children);
  NodeRef mkOr(std::vector<NodeRef> Children);

  /// Binary conveniences.
  NodeRef mkAnd2(NodeRef A, NodeRef B) { return mkAnd({A, B}); }
  NodeRef mkOr2(NodeRef A, NodeRef B) { return mkOr({A, B}); }

  const FormulaNode &node(NodeRef Ref) const { return Nodes[Ref]; }
  const NodeRef *childBegin(NodeRef Ref) const {
    return Children.data() + Nodes[Ref].ChildBegin;
  }
  const NodeRef *childEnd(NodeRef Ref) const {
    return Children.data() + Nodes[Ref].ChildEnd;
  }

  size_t numNodes() const { return Nodes.size(); }

  /// Collects the set of order variables appearing under \p Root.
  std::vector<OrderVar> collectVars(NodeRef Root) const;

  /// Renders a formula for debugging and for the Figure 5 pretty-printer.
  /// \p VarName maps an order variable to a display name; pass nullptr for
  /// the default "O<n>".
  std::string toString(NodeRef Root,
                       std::string (*VarName)(OrderVar) = nullptr) const;

private:
  NodeRef mkNary(FormulaKind Kind, std::vector<NodeRef> Children);
  NodeRef intern(FormulaNode Node, const std::vector<NodeRef> &Kids);
  void growTable();

  /// One hash-consing table slot: full hash plus node index. Ref ==
  /// EmptySlot marks an unused slot.
  struct TableSlot {
    uint64_t Hash;
    NodeRef Ref;
  };
  static constexpr NodeRef EmptySlot = UINT32_MAX;

  /// Bump storage for the node and child pools: interning is append-only,
  /// so the arena replaces per-push heap reallocation with cursor bumps
  /// and frees everything at once when the builder dies at the window
  /// barrier (smt/Arena.h).
  BumpArena Arena;
  ArenaVector<FormulaNode> Nodes{Arena};
  ArenaVector<NodeRef> Children{Arena};
  /// Open-addressed linear-probe hash-consing index (insert-only,
  /// power-of-two capacity, resized at ~70% load). Replaces the
  /// unordered_map-of-vectors bucket scheme: one flat probe sequence per
  /// intern instead of a heap-allocated vector per distinct hash.
  std::vector<TableSlot> Table;
  size_t TableCount = 0;
  /// Complement-detection scratch for mkNary, epoch-stamped instead of
  /// cleared: unordered containers never shrink their bucket array, so a
  /// single huge conjunction (a window root) would make every later
  /// clear() — even for two-element disjunctions — pay O(buckets). That
  /// cost is invisible with a throwaway per-COP builder but quadratic for
  /// the long-lived shared builder of the incremental sessions.
  std::unordered_map<uint64_t, uint64_t> AtomPairScratch;
  uint64_t AtomPairEpoch = 0;
  NodeRef TrueRef = 0;
  NodeRef FalseRef = 0;
};

} // namespace rvp

#endif // RVP_SMT_FORMULA_H
