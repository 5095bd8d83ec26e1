//===- smt/Formula.cpp - Difference-logic formulas -------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Formula.h"

#include "support/Compiler.h"

#include <algorithm>
#include <cassert>

using namespace rvp;

static uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

FormulaBuilder::FormulaBuilder() {
  Table.assign(256, TableSlot{0, EmptySlot});
  FormulaNode TrueNode;
  TrueNode.Kind = FormulaKind::True;
  Nodes.push_back(TrueNode);
  TrueRef = 0;
  FormulaNode FalseNode;
  FalseNode.Kind = FormulaKind::False;
  Nodes.push_back(FalseNode);
  FalseRef = 1;
}

void FormulaBuilder::growTable() {
  std::vector<TableSlot> Old(Table.size() * 2, TableSlot{0, EmptySlot});
  Old.swap(Table);
  const size_t Mask = Table.size() - 1;
  for (const TableSlot &S : Old) {
    if (S.Ref == EmptySlot)
      continue;
    size_t Slot = S.Hash & Mask;
    while (Table[Slot].Ref != EmptySlot)
      Slot = (Slot + 1) & Mask;
    Table[Slot] = S;
  }
}

NodeRef FormulaBuilder::intern(FormulaNode Node,
                               const std::vector<NodeRef> &Kids) {
  uint64_t Hash = hashCombine(static_cast<uint64_t>(Node.Kind), Node.VarA);
  Hash = hashCombine(Hash, Node.VarB);
  for (NodeRef Kid : Kids)
    Hash = hashCombine(Hash, Kid);

  const size_t Mask = Table.size() - 1;
  size_t Slot = Hash & Mask;
  while (Table[Slot].Ref != EmptySlot) {
    if (Table[Slot].Hash == Hash) {
      const FormulaNode &C = Nodes[Table[Slot].Ref];
      if (C.Kind == Node.Kind && C.VarA == Node.VarA &&
          C.VarB == Node.VarB && C.numChildren() == Kids.size() &&
          std::equal(Kids.begin(), Kids.end(),
                     Children.data() + C.ChildBegin))
        return Table[Slot].Ref;
    }
    Slot = (Slot + 1) & Mask;
  }

  Node.ChildBegin = static_cast<uint32_t>(Children.size());
  Children.append(Kids.data(), Kids.data() + Kids.size());
  Node.ChildEnd = static_cast<uint32_t>(Children.size());
  NodeRef Ref = static_cast<NodeRef>(Nodes.size());
  Nodes.push_back(Node);
  Table[Slot] = TableSlot{Hash, Ref};
  // Resize at ~70% load so probe chains stay short.
  if (++TableCount * 10 >= Table.size() * 7)
    growTable();
  return Ref;
}

NodeRef FormulaBuilder::mkAtom(OrderVar A, OrderVar B) {
  assert(A != B && "an event cannot precede itself");
  FormulaNode Node;
  Node.Kind = FormulaKind::Atom;
  Node.VarA = A;
  Node.VarB = B;
  return intern(Node, {});
}

NodeRef FormulaBuilder::mkBoolVar(uint32_t Id) {
  FormulaNode Node;
  Node.Kind = FormulaKind::BoolVar;
  Node.VarA = Id;
  Node.VarB = 0;
  return intern(Node, {});
}

NodeRef FormulaBuilder::mkNotBoolVar(uint32_t Id) {
  FormulaNode Node;
  Node.Kind = FormulaKind::BoolVar;
  Node.VarA = Id;
  Node.VarB = 1;
  return intern(Node, {});
}

NodeRef FormulaBuilder::mkNary(FormulaKind Kind,
                               std::vector<NodeRef> Input) {
  const bool IsAnd = Kind == FormulaKind::And;
  const NodeRef Neutral = IsAnd ? TrueRef : FalseRef;
  const NodeRef Absorbing = IsAnd ? FalseRef : TrueRef;

  // Flatten nested nodes of the same kind and drop neutral elements.
  std::vector<NodeRef> Flat;
  Flat.reserve(Input.size());
  for (size_t I = 0; I < Input.size(); ++I) {
    NodeRef Ref = Input[I];
    if (Ref == Absorbing)
      return Absorbing;
    if (Ref == Neutral)
      continue;
    const FormulaNode &N = Nodes[Ref];
    if (N.Kind == Kind) {
      for (uint32_t C = N.ChildBegin; C < N.ChildEnd; ++C)
        Input.push_back(Children[C]);
      continue;
    }
    Flat.push_back(Ref);
  }

  std::sort(Flat.begin(), Flat.end());
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());

  // Complement detection: atoms a<b and b<a (or a boolean variable and
  // its negation) together are contradictory (And) or exhaustive (Or).
  // Entries from earlier calls are invalidated by bumping the epoch, not
  // by clearing the container (see the field comment).
  ++AtomPairEpoch;
  for (NodeRef Ref : Flat) {
    const FormulaNode &N = Nodes[Ref];
    uint64_t Key, ReverseKey;
    if (N.Kind == FormulaKind::Atom) {
      Key = (static_cast<uint64_t>(N.VarA) << 32) | N.VarB;
      ReverseKey = (static_cast<uint64_t>(N.VarB) << 32) | N.VarA;
    } else if (N.Kind == FormulaKind::BoolVar) {
      constexpr uint64_t Tag = 1ULL << 63;
      Key = Tag | (static_cast<uint64_t>(N.VarB) << 32) | N.VarA;
      ReverseKey = Tag | (static_cast<uint64_t>(N.VarB ^ 1) << 32) | N.VarA;
    } else {
      continue;
    }
    auto It = AtomPairScratch.find(ReverseKey);
    if (It != AtomPairScratch.end() && It->second == AtomPairEpoch)
      return Absorbing;
    AtomPairScratch[Key] = AtomPairEpoch;
  }

  if (Flat.empty())
    return Neutral;
  if (Flat.size() == 1)
    return Flat[0];

  FormulaNode Node;
  Node.Kind = Kind;
  return intern(Node, Flat);
}

NodeRef FormulaBuilder::mkAnd(std::vector<NodeRef> Children) {
  return mkNary(FormulaKind::And, std::move(Children));
}

NodeRef FormulaBuilder::mkOr(std::vector<NodeRef> Children) {
  return mkNary(FormulaKind::Or, std::move(Children));
}

std::vector<OrderVar> FormulaBuilder::collectVars(NodeRef Root) const {
  std::vector<OrderVar> Vars;
  std::vector<NodeRef> Work = {Root};
  std::vector<bool> Seen(Nodes.size(), false);
  while (!Work.empty()) {
    NodeRef Ref = Work.back();
    Work.pop_back();
    if (Seen[Ref])
      continue;
    Seen[Ref] = true;
    const FormulaNode &N = Nodes[Ref];
    if (N.Kind == FormulaKind::Atom) {
      Vars.push_back(N.VarA);
      Vars.push_back(N.VarB);
      continue;
    }
    if (N.Kind == FormulaKind::BoolVar)
      continue;
    for (uint32_t C = N.ChildBegin; C < N.ChildEnd; ++C)
      Work.push_back(Children[C]);
  }
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  return Vars;
}

static std::string defaultVarName(OrderVar Var) {
  return "O" + std::to_string(Var);
}

std::string FormulaBuilder::toString(NodeRef Root,
                                     std::string (*VarName)(OrderVar)) const {
  if (!VarName)
    VarName = defaultVarName;
  const FormulaNode &N = Nodes[Root];
  switch (N.Kind) {
  case FormulaKind::True:
    return "true";
  case FormulaKind::False:
    return "false";
  case FormulaKind::Atom:
    return VarName(N.VarA) + " < " + VarName(N.VarB);
  case FormulaKind::BoolVar:
    return (N.VarB ? "!b" : "b") + std::to_string(N.VarA);
  case FormulaKind::And:
  case FormulaKind::Or: {
    const char *Op = N.Kind == FormulaKind::And ? " & " : " | ";
    std::string Out = "(";
    for (uint32_t C = N.ChildBegin; C < N.ChildEnd; ++C) {
      if (C != N.ChildBegin)
        Out += Op;
      Out += toString(Children[C], VarName);
    }
    return Out + ")";
  }
  }
  RVP_UNREACHABLE("unknown formula kind");
}
