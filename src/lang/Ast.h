//===- lang/Ast.h - MiniRV abstract syntax -----------------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for MiniRV. The language is deliberately small: shared (optionally
/// volatile) 64-bit integer scalars and fixed-size arrays, locks, statically
/// named threads spawned/joined at runtime, wait/notify on locks,
/// structured control flow, and thread-local variables. This covers every
/// construct the paper's traces contain (Figure 3) plus the implicit-branch
/// cases of Section 4 (array accesses with non-constant indices).
///
//===----------------------------------------------------------------------===//

#ifndef RVP_LANG_AST_H
#define RVP_LANG_AST_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rvp {

enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
};

enum class UnOp : uint8_t { Neg, Not };

/// Expression node; a single tagged struct keeps the tree walkable without
/// RTTI.
struct Expr {
  enum class Kind : uint8_t {
    IntLit, ///< IntValue
    Name,   ///< Name (local or shared scalar; resolved by the compiler)
    Index,  ///< Name[ Lhs ] — shared array element
    Unary,  ///< UOp applied to Lhs
    Binary, ///< Lhs Op Rhs
  };

  Kind K;
  uint32_t Line = 0;
  uint32_t Col = 0;
  int64_t IntValue = 0;
  std::string Name;
  BinOp Op = BinOp::Add;
  UnOp UOp = UnOp::Neg;
  std::unique_ptr<Expr> Lhs, Rhs;
};

using ExprPtr = std::unique_ptr<Expr>;

/// Statement node.
struct Stmt {
  enum class Kind : uint8_t {
    LocalDecl,   ///< local Name [= Value]
    Assign,      ///< Name = Value (local or shared scalar)
    ArrayAssign, ///< Name[Index] = Value
    If,          ///< if (Cond) Body [else ElseBody]
    While,       ///< while (Cond) Body
    Lock,        ///< lock Name
    Unlock,      ///< unlock Name
    Sync,        ///< sync Name { Body } — acquire/release wrapper
    Spawn,       ///< spawn Name
    Join,        ///< join Name
    Wait,        ///< wait Name
    Notify,      ///< notify Name
    NotifyAll,   ///< notifyall Name
    Assert,      ///< assert Value — records an error when 0
    Skip,        ///< no-op
  };

  Kind K;
  uint32_t Line = 0;
  uint32_t Col = 0;
  std::string Name;
  ExprPtr Index, Value, Cond;
  std::vector<std::unique_ptr<Stmt>> Body, ElseBody;
};

using StmtPtr = std::unique_ptr<Stmt>;

/// `shared [volatile] name [\[size\]] [= init];`
struct SharedDecl {
  std::string Name;
  bool Volatile = false;
  int64_t Init = 0;
  uint32_t ArraySize = 0; ///< 0 for scalars
  uint32_t Line = 0;
  uint32_t Col = 0;
};

/// `lock name;`
struct LockDecl {
  std::string Name;
  uint32_t Line = 0;
  uint32_t Col = 0;
};

/// `thread name { ... }` or `main { ... }`.
struct ThreadDecl {
  std::string Name;
  bool IsMain = false;
  uint32_t Line = 0;
  uint32_t Col = 0;
  std::vector<StmtPtr> Body;
};

/// A whole MiniRV program.
struct Program {
  std::vector<SharedDecl> Shareds;
  std::vector<LockDecl> Locks;
  std::vector<ThreadDecl> Threads; ///< Threads[0] is main

  const SharedDecl *findShared(const std::string &Name) const {
    for (const SharedDecl &D : Shareds)
      if (D.Name == Name)
        return &D;
    return nullptr;
  }
};

} // namespace rvp

#endif // RVP_LANG_AST_H
