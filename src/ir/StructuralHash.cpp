//===- StructuralHash.cpp - Structural hash/equality for the IR -------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ir/StructuralHash.h"

#include "support/Support.h"

#include <algorithm>
#include <unordered_map>

using namespace lift;
using namespace lift::ir;

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

std::size_t lift::ir::structuralHash(const TypePtr &T) {
  std::size_t H = hashCombine(0x7e9e, static_cast<std::size_t>(T->getKind()));
  switch (T->getKind()) {
  case Type::Kind::Scalar:
    return hashCombine(H, static_cast<std::size_t>(T->getScalarKind()));
  case Type::Kind::Array:
    H = hashCombine(H, T->getSize()->hash());
    return hashCombine(H, structuralHash(T->getElem()));
  case Type::Kind::Tuple:
    for (const TypePtr &C : T->getComponents())
      H = hashCombine(H, structuralHash(C));
    return H;
  }
  unreachable("covered switch");
}

namespace {

// Hash and equality of the payload fields the payload walk visits
// (forEachPayload). User functions compare by name; a constant
// boundary's value only counts for the constant kind.

std::size_t hashPayload(int V) { return static_cast<std::size_t>(V); }
std::size_t hashPayload(const AExpr &V) { return V->hash(); }
std::size_t hashPayload(const UserFunPtr &UF) {
  return std::hash<std::string>()(UF->getName());
}
std::size_t hashPayload(const Boundary &B) {
  std::size_t H = static_cast<std::size_t>(B.K);
  return B.K == Boundary::Kind::Constant
             ? hashCombine(H, std::hash<float>()(B.ConstVal))
             : H;
}
std::size_t hashPayload(const std::vector<AExpr> &Sizes) {
  std::size_t H = Sizes.size();
  for (const AExpr &S : Sizes)
    H = hashCombine(H, S->hash());
  return H;
}

bool payloadEquals(int A, int B) { return A == B; }
bool payloadEquals(const AExpr &A, const AExpr &B) { return exprEquals(A, B); }
bool payloadEquals(const UserFunPtr &A, const UserFunPtr &B) {
  return A->getName() == B->getName();
}
bool payloadEquals(const Boundary &A, const Boundary &B) {
  return A.K == B.K &&
         (A.K != Boundary::Kind::Constant || A.ConstVal == B.ConstVal);
}
bool payloadEquals(const std::vector<AExpr> &A, const std::vector<AExpr> &B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(), exprEquals);
}

/// Node-kind tags mixed into hashes so different constructs with equal
/// children cannot collide trivially.
enum HashTag : std::size_t {
  TagLiteral = 0x11,
  TagBoundParam = 0xb2,
  TagFreeParam = 0xf3,
  TagLambda = 0x1a4,
  TagCall = 0xca5,
};

/// Computes the alpha-invariant hash; bound parameters are numbered in
/// binding order (de Bruijn levels).
class HashVisitor {
public:
  std::size_t hash(const ExprPtr &E) {
    switch (E->getKind()) {
    case Expr::Kind::Literal: {
      Scalar V = dynCast<LiteralExpr>(E)->getValue();
      std::size_t H = hashCombine(TagLiteral,
                                  static_cast<std::size_t>(V.K));
      return hashCombine(H, V.K == ScalarKind::Float
                                ? std::hash<float>()(V.F)
                                : std::hash<std::int32_t>()(V.I));
    }
    case Expr::Kind::Param: {
      const auto *P = static_cast<const ParamExpr *>(E.get());
      auto It = BindIdx.find(P);
      if (It != BindIdx.end())
        return hashCombine(TagBoundParam, It->second);
      // Free parameter: identity is all that distinguishes it.
      return hashCombine(TagFreeParam, std::hash<const void *>()(P));
    }
    case Expr::Kind::Lambda:
      return hashLambda(std::static_pointer_cast<LambdaExpr>(E));
    case Expr::Kind::Call:
      return hashCall(*dynCast<CallExpr>(E));
    }
    unreachable("covered switch");
  }

private:
  std::unordered_map<const ParamExpr *, unsigned> BindIdx;
  unsigned NextIdx = 0;

  std::size_t hashLambda(const LambdaPtr &L) {
    std::size_t H = hashCombine(TagLambda,
                                static_cast<std::size_t>(L->getAddrSpace()));
    H = hashCombine(H, L->getParams().size());
    // Save shadowed bindings so sibling lambdas reusing a parameter
    // object (legal after rule rewrites) hash consistently.
    std::vector<std::pair<const ParamExpr *, unsigned>> Saved;
    for (const ParamPtr &P : L->getParams()) {
      if (const TypePtr &DT = P->getDeclaredType())
        H = hashCombine(H, structuralHash(DT));
      else
        H = hashCombine(H, 0x40);
      auto It = BindIdx.find(P.get());
      if (It != BindIdx.end())
        Saved.emplace_back(P.get(), It->second);
      BindIdx[P.get()] = NextIdx++;
    }
    H = hashCombine(H, hash(L->getBody()));
    for (const ParamPtr &P : L->getParams())
      BindIdx.erase(P.get());
    for (auto &[P, Idx] : Saved)
      BindIdx[P] = Idx;
    return H;
  }

  std::size_t hashCall(const CallExpr &C) {
    std::size_t H = hashCombine(TagCall, static_cast<std::size_t>(C.getPrim()));
    forEachPayload(C.getPrim(), [&](auto Field) {
      H = hashCombine(H, hashPayload(C.*Field));
    });
    for (const ExprPtr &A : C.getArgs())
      H = hashCombine(H, hash(A));
    return H;
  }
};

} // namespace

std::size_t lift::ir::structuralHash(const ExprPtr &E) {
  HashVisitor V;
  return V.hash(E);
}

//===----------------------------------------------------------------------===//
// Equality
//===----------------------------------------------------------------------===//

namespace {

/// Structural equality with a correspondence map between the two sides'
/// bound parameters.
class EqVisitor {
public:
  bool eq(const ExprPtr &A, const ExprPtr &B) {
    // Identical subtrees are equal as long as no bound parameter has
    // been remapped to a different node (always true when comparing a
    // program against itself or against an unrelated clone).
    if (A.get() == B.get() && AllIdentity)
      return true;
    if (A->getKind() != B->getKind())
      return false;
    switch (A->getKind()) {
    case Expr::Kind::Literal:
      return dynCast<LiteralExpr>(A)->getValue() ==
             dynCast<LiteralExpr>(B)->getValue();
    case Expr::Kind::Param: {
      const auto *PA = static_cast<const ParamExpr *>(A.get());
      const auto *PB = static_cast<const ParamExpr *>(B.get());
      auto It = Map.find(PA);
      if (It != Map.end())
        return It->second == PB;
      // Free parameters must be the identical binding.
      return PA == PB;
    }
    case Expr::Kind::Lambda:
      return eqLambda(std::static_pointer_cast<LambdaExpr>(A),
                      std::static_pointer_cast<LambdaExpr>(B));
    case Expr::Kind::Call:
      return eqCall(*dynCast<CallExpr>(A), *dynCast<CallExpr>(B));
    }
    unreachable("covered switch");
  }

private:
  std::unordered_map<const ParamExpr *, const ParamExpr *> Map;
  bool AllIdentity = true;

  static bool eqDeclaredType(const TypePtr &A, const TypePtr &B) {
    if (!A || !B)
      return !A && !B;
    return typeEquals(A, B);
  }

  bool eqLambda(const LambdaPtr &A, const LambdaPtr &B) {
    if (A->getAddrSpace() != B->getAddrSpace() ||
        A->getParams().size() != B->getParams().size())
      return false;
    std::vector<std::pair<const ParamExpr *, const ParamExpr *>> Saved;
    for (std::size_t I = 0, E = A->getParams().size(); I != E; ++I) {
      const ParamExpr *PA = A->getParams()[I].get();
      const ParamExpr *PB = B->getParams()[I].get();
      if (!eqDeclaredType(A->getParams()[I]->getDeclaredType(),
                          B->getParams()[I]->getDeclaredType()))
        return false;
      auto It = Map.find(PA);
      if (It != Map.end())
        Saved.emplace_back(PA, It->second);
      Map[PA] = PB;
      if (PA != PB)
        AllIdentity = false;
    }
    bool Result = eq(A->getBody(), B->getBody());
    for (const ParamPtr &P : A->getParams())
      Map.erase(P.get());
    for (auto &[PA, PB] : Saved)
      Map[PA] = PB;
    return Result;
  }

  bool eqCall(const CallExpr &A, const CallExpr &B) {
    if (A.getPrim() != B.getPrim() ||
        A.getArgs().size() != B.getArgs().size())
      return false;
    bool Same = true;
    forEachPayload(A.getPrim(), [&](auto Field) {
      Same = Same && payloadEquals(A.*Field, B.*Field);
    });
    if (!Same)
      return false;
    for (std::size_t I = 0, E = A.getArgs().size(); I != E; ++I)
      if (!eq(A.getArgs()[I], B.getArgs()[I]))
        return false;
    return true;
  }
};

} // namespace

bool lift::ir::structuralEquals(const ExprPtr &A, const ExprPtr &B) {
  EqVisitor V;
  return V.eq(A, B);
}
