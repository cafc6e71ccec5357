//===- RangeAnalysis.cpp - Symbolic range/refinement analysis ------------===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "analysis/RangeAnalysis.h"

#include "ir/Types.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace lift {
namespace analysis {

namespace {

using Kind = ArithExpr::Kind;

/// Occurrence count of every variable in \p E, plus the Var node
/// itself, which the refinement solver needs and collectVars (ids
/// only) does not give.
void countVars(const AExpr &E,
               std::unordered_map<unsigned, std::pair<unsigned, AExpr>> &Out) {
  if (E->getKind() == Kind::Var) {
    auto &Slot = Out[E->getVarId()];
    ++Slot.first;
    Slot.second = E;
    return;
  }
  for (const AExpr &Op : E->getOperands())
    countVars(Op, Out);
}

/// The coefficient of \p V at the top level of the canonical sum \p E:
/// +1 when a summand is V itself, -1 when a summand is (-1 * V), 0
/// otherwise (V absent from the top level, or scaled/nested).
int topLevelUnitCoeff(const AExpr &E, const AExpr &V) {
  auto TermCoeff = [&](const AExpr &T) -> int {
    if (exprEquals(T, V))
      return 1;
    if (T->getKind() == Kind::Mul && T->getOperands().size() == 2 &&
        T->getOperands()[0]->isCst(-1) && exprEquals(T->getOperands()[1], V))
      return -1;
    return 0;
  };
  if (E->getKind() != Kind::Add)
    return TermCoeff(E);
  for (const AExpr &T : E->getOperands())
    if (int C = TermCoeff(T))
      return C;
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Facts
//===----------------------------------------------------------------------===//

Facts Facts::withBound(unsigned VarId, AExpr Lo, AExpr Hi) const {
  Facts Out = *this;
  Refinement &R = Out.Refs[VarId];
  if (Lo)
    R.Lo = R.Lo ? amax(R.Lo, std::move(Lo)) : std::move(Lo);
  if (Hi)
    R.Hi = R.Hi ? amin(R.Hi, std::move(Hi)) : std::move(Hi);
  return Out;
}

Facts Facts::withLoopVar(const AExpr &LoopVar, const AExpr &Count) const {
  if (LoopVar->getKind() != Kind::Var)
    fatalError("Facts::withLoopVar needs a Var node");
  // Counts of the form max(c, X) with c <= 0 (the zero-clamped extents
  // of split edge/interior loops) tighten inside the body: iterations
  // exist only when the count is positive, and then max(c, X) == X.
  AExpr Eff = Count;
  if (Count->getKind() == Kind::Max) {
    const auto &Ops = Count->getOperands();
    if (Ops[0]->getKind() == Kind::Cst && Ops[0]->getCst() <= 0)
      Eff = Ops[1];
    else if (Ops[1]->getKind() == Kind::Cst && Ops[1]->getCst() <= 0)
      Eff = Ops[0];
  }
  return withBound(LoopVar->getVarId(), cst(0), sub(Eff, cst(1)));
}

Facts Facts::withSizeEnv(
    const std::unordered_map<unsigned, std::int64_t> &Env) const {
  Facts Out = *this;
  for (const auto &[Id, V] : Env) {
    Refinement &R = Out.Refs[Id];
    R.Lo = cst(V);
    R.Hi = cst(V);
  }
  return Out;
}

Facts Facts::withCheckFact(const AExpr &Idx, const AExpr &Lo,
                           const AExpr &Hi) const {
  std::unordered_map<unsigned, std::pair<unsigned, AExpr>> Occ;
  countVars(Idx, Occ);
  // Prefer the largest id: variables are created outside-in, so the
  // largest is the innermost loop variable — the one worth refining.
  unsigned BestId = 0;
  const AExpr *BestVar = nullptr;
  int BestCoeff = 0;
  for (const auto &[Id, CountAndVar] : Occ) {
    if (CountAndVar.first != 1)
      continue;
    int C = topLevelUnitCoeff(Idx, CountAndVar.second);
    if (C == 0)
      continue;
    if (!BestVar || Id > BestId) {
      BestId = Id;
      BestVar = &CountAndVar.second;
      BestCoeff = C;
    }
  }
  if (!BestVar)
    return *this;
  // Idx = coeff * v + rest. Lo <= Idx <= Hi - 1 solves to bounds on v;
  // the canonicalizer cancels v out of `rest` exactly because it
  // occurred once with unit coefficient.
  AExpr Rest = sub(Idx, mul(cst(BestCoeff), *BestVar));
  AExpr VLo, VHi;
  if (BestCoeff > 0) {
    VLo = sub(Lo, Rest);
    VHi = sub(sub(Hi, cst(1)), Rest);
  } else {
    VLo = sub(Rest, sub(Hi, cst(1)));
    VHi = sub(Rest, Lo);
  }
  return withBound(BestId, std::move(VLo), std::move(VHi));
}

Facts Facts::join(const Facts &Other) const {
  Facts Out;
  for (const auto &[Id, R] : Refs) {
    auto It = Other.Refs.find(Id);
    if (It == Other.Refs.end())
      continue;
    Refinement J;
    if (R.Lo && It->second.Lo)
      J.Lo = amin(R.Lo, It->second.Lo);
    if (R.Hi && It->second.Hi)
      J.Hi = amax(R.Hi, It->second.Hi);
    if (J.Lo || J.Hi)
      Out.Refs[Id] = std::move(J);
  }
  return Out;
}

const Refinement *Facts::refinement(unsigned VarId) const {
  auto It = Refs.find(VarId);
  return It == Refs.end() ? nullptr : &It->second;
}

//===----------------------------------------------------------------------===//
// Symbolic bounds
//===----------------------------------------------------------------------===//

namespace {

/// Recursion state for one bound query: the fact set, the set of
/// variables currently being expanded (cycle guard — two variables may
/// be refined in terms of each other), and a depth fuse. The fallback
/// at every bail-out is the expression itself, which is always a sound
/// bound (E <= E <= E).
/// min/max constructors that collapse when the sign of the difference
/// is decided by the interval domain; the plain factories keep e.g.
/// min(d2, d2 - 1) symbolic, which blocks downstream cancellation.
AExpr tightMin(AExpr A, AExpr B) {
  Range D = sub(A, B)->getRange();
  if (D.atMost(0))
    return A;
  if (D.atLeast(0))
    return B;
  return amin(std::move(A), std::move(B));
}

AExpr tightMax(AExpr A, AExpr B) {
  Range D = sub(A, B)->getRange();
  if (D.atLeast(0))
    return A;
  if (D.atMost(0))
    return B;
  return amax(std::move(A), std::move(B));
}

struct BoundCtx {
  explicit BoundCtx(const Facts &F) : F(F) {}

  const Facts &F;
  std::unordered_set<unsigned> Active;
  int Depth = 0;

  static constexpr int MaxDepth = 64;

  AExpr bound(const AExpr &E, bool Upper) {
    if (Depth >= MaxDepth)
      return E;
    ++Depth;
    AExpr R = boundImpl(E, Upper);
    --Depth;
    return R;
  }

private:
  AExpr boundImpl(const AExpr &E, bool Upper) {
    switch (E->getKind()) {
    case Kind::Cst:
      return E;
    case Kind::Var: {
      unsigned Id = E->getVarId();
      const Refinement *R = F.refinement(Id);
      if (!R || Active.count(Id))
        return E;
      const AExpr &B = Upper ? R->Hi : R->Lo;
      if (!B)
        return E;
      Active.insert(Id);
      AExpr Out = bound(B, Upper);
      Active.erase(Id);
      return Out;
    }
    case Kind::Add: {
      AExpr Sum = cst(0);
      for (const AExpr &Op : E->getOperands())
        Sum = add(Sum, bound(Op, Upper));
      return Sum;
    }
    case Kind::Mul: {
      // C * f0 * f1 * ...: bound exactly one factor, keep the rest.
      // Sound when every kept symbolic factor is provably >= 0 and the
      // bounding direction accounts for the sign of the constant.
      const auto &Ops = E->getOperands();
      std::int64_t C = 1;
      std::size_t First = 0;
      if (!Ops.empty() && Ops[0]->getKind() == Kind::Cst) {
        C = Ops[0]->getCst();
        First = 1;
      }
      bool FactorUpper = (C < 0) ? !Upper : Upper;
      std::size_t Changed = 0;
      std::vector<AExpr> NewOps;
      NewOps.reserve(Ops.size() - First);
      for (std::size_t I = First; I != Ops.size(); ++I) {
        AExpr B = bound(Ops[I], FactorUpper);
        if (!exprEquals(B, Ops[I]))
          ++Changed;
        NewOps.push_back(std::move(B));
      }
      if (Changed == 0)
        return E;
      if (Changed > 1)
        return E;
      for (std::size_t I = First; I != Ops.size(); ++I)
        if (exprEquals(NewOps[I - First], Ops[I]) &&
            !Ops[I]->getRange().atLeast(0))
          return E;
      AExpr Out = cst(C);
      for (AExpr &Op : NewOps)
        Out = mul(Out, std::move(Op));
      return Out;
    }
    case Kind::Div: {
      // Floor division is monotone in the numerator for a positive
      // constant divisor.
      const AExpr &Num = E->getOperands()[0];
      const AExpr &Den = E->getOperands()[1];
      if (Den->getKind() != Kind::Cst || Den->getCst() < 1)
        return E;
      AExpr B = bound(Num, Upper);
      if (exprEquals(B, Num))
        return E;
      return floorDiv(B, Den);
    }
    case Kind::Mod: {
      // a mod b lies in [0, b-1] for b >= 1.
      const AExpr &Den = E->getOperands()[1];
      AExpr DenLo = bound(Den, /*Upper=*/false);
      if (!DenLo->getRange().atLeast(1))
        return E;
      if (!Upper)
        return cst(0);
      return sub(bound(Den, /*Upper=*/true), cst(1));
    }
    case Kind::Min: {
      AExpr A = bound(E->getOperands()[0], Upper);
      AExpr B = bound(E->getOperands()[1], Upper);
      return tightMin(std::move(A), std::move(B));
    }
    case Kind::Max: {
      AExpr A = bound(E->getOperands()[0], Upper);
      AExpr B = bound(E->getOperands()[1], Upper);
      return tightMax(std::move(A), std::move(B));
    }
    }
    return E;
  }
};

} // namespace

AExpr lowerBound(const AExpr &E, const Facts &F) {
  BoundCtx C(F);
  return C.bound(E, /*Upper=*/false);
}

AExpr upperBound(const AExpr &E, const Facts &F) {
  BoundCtx C(F);
  return C.bound(E, /*Upper=*/true);
}

namespace {

/// Rebuilds \p E with every occurrence of the node \p Target replaced
/// by \p Repl (node identity via structural equality; interning makes
/// equal subtrees one node, so all occurrences are caught).
AExpr replaceNode(const AExpr &E, const AExpr &Target, const AExpr &Repl) {
  return rebuild(E, [&](const AExpr &N, const std::vector<AExpr> &) {
    return exprEquals(N, Target) ? Repl : AExpr();
  });
}

/// First Min/Max node of \p E in pre-order, or nullptr.
AExpr findMinMax(const AExpr &E) {
  if (E->getKind() == Kind::Min || E->getKind() == Kind::Max)
    return E;
  for (const AExpr &Op : E->getOperands())
    if (AExpr M = findMinMax(Op))
      return M;
  return nullptr;
}

bool containsNode(const AExpr &E, const AExpr &T) {
  if (exprEquals(E, T))
    return true;
  for (const AExpr &Op : E->getOperands())
    if (containsNode(Op, T))
      return true;
  return false;
}

constexpr int CtxInc = 1, CtxDec = 2, CtxUnknown = 4;

/// Accumulates a bitmask of the monotonicity contexts in which the atom
/// \p M occurs within \p E: increasing, decreasing, or unknown. Add and
/// Min/Max preserve the sign; a Mul flips it with a negative leading
/// constant and is only sign-definite when the co-factors are provably
/// nonnegative; Div keeps it for positive constant divisors; Mod loses
/// it.
void collectCtx(const AExpr &E, const AExpr &M, int Sign, int &Out) {
  if (exprEquals(E, M)) {
    Out |= Sign > 0 ? CtxInc : Sign < 0 ? CtxDec : CtxUnknown;
    return;
  }
  switch (E->getKind()) {
  case Kind::Add:
  case Kind::Min:
  case Kind::Max:
    for (const AExpr &Op : E->getOperands())
      if (containsNode(Op, M))
        collectCtx(Op, M, Sign, Out);
    return;
  case Kind::Mul: {
    const auto &Ops = E->getOperands();
    int S = Sign;
    std::size_t First = 0;
    if (!Ops.empty() && Ops[0]->getKind() == Kind::Cst) {
      if (Ops[0]->getCst() < 0)
        S = -S;
      First = 1;
    }
    for (std::size_t I = First; I != Ops.size(); ++I) {
      if (!containsNode(Ops[I], M))
        continue;
      bool OthersNonNeg = true;
      for (std::size_t J = First; J != Ops.size(); ++J)
        if (J != I && !Ops[J]->getRange().atLeast(0))
          OthersNonNeg = false;
      collectCtx(Ops[I], M, OthersNonNeg ? S : 0, Out);
    }
    return;
  }
  case Kind::Div: {
    const AExpr &Num = E->getOperands()[0];
    const AExpr &Den = E->getOperands()[1];
    bool DenOk = Den->getKind() == Kind::Cst && Den->getCst() >= 1;
    if (containsNode(Num, M))
      collectCtx(Num, M, DenOk ? Sign : 0, Out);
    if (containsNode(Den, M))
      collectCtx(Den, M, 0, Out);
    return;
  }
  default:
    for (const AExpr &Op : E->getOperands())
      if (containsNode(Op, M))
        collectCtx(Op, M, 0, Out);
    return;
  }
}

bool proveNonNeg(const AExpr &E, int Budget);

/// Factoring rule for flat sums the interval domain cannot correlate,
/// e.g. d0*d1 - d1 (>= 0 because it is d1 * (d0 - 1)): pick a
/// provably-nonnegative variable V, split the sum as V * Q + R, and
/// prove Q >= 0 and R >= 0 separately.
bool proveNonNegByFactoring(const AExpr &E, int Budget) {
  if (E->getKind() != Kind::Add)
    return false;
  // Candidate factors: variables occurring as a direct multiplicand of
  // some summand, nonnegative by declared range, in id order for
  // determinism.
  std::vector<AExpr> Cands;
  auto Consider = [&](const AExpr &V) {
    if (V->getKind() != Kind::Var || !V->getRange().atLeast(0))
      return;
    for (const AExpr &C : Cands)
      if (exprEquals(C, V))
        return;
    Cands.push_back(V);
  };
  for (const AExpr &T : E->getOperands()) {
    if (T->getKind() == Kind::Var)
      Consider(T);
    else if (T->getKind() == Kind::Mul)
      for (const AExpr &F : T->getOperands())
        Consider(F);
  }
  for (const AExpr &V : Cands) {
    AExpr Q = cst(0), R = cst(0);
    for (const AExpr &T : E->getOperands()) {
      if (exprEquals(T, V)) {
        Q = add(Q, cst(1));
        continue;
      }
      AExpr Quot;
      if (T->getKind() == Kind::Mul) {
        // Remove one occurrence of V from the product.
        std::size_t Hit = T->getOperands().size();
        for (std::size_t I = 0; I != T->getOperands().size(); ++I)
          if (exprEquals(T->getOperands()[I], V)) {
            Hit = I;
            break;
          }
        if (Hit != T->getOperands().size()) {
          Quot = cst(1);
          for (std::size_t I = 0; I != T->getOperands().size(); ++I)
            if (I != Hit)
              Quot = mul(Quot, T->getOperands()[I]);
        }
      }
      if (Quot)
        Q = add(Q, Quot);
      else
        R = add(R, T);
    }
    if (Q->isCst(0))
      continue;
    if (proveNonNeg(Q, Budget - 1) && proveNonNeg(R, Budget - 1))
      return true;
  }
  return false;
}

/// Proves E >= 0 for all assignments (of an already var-bounded
/// expression) by interval analysis, factoring, plus case-splitting on
/// Min/Max atoms: pointwise, min(a,b) and max(a,b) each equal one of
/// their operands, so E >= 0 follows when both substitutions prove.
bool proveNonNeg(const AExpr &E, int Budget) {
  if (E->getRange().atLeast(0))
    return true;
  if (Budget <= 0)
    return false;
  if (proveNonNegByFactoring(E, Budget))
    return true;
  AExpr M = findMinMax(E);
  if (!M)
    return false;
  const AExpr &A = M->getOperands()[0];
  const AExpr &B = M->getOperands()[1];
  // One-branch rule: when E is monotone decreasing in a Min atom (or
  // increasing in a Max atom), substituting EITHER operand only moves E
  // down — min(a,b) <= a and <= b pointwise — so a single provable
  // branch suffices, and the branch constraint (a <= b) is never
  // needed.
  int Ctx = 0;
  collectCtx(E, M, +1, Ctx);
  if ((M->getKind() == Kind::Min && Ctx == CtxDec) ||
      (M->getKind() == Kind::Max && Ctx == CtxInc)) {
    for (const AExpr &Op : M->getOperands())
      if (proveNonNeg(replaceNode(E, M, Op), Budget - 1))
        return true;
  }
  for (const AExpr &Op : M->getOperands()) {
    // Skip branches that can never be the extremum: min(a,b) = a
    // requires a <= b somewhere, so if a - b >= 1 everywhere the
    // a-branch is vacuous (dually for max).
    const AExpr &Other = (Op.get() == A.get()) ? B : A;
    Range DR = sub(Op, Other)->getRange();
    if (M->getKind() == Kind::Min ? DR.atLeast(1) : DR.atMost(-1))
      continue;
    if (!proveNonNeg(replaceNode(E, M, Op), Budget - 1))
      return false;
  }
  return true;
}

} // namespace

bool provablyLE(const AExpr &A, const AExpr &B, const Facts &F) {
  // The declared variable ranges may already settle it.
  AExpr D = sub(B, A);
  if (D->getRange().atLeast(0))
    return true;
  // Bound the *difference*: canonicalization has already cancelled the
  // terms shared by A and B, so the refinements only need to cover what
  // genuinely differs. Residual Min/Max atoms (clamped extents, edge
  // bounds) are discharged by case-splitting.
  if (proveNonNeg(lowerBound(D, F), 6))
    return true;
  // Last resort: bound each side separately.
  AExpr Gap = sub(lowerBound(B, F), upperBound(A, F));
  return proveNonNeg(Gap, 6);
}

bool provablyInBounds(const AExpr &I, const AExpr &Lo, const AExpr &HiExcl,
                      const Facts &F) {
  return provablyLE(Lo, I, F) && provablyLE(I, sub(HiExcl, cst(1)), F);
}

//===----------------------------------------------------------------------===//
// Fact-driven simplification
//===----------------------------------------------------------------------===//

AExpr simplifyWithFacts(const AExpr &E, const Facts &F) {
  return rebuild(E, [&](const AExpr &N, const std::vector<AExpr> &Ops) {
    const AExpr None;
    switch (N->getKind()) {
    case Kind::Mod:
      // a mod b == a whenever 0 <= a < b.
      return provablyInBounds(Ops[0], cst(0), Ops[1], F) ? Ops[0] : None;
    case Kind::Min:
      return provablyLE(Ops[0], Ops[1], F)   ? Ops[0]
             : provablyLE(Ops[1], Ops[0], F) ? Ops[1]
                                             : None;
    case Kind::Max:
      return provablyLE(Ops[1], Ops[0], F)   ? Ops[0]
             : provablyLE(Ops[0], Ops[1], F) ? Ops[1]
                                             : None;
    default:
      return None;
    }
  });
}

//===----------------------------------------------------------------------===//
// Split-divisibility refutation
//===----------------------------------------------------------------------===//

namespace {

void refuteWalk(const ir::ExprPtr &E,
                const std::unordered_map<unsigned, std::int64_t> &Sizes,
                std::optional<std::string> &Out) {
  if (!E || Out)
    return;
  if (const auto *L = ir::dynCast<ir::LambdaExpr>(E)) {
    refuteWalk(L->getBody(), Sizes, Out);
    return;
  }
  const auto *C = ir::dynCast<ir::CallExpr>(E);
  if (!C)
    return;
  if (C->getPrim() == ir::Prim::Split && !C->getArgs().empty()) {
    // The divisibility side condition lives on the *input* length: the
    // result type [[T]m]{n/m} only exists when m | n.
    const ir::TypePtr &InTy = C->getArgs().back()->getType();
    if (InTy && InTy->getKind() == ir::Type::Kind::Array && C->Factor) {
      auto L = InTy->getSize()->tryEvaluate(Sizes);
      auto M = C->Factor->tryEvaluate(Sizes);
      if (L && M && (*M <= 0 || *L % *M != 0)) {
        char Buf[256];
        std::snprintf(Buf, sizeof(Buf),
                      "split(%lld) does not divide input length %s = %lld "
                      "(remainder %lld)",
                      (long long)*M, InTy->getSize()->toString().c_str(),
                      (long long)*L,
                      (long long)(*M > 0 ? *L % *M : *L));
        Out = Buf;
        return;
      }
    }
  }
  for (const ir::ExprPtr &A : C->getArgs())
    refuteWalk(A, Sizes, Out);
}

} // namespace

std::optional<std::string> refuteSplitDivisibility(
    const ir::Program &P,
    const std::unordered_map<unsigned, std::int64_t> &Sizes) {
  std::optional<std::string> Out;
  if (P)
    refuteWalk(P->getBody(), Sizes, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Static kernel bounds checking
//===----------------------------------------------------------------------===//

std::vector<BoundsViolation> checkKernelBounds(
    const ocl::Kernel &K,
    const std::unordered_map<unsigned, std::int64_t> *Sizes) {
  // Bound sizes become constants. Symbolically, a size whose valid
  // range the lowering narrowed (ocl::SizeArg::Valid) becomes a
  // same-named variable declared with that range: the kernel is only
  // valid there, and declared ranges are what every proof step can use.
  std::unordered_map<unsigned, AExpr> Subst;
  if (Sizes) {
    for (const auto &[Id, V] : *Sizes)
      Subst.emplace(Id, cst(V));
  } else {
    for (const ocl::SizeArg &SA : K.SizeArgs)
      if (SA.Valid)
        Subst.emplace(SA.VarId, var(SA.Name, *SA.Valid));
  }
  auto Inst = [&](const AExpr &E) {
    return Subst.empty() ? E : substitute(E, Subst);
  };
  // The loop-bound facts inside each loop's body, built outermost first
  // (pre-order reaches a loop before anything it encloses).
  std::unordered_map<const ocl::Stmt *, Facts> BodyFacts;
  auto LoopFacts = [&](const ocl::WalkContext &C) {
    return C.Loops.empty() ? Facts() : BodyFacts.at(C.Loops.back());
  };
  std::vector<BoundsViolation> Violations;
  auto Check = [&](bool IsStore, int BufferId, const AExpr &Index,
                   const ocl::WalkContext &C) {
    // A guarded branch only executes when each of its checks holds.
    Facts F = LoopFacts(C);
    for (const ocl::BoundsCheck *G : C.Guards)
      F = F.withCheckFact(Inst(G->Idx), Inst(G->Lo), Inst(G->Hi));
    const ocl::BufferDecl &B = K.buffer(BufferId);
    AExpr Idx = simplifyWithFacts(Inst(Index), F);
    AExpr N = Inst(B.NumElems);
    if (!provablyInBounds(Idx, cst(0), N, F))
      Violations.push_back({IsStore, B.Name, Idx->toString(), N->toString()});
  };
  ocl::walkKernel(
      K.Body,
      [&](const ocl::Stmt &S, const ocl::WalkContext &C) {
        if (S.K == ocl::Stmt::Kind::Loop)
          BodyFacts[&S] = LoopFacts(C).withLoopVar(S.LoopVar, Inst(S.Count));
        else if (S.K == ocl::Stmt::Kind::Store)
          Check(/*IsStore=*/true, S.BufferId, S.Index, C);
      },
      [&](const ocl::KExpr &E, const ocl::WalkContext &C) {
        if (E.K == ocl::KExpr::Kind::Load)
          Check(/*IsStore=*/false, E.BufferId, E.Index, C);
      });
  return Violations;
}

std::string describeViolations(const std::vector<BoundsViolation> &V) {
  std::string Out;
  for (const BoundsViolation &B : V) {
    Out += B.IsStore ? "store" : "load";
    Out += " of buffer '" + B.BufferName + "': index " + B.Index +
           " not provably within [0, " + B.Extent + ")\n";
  }
  return Out;
}

} // namespace analysis
} // namespace lift
