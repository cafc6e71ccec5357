//===- Rules.cpp - Rewrite rules over the Lift IR -----------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "rewrite/Rules.h"

#include "ir/TypeInference.h"
#include "obs/Metrics.h"
#include "support/Support.h"

#include <cassert>

using namespace lift;
using namespace lift::ir;
using namespace lift::rewrite;

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

/// Bumps the per-rule match/apply metrics ("rewrite.rule.match.<name>"
/// and "rewrite.rule.apply.<name>"). Counters are pure sums, so the
/// totals are identical for any tuner/simulator thread count. Called
/// once per scan or used rewrite, never per visited node.
static void noteRuleMatches(const Rule &R, int N) {
  if (N > 0)
    obs::Registry::global().counter("rewrite.rule.match." + R.Name).inc(
        std::uint64_t(N));
}

void lift::rewrite::noteRuleApplications(const Rule &R, int N) {
  if (N > 0)
    obs::Registry::global().counter("rewrite.rule.apply." + R.Name).inc(
        std::uint64_t(N));
}

/// Appends, for each pre-order match of \p R inside \p E, a copy of
/// \p E with that match rewritten. A match's own subtree is searched
/// too, so nested matches get later occurrence numbers; each result is
/// rebuilt along its path and shares every other subtree with \p E.
static void applyEachRec(const Rule &R, const ExprPtr &E,
                         std::vector<ExprPtr> &Out) {
  if (ExprPtr New = R.Apply(E))
    Out.push_back(std::move(New));
  switch (E->getKind()) {
  case Expr::Kind::Literal:
  case Expr::Kind::Param:
    return;
  case Expr::Kind::Lambda: {
    const auto *L = dynCast<LambdaExpr>(E);
    std::size_t First = Out.size();
    applyEachRec(R, L->getBody(), Out);
    for (std::size_t K = First; K != Out.size(); ++K)
      Out[K] = lambda(L->getParams(), std::move(Out[K]), L->getAddrSpace());
    return;
  }
  case Expr::Kind::Call: {
    const auto *C = dynCast<CallExpr>(E);
    for (std::size_t I = 0, N = C->getArgs().size(); I != N; ++I) {
      std::size_t First = Out.size();
      applyEachRec(R, C->getArgs()[I], Out);
      for (std::size_t K = First; K != Out.size(); ++K) {
        std::vector<ExprPtr> Args = C->getArgs();
        Args[I] = std::move(Out[K]);
        Out[K] = C->withArgs(std::move(Args));
      }
    }
    return;
  }
  }
  unreachable("covered switch");
}

std::vector<ExprPtr> lift::rewrite::applyEach(const Rule &R,
                                              const ExprPtr &E) {
  std::vector<ExprPtr> Out;
  applyEachRec(R, E, Out);
  noteRuleMatches(R, int(Out.size()));
  return Out;
}

static ExprPtr applyEverywhereRec(const Rule &R, const ExprPtr &E,
                                  int &Applications) {
  // Bottom-up: rewrite children first, then try the node itself.
  ExprPtr Cur = E;
  switch (E->getKind()) {
  case Expr::Kind::Literal:
  case Expr::Kind::Param:
    break;
  case Expr::Kind::Lambda: {
    const auto *L = dynCast<LambdaExpr>(E);
    ExprPtr NewBody = applyEverywhereRec(R, L->getBody(), Applications);
    if (NewBody.get() != L->getBody().get())
      Cur = lambda(L->getParams(), std::move(NewBody), L->getAddrSpace());
    break;
  }
  case Expr::Kind::Call: {
    const auto *C = dynCast<CallExpr>(E);
    std::vector<ExprPtr> Args = C->getArgs();
    bool Changed = false;
    for (ExprPtr &A : Args) {
      ExprPtr NewArg = applyEverywhereRec(R, A, Applications);
      Changed |= NewArg.get() != A.get();
      A = std::move(NewArg);
    }
    if (Changed)
      Cur = C->withArgs(std::move(Args));
    break;
  }
  }
  if (ExprPtr New = R.Apply(Cur)) {
    ++Applications;
    return New;
  }
  return Cur;
}

ExprPtr lift::rewrite::applyEverywhere(const Rule &R, const ExprPtr &E,
                                       int &Applications) {
  int Before = Applications;
  ExprPtr New = applyEverywhereRec(R, E, Applications);
  noteRuleApplications(R, Applications - Before);
  return New;
}

Program lift::rewrite::rewriteProgram(const Rule &R, const Program &P) {
  // Clone first so rewritten results never share mutable type state
  // with the original program; infer types so rules may inspect them
  // (e.g. reduceUnroll's constant-length requirement).
  Program Copy = cloneProgram(P);
  inferTypes(Copy);
  std::vector<ExprPtr> Rewrites = applyEach(R, Copy->getBody());
  if (Rewrites.empty())
    return nullptr;
  noteRuleApplications(R, 1);
  Program Result = makeProgram(Copy->getParams(), std::move(Rewrites[0]));
  inferTypes(Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

static LambdaPtr cloneLambda(const LambdaPtr &F) {
  return std::static_pointer_cast<LambdaExpr>(
      deepClone(std::static_pointer_cast<Expr>(F)));
}

static const CallExpr *asCallOf(const ExprPtr &E, Prim P) {
  const auto *C = dynCast<CallExpr>(E);
  return (C && C->getPrim() == P) ? C : nullptr;
}

static LambdaPtr lambdaOf(const CallExpr &C, std::size_t I = 0) {
  return std::static_pointer_cast<LambdaExpr>(C.getArgs()[I]);
}

//===----------------------------------------------------------------------===//
// Pre-existing Lift rules
//===----------------------------------------------------------------------===//

Rule lift::rewrite::mapFusionRule() {
  Rule R;
  R.Name = "mapFusion";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *Outer = asCallOf(E, Prim::Map);
    if (!Outer)
      return nullptr;
    const CallExpr *Inner = asCallOf(Outer->getArgs()[1], Prim::Map);
    if (!Inner)
      return nullptr;
    LambdaPtr F = lambdaOf(*Outer);
    LambdaPtr G = lambdaOf(*Inner);
    // map(f, map(g, in)) -> map(\x. f(g(x)), in)
    LambdaPtr Fused = lam("x", [&](ExprPtr X) {
      ExprPtr GX = betaReduce(G, {X});
      std::unordered_map<const ParamExpr *, ExprPtr> Subst{
          {F->getParams()[0].get(), GX}};
      return substituteParams(F->getBody(), Subst);
    });
    return map(Fused, Inner->getArgs()[1]);
  };
  return R;
}

Rule lift::rewrite::splitJoinRule(AExpr ChunkSize) {
  Rule R;
  R.Name = "splitJoin";
  R.Apply = [ChunkSize](const ExprPtr &E) -> ExprPtr {
    const CallExpr *C = asCallOf(E, Prim::Map);
    if (!C)
      return nullptr;
    // split(m) requires m to divide the length; reject statically known
    // violations (symbolic lengths are the caller's obligation).
    const TypePtr &InTy = C->getArgs()[1]->getType();
    if (InTy && InTy->getKind() == Type::Kind::Array &&
        InTy->getSize()->getKind() == ArithExpr::Kind::Cst &&
        ChunkSize->getKind() == ArithExpr::Kind::Cst &&
        InTy->getSize()->getCst() % ChunkSize->getCst() != 0)
      return nullptr;
    LambdaPtr F = lambdaOf(*C);
    LambdaPtr PerChunk = lam("chunk", [&](ExprPtr Chunk) {
      return map(cloneLambda(F), Chunk);
    });
    return join(map(PerChunk, split(ChunkSize, C->getArgs()[1])));
  };
  return R;
}

Rule lift::rewrite::mapToSeqRule() {
  Rule R;
  R.Name = "mapToSeq";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *C = asCallOf(E, Prim::Map);
    if (!C)
      return nullptr;
    LambdaPtr F = lambdaOf(*C);
    // Layout-only maps stay high level: the view system absorbs them.
    if (isLayoutOnly(F->getBody()))
      return nullptr;
    return mapSeq(F, C->getArgs()[1]);
  };
  return R;
}

Rule lift::rewrite::reduceToSeqRule() {
  Rule R;
  R.Name = "reduceToSeq";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *C = asCallOf(E, Prim::Reduce);
    if (!C)
      return nullptr;
    return reduceSeq(lambdaOf(*C), C->getArgs()[1], C->getArgs()[2]);
  };
  return R;
}

Rule lift::rewrite::iterateExpandRule() {
  Rule R;
  R.Name = "iterateExpand";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *C = asCallOf(E, Prim::Iterate);
    if (!C)
      return nullptr;
    ExprPtr Result = C->getArgs()[1];
    LambdaPtr F = lambdaOf(*C);
    for (int I = 0; I != C->IterCount; ++I)
      Result = betaReduce(cloneLambda(F), {Result});
    return Result;
  };
  return R;
}

//===----------------------------------------------------------------------===//
// Simplification rules
//===----------------------------------------------------------------------===//

Rule lift::rewrite::transposeTransposeRule() {
  Rule R;
  R.Name = "transposeTranspose";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *Outer = asCallOf(E, Prim::Transpose);
    if (!Outer)
      return nullptr;
    const CallExpr *Inner = asCallOf(Outer->getArgs()[0], Prim::Transpose);
    if (!Inner)
      return nullptr;
    return Inner->getArgs()[0];
  };
  return R;
}

Rule lift::rewrite::joinSplitRule() {
  Rule R;
  R.Name = "joinSplit";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *J = asCallOf(E, Prim::Join);
    if (!J)
      return nullptr;
    const CallExpr *S = asCallOf(J->getArgs()[0], Prim::Split);
    if (!S)
      return nullptr;
    return S->getArgs()[0];
  };
  return R;
}

Rule lift::rewrite::splitJoinEliminationRule() {
  Rule R;
  R.Name = "splitJoinElimination";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *S = asCallOf(E, Prim::Split);
    if (!S)
      return nullptr;
    const CallExpr *J = asCallOf(S->getArgs()[0], Prim::Join);
    if (!J)
      return nullptr;
    // Only when the split factor equals the joined inner size.
    const TypePtr &InnerTy = J->getArgs()[0]->getType();
    if (!InnerTy || InnerTy->getKind() != Type::Kind::Array ||
        InnerTy->getElem()->getKind() != Type::Kind::Array)
      return nullptr;
    if (!exprEquals(InnerTy->getElem()->getSize(), S->Factor))
      return nullptr;
    return J->getArgs()[0];
  };
  return R;
}

Rule lift::rewrite::padPadMergeRule() {
  Rule R;
  R.Name = "padPadMerge";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *Outer = asCallOf(E, Prim::Pad);
    if (!Outer)
      return nullptr;
    const CallExpr *Inner = asCallOf(Outer->getArgs()[0], Prim::Pad);
    if (!Inner)
      return nullptr;
    bool SameKind = Outer->Bdy.K == Inner->Bdy.K;
    bool Mergeable =
        SameKind && (Outer->Bdy.K == Boundary::Kind::Clamp ||
                     (Outer->Bdy.K == Boundary::Kind::Constant &&
                      Outer->Bdy.ConstVal == Inner->Bdy.ConstVal));
    if (!Mergeable)
      return nullptr;
    return pad(add(Outer->PadL, Inner->PadL), add(Outer->PadR, Inner->PadR),
               Outer->Bdy, Inner->getArgs()[0]);
  };
  return R;
}

Rule lift::rewrite::mapIdEliminationRule() {
  Rule R;
  R.Name = "mapIdElimination";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *M = asCallOf(E, Prim::Map);
    if (!M)
      return nullptr;
    LambdaPtr F = lambdaOf(*M);
    const CallExpr *Body = asCallOf(F->getBody(), Prim::UserFunCall);
    if (!Body)
      return nullptr;
    bool IsId = Body->UF.get() == ufIdFloat().get() ||
                Body->UF.get() == ufIdInt().get();
    if (!IsId || Body->getArgs()[0].get() != F->getParams()[0].get())
      return nullptr;
    return M->getArgs()[1];
  };
  return R;
}

ExprPtr lift::rewrite::simplify(const ExprPtr &E) {
  const Rule Rules[] = {transposeTransposeRule(), joinSplitRule(),
                        splitJoinEliminationRule(), padPadMergeRule(),
                        mapIdEliminationRule()};
  ExprPtr Cur = E;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const Rule &R : Rules) {
      int Applications = 0;
      Cur = applyEverywhere(R, Cur, Applications);
      Changed |= Applications != 0;
    }
  }
  return Cur;
}

//===----------------------------------------------------------------------===//
// Stencil-specific rules
//===----------------------------------------------------------------------===//

Rule lift::rewrite::tiling1DRule(std::int64_t TileOutputs) {
  Rule R;
  R.Name = "overlappedTiling1D";
  R.Apply = [TileOutputs](const ExprPtr &E) -> ExprPtr {
    const CallExpr *M = asCallOf(E, Prim::Map);
    if (!M)
      return nullptr;
    const CallExpr *S = asCallOf(M->getArgs()[1], Prim::Slide);
    if (!S)
      return nullptr;
    LambdaPtr F = lambdaOf(*M);
    // Validity (§4.1): u - v == size - step, and additionally the tile
    // step v must be a multiple of the window step so the windows
    // inside tiles line up with the untiled window grid.
    if (S->Step->getKind() == ArithExpr::Kind::Cst &&
        TileOutputs % S->Step->getCst() != 0)
      return nullptr;
    AExpr V = cst(TileOutputs);
    AExpr U = add(V, sub(S->Size, S->Step));
    // When the slided array's length is statically known, reject
    // parameter choices that do not tile it exactly ((len - u) % v must
    // be 0 and the tile must fit). With symbolic lengths this becomes
    // the caller's obligation (the tuner enforces it via divisibility
    // constraints).
    const TypePtr &InTy = S->getArgs()[0]->getType();
    if (InTy && InTy->getKind() == Type::Kind::Array &&
        InTy->getSize()->getKind() == ArithExpr::Kind::Cst &&
        U->getKind() == ArithExpr::Kind::Cst) {
      std::int64_t Len = InTy->getSize()->getCst();
      std::int64_t UC = U->getCst();
      if (Len < UC || (Len - UC) % TileOutputs != 0)
        return nullptr;
    }
    LambdaPtr PerTile = lam("tile", [&](ExprPtr Tile) {
      return map(cloneLambda(F), slide(S->Size, S->Step, Tile));
    });
    return join(map(PerTile, slide(U, V, S->getArgs()[0])));
  };
  return R;
}

Rule lift::rewrite::mapJoinRule() {
  Rule R;
  R.Name = "mapJoin";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *M = asCallOf(E, Prim::Map);
    if (!M)
      return nullptr;
    const CallExpr *J = asCallOf(M->getArgs()[1], Prim::Join);
    if (!J)
      return nullptr;
    LambdaPtr F = lambdaOf(*M);
    LambdaPtr MapF = lam("chunk", [&](ExprPtr Chunk) {
      return map(cloneLambda(F), Chunk);
    });
    return join(map(MapF, J->getArgs()[0]));
  };
  return R;
}

Rule lift::rewrite::slideTilingDecompositionRule(std::int64_t TileOutputs) {
  Rule R;
  R.Name = "slideTilingDecomposition";
  R.Apply = [TileOutputs](const ExprPtr &E) -> ExprPtr {
    const CallExpr *S = asCallOf(E, Prim::Slide);
    if (!S)
      return nullptr;
    AExpr V = cst(TileOutputs);
    AExpr U = add(V, sub(S->Size, S->Step));
    AExpr SizeE = S->Size;
    AExpr StepE = S->Step;
    LambdaPtr PerTile = lam("tile", [&](ExprPtr Tile) {
      return slide(SizeE, StepE, Tile);
    });
    return join(map(PerTile, slide(U, V, S->getArgs()[0])));
  };
  return R;
}

Rule lift::rewrite::reduceUnrollRule() {
  Rule R;
  R.Name = "reduceUnroll";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const CallExpr *C = asCallOf(E, Prim::ReduceSeq);
    if (!C)
      return nullptr;
    // Unrolling is only legal for compile-time constant lengths
    // (paper §4.3); requires inferred types.
    const TypePtr &InTy = C->getArgs()[2]->getType();
    if (!InTy || InTy->getKind() != Type::Kind::Array ||
        InTy->getSize()->getKind() != ArithExpr::Kind::Cst)
      return nullptr;
    return reduceSeqUnroll(lambdaOf(*C), C->getArgs()[1], C->getArgs()[2]);
  };
  return R;
}

/// True when \p F is (possibly a map nest over) the identity userfun.
static bool isIdLambda(const LambdaPtr &F) {
  const ExprPtr &Body = F->getBody();
  if (const auto *UFCall = dynCast<CallExpr>(Body)) {
    if (UFCall->getPrim() == Prim::UserFunCall)
      return UFCall->UF.get() == ufIdFloat().get() ||
             UFCall->UF.get() == ufIdInt().get();
    if (isMapPrim(UFCall->getPrim()) &&
        UFCall->getArgs()[1].get() == F->getParams()[0].get())
      return isIdLambda(
          std::static_pointer_cast<LambdaExpr>(UFCall->getArgs()[0]));
  }
  return false;
}

Rule lift::rewrite::toLocalRule() {
  Rule R;
  R.Name = "toLocal";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    const auto *C = dynCast<CallExpr>(E);
    if (!C || !isMapPrim(C->getPrim()))
      return nullptr;
    LambdaPtr F = lambdaOf(*C);
    if (F->getAddrSpace() != AddrSpace::Default || !isIdLambda(F))
      return nullptr;
    return makeMapLike(C->getPrim(), C->Dim, toLocal(F), C->getArgs()[1]);
  };
  return R;
}

//===----------------------------------------------------------------------===//
// Structural matchers
//===----------------------------------------------------------------------===//

/// If E == mapAtDepth(D, transpose, X) for D >= 1, returns X.
/// \p ExpectedLeaf, when non-null, requires the transposed expression at
/// depth D to be exactly that node (used for matching lambda bodies).
static ExprPtr unwrapTransposeAtDepth(const ExprPtr &E, unsigned D,
                                      const Expr *ExpectedLeaf) {
  if (D == 0) {
    const CallExpr *T = asCallOf(E, Prim::Transpose);
    if (!T)
      return nullptr;
    if (ExpectedLeaf && T->getArgs()[0].get() != ExpectedLeaf)
      return nullptr;
    return T->getArgs()[0];
  }
  const CallExpr *M = asCallOf(E, Prim::Map);
  if (!M)
    return nullptr;
  LambdaPtr L = lambdaOf(*M);
  ExprPtr Inner = unwrapTransposeAtDepth(L->getBody(), D - 1,
                                         L->getParams()[0].get());
  if (!Inner)
    return nullptr;
  if (ExpectedLeaf && M->getArgs()[1].get() != ExpectedLeaf)
    return nullptr;
  return M->getArgs()[1];
}

std::optional<SlideNdMatch> lift::rewrite::matchSlideNd(const ExprPtr &E) {
  // 1D: a bare slide.
  if (const CallExpr *S = asCallOf(E, Prim::Slide)) {
    SlideNdMatch M;
    M.Dims = 1;
    M.Size = S->Size;
    M.Step = S->Step;
    M.Inner = S->getArgs()[0];
    return M;
  }
  // N >= 2: peel the transpose reordering stack (applied for depths
  // N-1 down to 1), then match slide(map(slideNd(N-1))).
  for (unsigned N = 3; N >= 2; --N) {
    ExprPtr Cur = E;
    bool Ok = true;
    for (unsigned D = N - 1; D >= 1 && Ok; --D) {
      ExprPtr Next = unwrapTransposeAtDepth(Cur, D, nullptr);
      if (!Next)
        Ok = false;
      else
        Cur = Next;
    }
    if (!Ok)
      continue;
    const CallExpr *S = asCallOf(Cur, Prim::Slide);
    if (!S)
      continue;
    const CallExpr *RowMap = asCallOf(S->getArgs()[0], Prim::Map);
    if (!RowMap)
      continue;
    LambdaPtr RowF = lambdaOf(*RowMap);
    std::optional<SlideNdMatch> Inner = matchSlideNd(RowF->getBody());
    if (!Inner || Inner->Dims != N - 1 ||
        Inner->Inner.get() != RowF->getParams()[0].get() ||
        !exprEquals(Inner->Size, S->Size) ||
        !exprEquals(Inner->Step, S->Step))
      continue;
    SlideNdMatch M;
    M.Dims = N;
    M.Size = S->Size;
    M.Step = S->Step;
    M.Inner = RowMap->getArgs()[1];
    return M;
  }
  return std::nullopt;
}

std::optional<ZipNdMatch> lift::rewrite::matchZipNd(const ExprPtr &E,
                                                    unsigned Dims) {
  if (Dims == 1) {
    const CallExpr *Z = asCallOf(E, Prim::Zip);
    if (!Z)
      return std::nullopt;
    ZipNdMatch M;
    M.Comps = Z->getArgs();
    return M;
  }
  // zip_n = map(\t. zip_{n-1}(t.0, t.1, ...), zip(comps)).
  const CallExpr *Outer = asCallOf(E, Prim::Map);
  if (!Outer)
    return std::nullopt;
  const CallExpr *Z = asCallOf(Outer->getArgs()[1], Prim::Zip);
  if (!Z)
    return std::nullopt;
  LambdaPtr L = lambdaOf(*Outer);
  std::optional<ZipNdMatch> Inner = matchZipNd(L->getBody(), Dims - 1);
  if (!Inner || Inner->Comps.size() != Z->getArgs().size())
    return std::nullopt;
  // The inner zip must re-zip exactly get(i, t) in component order.
  for (std::size_t I = 0, N = Inner->Comps.size(); I != N; ++I) {
    const CallExpr *G = asCallOf(Inner->Comps[I], Prim::Get);
    if (!G || G->Index != int(I) ||
        G->getArgs()[0].get() != L->getParams()[0].get())
      return std::nullopt;
  }
  ZipNdMatch M;
  M.Comps = Z->getArgs();
  return M;
}

std::optional<MapNdMatch> lift::rewrite::matchMapNd(const ExprPtr &E) {
  const CallExpr *M = asCallOf(E, Prim::Map);
  if (!M)
    return std::nullopt;
  LambdaPtr L = lambdaOf(*M);
  // Is the body itself a map over exactly the parameter?
  if (const CallExpr *InnerMap = asCallOf(L->getBody(), Prim::Map)) {
    if (InnerMap->getArgs()[1].get() == L->getParams()[0].get()) {
      std::optional<MapNdMatch> Inner = matchMapNd(L->getBody());
      if (Inner) {
        MapNdMatch Result;
        Result.Dims = Inner->Dims + 1;
        Result.F = Inner->F;
        Result.Input = M->getArgs()[1];
        return Result;
      }
    }
  }
  MapNdMatch Result;
  Result.Dims = 1;
  Result.F = L;
  Result.Input = M->getArgs()[1];
  return Result;
}
