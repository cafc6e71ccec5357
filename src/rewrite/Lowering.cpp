//===- Lowering.cpp - High-level to OpenCL-level lowering ---------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "rewrite/Lowering.h"

#include "ir/TypeInference.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "stencil/StencilOps.h"
#include "support/Support.h"

#include <cassert>

using namespace lift;
using namespace lift::ir;
using namespace lift::rewrite;
using lift::stencil::mapAtDepth;
using lift::stencil::slideClampNd;
using lift::stencil::slideNd;

std::string LoweringOptions::describe() const {
  std::string S = Tile ? "tiled" + std::to_string(TileOutputs) : "global";
  if (Tile && UseLocalMem)
    S += "-local";
  if (Coarsen > 1)
    S += "-coarsen" + std::to_string(Coarsen);
  if (UnrollReduce)
    S += "-unroll";
  return S;
}

namespace {

LambdaPtr cloneLambda(const LambdaPtr &F) {
  return std::static_pointer_cast<LambdaExpr>(
      deepClone(std::static_pointer_cast<Expr>(F)));
}

/// Builds an n-deep nest of the given map primitive over \p In,
/// applying \p F at the innermost level: mapGlb for untiled kernels,
/// mapWrg over tiles and mapLcl within one. Depth d maps to OpenCL
/// dimension n-1-d so the innermost (contiguous) array dimension rides
/// on id dimension 0 for coalescing. \p InnerCoarsen > 1 makes each
/// innermost-dimension thread compute that many points sequentially:
/// join(map(chunk => mapSeq(f, chunk), split(c, in))).
ExprPtr buildMapNest(unsigned N, Prim MapKind, const LambdaPtr &F,
                     ExprPtr In, std::int64_t InnerCoarsen = 1,
                     unsigned Depth = 0) {
  int Dim = int(N - 1 - Depth);
  assert(Dim >= 0 && Dim < 3 && "stencils are at most 3D");
  if (Depth == N - 1) {
    if (InnerCoarsen > 1) {
      LambdaPtr PerChunk = lam("chunk", [&](ExprPtr Chunk) {
        return mapSeq(cloneLambda(F), Chunk);
      });
      return join(makeMapLike(MapKind, Dim, PerChunk,
                              split(cst(InnerCoarsen), std::move(In))));
    }
    return makeMapLike(MapKind, Dim, F, std::move(In));
  }
  LambdaPtr Level = lam("lvl" + std::to_string(Depth), [&](ExprPtr X) {
    return buildMapNest(N, MapKind, F, std::move(X), InnerCoarsen,
                        Depth + 1);
  });
  return makeMapLike(MapKind, Dim, Level, std::move(In));
}

/// A cooperative copy of an n-dim tile into local memory: nested mapLcl
/// loops of the identity with the outermost lambda marked toLocal.
ExprPtr buildLocalCopy(unsigned N, ExprPtr Tile, unsigned Depth = 0) {
  int Dim = int(N - 1 - Depth);
  if (Depth == N - 1) {
    LambdaPtr Id = etaLambda(ufIdFloat());
    if (Depth == 0)
      Id = toLocal(Id);
    return mapLcl(Dim, Id, std::move(Tile));
  }
  LambdaPtr Level = lam("cpy" + std::to_string(Depth), [&](ExprPtr X) {
    return buildLocalCopy(N, std::move(X), Depth + 1);
  });
  if (Depth == 0)
    Level = toLocal(Level);
  return makeMapLike(Prim::MapLcl, Dim, Level, std::move(Tile));
}

/// Merges a tiled result of shape [t0]..[t_{n-1}][v0]..[v_{n-1}] back
/// into the flat n-dim grid [t0*v0]..: the multi-dimensional inverse of
/// the tiling rule's join (paper §4.1, Figure 6). Interleaves tile and
/// intra-tile dimensions with transposes, then joins each pair.
///
/// When \p OutExt is non-empty the tile grid is ragged (clamped tiling:
/// the last tile per dimension overlaps its neighbor) and dimension I
/// is reassembled with joinClamp(OutExt[I]) instead of a plain join.
ExprPtr untileNd(unsigned N, ExprPtr E,
                 const std::vector<AExpr> &OutExt = {}) {
  assert((OutExt.empty() || OutExt.size() == N) &&
         "one output extent per dimension when clamping");
  auto JoinDim = [&](unsigned I, ExprPtr X) {
    if (!OutExt.empty())
      return joinClamp(OutExt[I], std::move(X));
    return join(std::move(X));
  };
  if (N == 1)
    return JoinDim(0, std::move(E));
  // Track dimension order: 0..N-1 are tile-grid dims, N..2N-1 are
  // intra-tile dims. Bring each vi right after ti by adjacent swaps.
  std::vector<unsigned> Order;
  for (unsigned I = 0; I != 2 * N; ++I)
    Order.push_back(I);
  for (unsigned I = 0; I != N; ++I) {
    unsigned Target = 2 * I + 1;
    unsigned Pos = 0;
    while (Order[Pos] != N + I)
      ++Pos;
    while (Pos > Target) {
      // Swap positions Pos-1 and Pos == transpose at depth Pos-1.
      E = mapAtDepth(
          Pos - 1, [](ExprPtr X) { return transpose(std::move(X)); }, E);
      std::swap(Order[Pos - 1], Order[Pos]);
      --Pos;
    }
  }
  // Join each (ti, vi) pair; after joining pair i, it occupies one
  // dimension at depth i.
  for (unsigned I = 0; I != N; ++I)
    E = mapAtDepth(I, [&](ExprPtr X) { return JoinDim(I, std::move(X)); },
                   E);
  return E;
}

/// Replaces embedded high-level compute map nests (e.g. the inner
/// applications produced by expanding `iterate`) with untiled lowered
/// nests. The code generator then materializes each lowered phase into
/// a global temporary read by the next phase — the multi-phase
/// execution the paper's `iterate` implies (§3.1).
ExprPtr lowerEmbeddedNests(const ExprPtr &E) {
  if (E->getKind() == Expr::Kind::Lambda) {
    const auto *L = dynCast<LambdaExpr>(E);
    ExprPtr NewBody = lowerEmbeddedNests(L->getBody());
    if (NewBody.get() == L->getBody().get())
      return E;
    return lambda(L->getParams(), std::move(NewBody), L->getAddrSpace());
  }
  const auto *C = dynCast<CallExpr>(E);
  if (!C)
    return E;

  // An embedded high-level compute map nest: lower it (untiled).
  if (C->getPrim() == Prim::Map) {
    const auto F = std::static_pointer_cast<LambdaExpr>(C->getArgs()[0]);
    if (!isLayoutOnly(F->getBody())) {
      std::optional<MapNdMatch> M = matchMapNd(E);
      if (M && M->Dims <= 3) {
        ExprPtr Input = lowerEmbeddedNests(M->Input);
        return buildMapNest(M->Dims, Prim::MapGlb, M->F, Input);
      }
    }
  }

  std::vector<ExprPtr> NewArgs;
  bool Changed = false;
  for (const ExprPtr &A : C->getArgs()) {
    ExprPtr NA = lowerEmbeddedNests(A);
    Changed |= NA.get() != A.get();
    NewArgs.push_back(std::move(NA));
  }
  if (!Changed)
    return E;
  return C->withArgs(std::move(NewArgs));
}

/// Records \p Reason for the caller (when requested) and returns the
/// null program, so every bail-out site carries a diagnostic.
Program lowerFail(std::string *WhyNot, const std::string &Reason) {
  if (WhyNot)
    *WhyNot = Reason;
  return nullptr;
}

/// Matches an output dimension of the form `v` or `v + c` (v a
/// variable, c a constant), setting \p V and \p Offset = c.
bool matchVarPlusConst(const AExpr &D, AExpr &V, std::int64_t &Offset) {
  V = D;
  Offset = 0;
  const std::vector<AExpr> &Ops = D->getOperands();
  if (D->getKind() == ArithExpr::Kind::Add && Ops.size() == 2)
    for (std::size_t K = 0; K != 2; ++K)
      if (Ops[K]->getKind() == ArithExpr::Kind::Cst) {
        V = Ops[1 - K];
        Offset = Ops[K]->getCst();
      }
  return V->getKind() == ArithExpr::Kind::Var;
}

/// Solves the symbolic output extents \p OutExt (outermost first) for
/// their size variables at the grid \p Grid the caller will run at: a
/// dimension of the form `v` or `v + c` narrows v's range in \p Ranges
/// to the single value Grid[I] - c, and any other symbolic form leaves
/// its variables to run time. Returns a diagnostic when a constant
/// dimension differs from its grid extent or a variable would take two
/// values or one outside its declared range; the empty string
/// otherwise.
std::string bindGrid(const std::vector<AExpr> &OutExt,
                     const std::vector<std::int64_t> &Grid,
                     std::unordered_map<unsigned, Range> &Ranges) {
  for (std::size_t I = 0; I != OutExt.size(); ++I) {
    const AExpr &D = OutExt[I];
    std::string At = "OutputExtents[" + std::to_string(I) +
                     "] = " + std::to_string(Grid[I]);
    if (D->getKind() == ArithExpr::Kind::Cst) {
      if (D->getCst() != Grid[I])
        return At + " disagrees with the stencil's constant output extent " +
               std::to_string(D->getCst());
      continue;
    }
    AExpr V;
    std::int64_t Offset;
    if (!matchVarPlusConst(D, V, Offset))
      continue;
    std::int64_t Val = Grid[I] - Offset;
    std::string Binding = V->getVarName() + " = " + std::to_string(Val);
    const Range &R = V->getVarRange();
    if ((R.Min && Val < *R.Min) || (R.Max && Val > *R.Max))
      return At + " needs " + Binding + ", outside its declared range";
    auto [It, Inserted] = Ranges.emplace(V->getVarId(), Range(Val, Val));
    if (!Inserted && *It->second.Min != Val)
      return At + " needs " + Binding + ", but another dimension needs " +
             std::to_string(*It->second.Min);
  }
  return "";
}

/// Decides between the clamped (remainder-legal) and exact tiling
/// schemes and validates the tile shape against the per-dimension
/// output extents. Returns true when the clamped scheme applies: at
/// window step 1 every (extent, tile) combination is legal -- tails
/// that do not fill a tile get a shifted full-width tile, and a
/// concrete dimension *shorter* than the tile gets one full-width
/// tile covering it (the caller clamps the per-dimension tile to
/// min(k, extent)). Writes a diagnostic to \p Err only for genuinely
/// unsupported shapes: a remainder fit at window step != 1, whose
/// shifted tail tile would leave the output lattice (deferred).
bool checkTileFit(unsigned N, std::int64_t TileOutputs, const AExpr &Step,
                  const std::vector<AExpr> &OutExt, std::string *Err) {
  bool StepOne =
      Step->getKind() == ArithExpr::Kind::Cst && Step->getCst() == 1;
  if (StepOne)
    return true;
  if (Step->getKind() != ArithExpr::Kind::Cst)
    return false; // symbolic step: keep the exact-fit scheme as-is
  std::int64_t St = Step->getCst();
  if (St <= 0 || TileOutputs % St != 0) {
    *Err = "tile advance " + std::to_string(TileOutputs) +
           " is misaligned with window step " + std::to_string(St);
    return false;
  }
  std::int64_t K = TileOutputs / St;
  for (unsigned I = 0; I != N; ++I) {
    if (OutExt[I]->getKind() != ArithExpr::Kind::Cst)
      continue;
    std::int64_t MDim = OutExt[I]->getCst();
    if (MDim < K || MDim % K != 0) {
      *Err = "tile-indivisible: remainder tiles at window step != 1 are "
             "unsupported (extent " +
             std::to_string(MDim) + ", tile of " + std::to_string(K) +
             " outputs)";
      return false;
    }
  }
  return false;
}

/// Per-dimension tile advance for the clamped scheme: the requested
/// k, clamped to the output extent where the extent is concrete and
/// smaller (that dimension gets exactly one full-width tile). A
/// symbolic extent keeps k -- the lowering's validity precondition
/// extent >= k applies.
std::vector<AExpr> clampTileSteps(unsigned N, const AExpr &V,
                                  std::int64_t TileOutputs,
                                  const std::vector<AExpr> &OutExt) {
  std::vector<AExpr> Steps;
  for (unsigned I = 0; I != N; ++I) {
    if (OutExt[I]->getKind() == ArithExpr::Kind::Cst &&
        OutExt[I]->getCst() < TileOutputs)
      Steps.push_back(OutExt[I]);
    else
      Steps.push_back(V);
  }
  return Steps;
}

/// States the clamped scheme's validity precondition in \p Ranges: a
/// symbolic output dimension keeps the full tile advance, so it must
/// hold at least \p TileOutputs points (v >= TileOutputs - c for a
/// dimension `v + c`). Other symbolic forms stay unstated.
void noteTileMinimums(const std::vector<AExpr> &OutExt,
                      std::int64_t TileOutputs,
                      std::unordered_map<unsigned, Range> &Ranges) {
  for (const AExpr &D : OutExt) {
    AExpr V;
    std::int64_t Offset;
    if (D->getKind() == ArithExpr::Kind::Cst ||
        !matchVarPlusConst(D, V, Offset))
      continue;
    Range &R = Ranges.emplace(V->getVarId(), V->getVarRange()).first->second;
    R.Min = std::max(R.Min.value_or(TileOutputs - Offset),
                     TileOutputs - Offset);
  }
}

/// The actual lowering; the public entry point wraps it with a trace
/// span and success/failure counters.
Program lowerStencilImpl(const Program &P, const LoweringOptions &O,
                         std::string *WhyNot) {
  Program Copy = cloneProgram(P);

  // Expand any iterate into repeated application first.
  int Dummy = 0;
  ExprPtr Body = applyEverywhere(iterateExpandRule(), Copy->getBody(), Dummy);

  std::optional<MapNdMatch> M = matchMapNd(Body);
  if (!M)
    return lowerFail(WhyNot, "program is not a mapNd nest over its input");
  if (M->Dims > 3)
    return lowerFail(WhyNot, "mapNd nests beyond 3 dimensions are unsupported (got " +
                                 std::to_string(M->Dims) + ")");
  unsigned N = M->Dims;

  // Inner stencil phases (from iterate expansion or explicit chains)
  // become lowered nests materialized into global temporaries.
  M->Input = lowerEmbeddedNests(M->Input);

  // Per-dimension output extents (outermost first). The clamped tiling
  // scheme's joins need them, they carry the tiling validity checks,
  // and they are what a grid binds. Typing a throwaway program
  // annotates Body.
  std::vector<AExpr> OutExt;
  if (O.Tile || !O.OutputExtents.empty()) {
    {
      Program Typed = makeProgram(Copy->getParams(), Body);
      std::string TypeErr;
      if (!tryInferTypes(Typed, &TypeErr))
        return lowerFail(WhyNot, "cannot type the stencil body: " + TypeErr);
    }
    TypePtr T = Body->getType();
    for (unsigned I = 0; I != N; ++I) {
      if (!T || T->getKind() != Type::Kind::Array)
        return lowerFail(WhyNot, "stencil output is not an n-d array");
      OutExt.push_back(T->getSize());
      T = T->getElem();
    }
  }
  // The caller promises to run the lowered program at exactly these
  // output extents, so the program is lowered for that grid: the size
  // variables they determine are bound on the result, and symbolic
  // dimensions become constants for the per-dimension tile clamp and
  // the ragged reassembly.
  std::unordered_map<unsigned, Range> Ranges;
  if (!O.OutputExtents.empty()) {
    if (O.OutputExtents.size() != N)
      return lowerFail(WhyNot,
                       "OutputExtents has " +
                           std::to_string(O.OutputExtents.size()) +
                           " entries for a " + std::to_string(N) +
                           "-d stencil");
    std::string GridErr = bindGrid(OutExt, O.OutputExtents, Ranges);
    if (!GridErr.empty())
      return lowerFail(WhyNot, GridErr);
    for (unsigned I = 0; I != N; ++I)
      OutExt[I] = cst(O.OutputExtents[I]);
  }

  ExprPtr Lowered;
  if (O.Tile) {
    // Tiled shapes: mapNd(f, slideNd(size, step, inner)) over one grid,
    // or mapNd(f, zipNd(comps)) over several. One grid is the
    // one-component case, built without the get/zipNd wrappers.
    // Components that are slideNd neighborhoods get overlapping tiles
    // of extent u = v + size - step (the §4.1 validity constraint),
    // optionally staged in local memory; point-wise components get
    // tiles of k = v/step outputs. The per-tile zips line up because
    // both produce k^n outputs per tile, and under the clamped scheme
    // both tail starts shift by the same amount (input clamp n-u ==
    // step * output clamp m-k).
    std::optional<ZipNdMatch> Z;
    if (!matchSlideNd(M->Input) && !(Z = matchZipNd(M->Input, N)))
      return lowerFail(WhyNot,
                       "tiling requested but the input is neither a slideNd "
                       "neighborhood nor a zipNd of grids");
    std::vector<ExprPtr> Comps = Z ? Z->Comps : std::vector<ExprPtr>{M->Input};
    auto ZipIfMany = [&](std::vector<ExprPtr> Parts) {
      return Z ? lift::stencil::zipNd(N, std::move(Parts))
               : std::move(Parts.front());
    };

    std::vector<std::optional<SlideNdMatch>> Slides;
    AExpr SizeE, StepE;
    for (const ExprPtr &Comp : Comps) {
      std::optional<SlideNdMatch> CS = matchSlideNd(Comp);
      if (CS) {
        if (CS->Dims != N)
          return lowerFail(WhyNot, std::string(Z ? "zip component " : "") +
                                       "slideNd dimensionality does not "
                                       "match the mapNd nest");
        if (SizeE && (!exprEquals(SizeE, CS->Size) ||
                      !exprEquals(StepE, CS->Step)))
          return lowerFail(
              WhyNot,
              "mixed window geometries are unsupported: slide(" +
                  SizeE->toString() + ", " + StepE->toString() +
                  ") vs slide(" + CS->Size->toString() + ", " +
                  CS->Step->toString() + ")");
        SizeE = CS->Size;
        StepE = CS->Step;
      }
      Slides.push_back(std::move(CS));
    }
    if (!SizeE)
      return lowerFail(WhyNot,
                       "tiling requested but no zip component is a slideNd "
                       "neighborhood: nothing to tile");

    std::string TileErr;
    bool Clamp = checkTileFit(N, O.TileOutputs, StepE, OutExt, &TileErr);
    if (!TileErr.empty())
      return lowerFail(WhyNot, TileErr);
    AExpr V = cst(O.TileOutputs);
    AExpr Overlap = sub(SizeE, StepE);
    // Exact scheme: tiles of u inputs advancing by v, and point-wise
    // components advancing on the output lattice by k = v/step.
    AExpr U = add(V, Overlap);
    AExpr K = V;
    if (StepE->getKind() == ArithExpr::Kind::Cst && StepE->getCst() > 0 &&
        O.TileOutputs % StepE->getCst() == 0)
      K = cst(O.TileOutputs / StepE->getCst());
    // Clamped scheme (window step 1, so k == v): a per-dimension tile
    // advance, clamped to short extents, with the matching window
    // extent u_d = k_d + size - 1.
    std::vector<AExpr> VSteps, USizes;
    if (Clamp) {
      VSteps = clampTileSteps(N, V, O.TileOutputs, OutExt);
      for (unsigned D = 0; D != N; ++D)
        USizes.push_back(add(VSteps[D], Overlap));
      noteTileMinimums(OutExt, O.TileOutputs, Ranges);
    }
    std::vector<ExprPtr> TiledComps;
    for (std::size_t I = 0; I != Comps.size(); ++I) {
      if (Slides[I])
        TiledComps.push_back(
            Clamp ? slideClampNd(N, USizes, VSteps, Slides[I]->Inner)
                  : slideNd(N, U, V, Slides[I]->Inner));
      else
        TiledComps.push_back(Clamp ? slideClampNd(N, VSteps, VSteps, Comps[I])
                                   : slideNd(N, K, K, Comps[I]));
    }

    LambdaPtr PerTile = lam("tile", [&](ExprPtr Tile) {
      std::vector<ExprPtr> Parts;
      for (std::size_t I = 0; I != Comps.size(); ++I) {
        ExprPtr Part = Z ? get(int(I), Tile) : Tile;
        if (Slides[I]) {
          if (O.UseLocalMem)
            Part = buildLocalCopy(N, std::move(Part));
          Part = slideNd(N, SizeE, StepE, std::move(Part));
        }
        Parts.push_back(std::move(Part));
      }
      return buildMapNest(N, Prim::MapLcl, cloneLambda(M->F),
                          ZipIfMany(std::move(Parts)), O.Coarsen);
    });
    Lowered = untileNd(N,
                       buildMapNest(N, Prim::MapWrg, PerTile,
                                    ZipIfMany(std::move(TiledComps))),
                       Clamp ? OutExt : std::vector<AExpr>{});
  } else {
    Lowered = buildMapNest(N, Prim::MapGlb, M->F, M->Input, O.Coarsen);
  }

  // Sequentialize all remaining high-level compute: reductions and any
  // compute maps inside the stencil function.
  Lowered = applyEverywhere(reduceToSeqRule(), Lowered, Dummy);
  Lowered = applyEverywhere(mapToSeqRule(), Lowered, Dummy);

  Program Result = makeProgram(Copy->getParams(), Lowered);
  inferTypes(Result);

  if (O.UnrollReduce) {
    int Unrolled = 0;
    ExprPtr NewBody =
        applyEverywhere(reduceUnrollRule(), Result->getBody(), Unrolled);
    Result = makeProgram(Result->getParams(), NewBody);
    inferTypes(Result);
  }
  Result->SizeRanges = std::move(Ranges);
  return Result;
}

} // namespace

Program lift::rewrite::lowerStencil(const Program &P, const LoweringOptions &O,
                                    std::string *WhyNot) {
  obs::Span LowerSpan("lower", "rewrite");
  LowerSpan.arg("variant", O.describe());
  Program Result = lowerStencilImpl(P, O, WhyNot);
  obs::Registry &Reg = obs::Registry::global();
  if (Result)
    Reg.counter("rewrite.lowerings").inc();
  else
    Reg.counter("rewrite.lowerings_failed").inc();
  LowerSpan.arg("ok", std::int64_t(Result ? 1 : 0));
  return Result;
}
