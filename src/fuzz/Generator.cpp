//===- Generator.cpp - Seeded generation of well-typed stencils -----------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "ir/TypeInference.h"
#include "stencil/StencilOps.h"
#include "support/Support.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <sstream>

using namespace lift;
using namespace lift::ir;
using namespace lift::fuzz;
using namespace lift::stencil;

namespace {

const char *templateName(Template T) {
  switch (T) {
  case Template::Pointwise:
    return "pointwise";
  case Template::Stencil:
    return "stencil";
  case Template::ZipPointwise:
    return "zip-pointwise";
  case Template::ZipStencil:
    return "zip-stencil";
  }
  unreachable("covered switch");
}

/// The outer length of input 0 after the layout chain ran (layout pads
/// grow it; everything else is length-preserving).
std::int64_t outerAfterLayout(const ProgramSpec &S) {
  std::int64_t L = S.Extents.empty() ? 0 : S.Extents[0];
  for (const LayoutOp &Op : S.Layout)
    if (Op.K == LayoutOp::Kind::Pad)
      L += Op.A + Op.B;
  return L;
}

/// Applies the spec's layout chain to input expression \p X (which has
/// outer length \p OuterLen before the chain).
ExprPtr applyLayout(const ProgramSpec &S, ExprPtr X) {
  for (const LayoutOp &Op : S.Layout) {
    switch (Op.K) {
    case LayoutOp::Kind::Pad:
      X = pad(cst(Op.A), cst(Op.B), Op.Bdy, std::move(X));
      break;
    case LayoutOp::Kind::SplitJoin:
      X = join(split(cst(Op.A), std::move(X)));
      break;
    case LayoutOp::Kind::SlideJoin:
      X = join(slide(cst(Op.A), cst(Op.A), std::move(X)));
      break;
    case LayoutOp::Kind::TransposePair:
      X = transpose(transpose(std::move(X)));
      break;
    }
  }
  return X;
}

/// \nbh. theOne(reduce(op, init, flattenNd(nbh))) — the window reducer
/// of the stencil templates.
LambdaPtr windowReducer(unsigned Dims, bool UseMax) {
  return lam("nbh", [&](ExprPtr Nbh) {
    UserFunPtr Op = UseMax ? ufMaxFloat() : ufAddFloat();
    float Init = UseMax ? -1.0e30f : 0.0f;
    return theOne(reduce(etaLambda(Op), lit(Init),
                         flattenNd(Dims, std::move(Nbh))));
  });
}

/// Validates the structural constraints generateSpec promises and the
/// shrinker must re-establish; buildProgram refuses specs that break
/// them instead of constructing ill-typed IR.
bool specRealizable(const ProgramSpec &S) {
  if (S.Dims < 1 || S.Dims > 3 || S.Extents.size() != S.Dims)
    return false;
  for (std::int64_t E : S.Extents)
    if (E < 1)
      return false;
  if (S.PerDimBdy.size() != S.Dims)
    return false;
  bool IsZip = S.Tmpl == Template::ZipPointwise ||
               S.Tmpl == Template::ZipStencil;
  if (S.NumInputs != (IsZip ? 2u : 1u))
    return false;
  bool IsStencil =
      S.Tmpl == Template::Stencil || S.Tmpl == Template::ZipStencil;
  if (IsStencil) {
    if (S.WinSize < 1 || S.WinStep < 1 || S.PadL < 0 || S.PadR < 0)
      return false;
    // Every dimension's padded extent must fit at least one window.
    for (unsigned D = 0; D != S.Dims; ++D) {
      std::int64_t Len =
          (D == 0 ? outerAfterLayout(S) : S.Extents[D]) + S.PadL + S.PadR;
      if (Len < S.WinSize)
        return false;
    }
  }
  std::int64_t Outer = S.Extents[0];
  for (const LayoutOp &Op : S.Layout) {
    switch (Op.K) {
    case LayoutOp::Kind::Pad:
      // Zip templates feed input 0 and input 1 into the same zip; a
      // one-sided pad would break the length agreement.
      if (IsZip || Op.A < 0 || Op.B < 0 || S.SymbolicOuter)
        return false;
      Outer += Op.A + Op.B;
      break;
    case LayoutOp::Kind::SplitJoin:
    case LayoutOp::Kind::SlideJoin:
      if (S.SymbolicOuter || Op.A < 1 || Outer % Op.A != 0)
        return false;
      break;
    case LayoutOp::Kind::TransposePair:
      if (S.Dims < 2)
        return false;
      break;
    }
  }
  if (S.SymbolicOuter && IsZip)
    return false;
  return true;
}

} // namespace

std::string lift::fuzz::describeSpec(const ProgramSpec &S) {
  std::ostringstream OS;
  OS << "seed: " << S.Seed << "\n";
  OS << "template: " << templateName(S.Tmpl) << "\n";
  OS << "dims: " << S.Dims << "\n";
  OS << "extents:";
  for (std::int64_t E : S.Extents)
    OS << " " << E;
  OS << (S.SymbolicOuter ? " (outer symbolic)" : "") << "\n";
  OS << "inputs: " << S.NumInputs << "\n";
  if (S.Tmpl == Template::Stencil || S.Tmpl == Template::ZipStencil) {
    OS << "window: size " << S.WinSize << " step " << S.WinStep << "\n";
    OS << "pad: " << S.PadL << "/" << S.PadR << " boundaries:";
    for (const Boundary &B : S.PerDimBdy)
      OS << " " << toString(B);
    OS << "\n";
    OS << "reduce: " << (S.UseMax ? "max" : "sum") << "\n";
  }
  OS << "layout:";
  if (S.Layout.empty())
    OS << " (none)";
  for (const LayoutOp &Op : S.Layout) {
    switch (Op.K) {
    case LayoutOp::Kind::Pad:
      OS << " pad(" << Op.A << "," << Op.B << "," << toString(Op.Bdy)
         << ")";
      break;
    case LayoutOp::Kind::SplitJoin:
      OS << " splitJoin(" << Op.A << ")";
      break;
    case LayoutOp::Kind::SlideJoin:
      OS << " slideJoin(" << Op.A << ")";
      break;
    case LayoutOp::Kind::TransposePair:
      OS << " transposePair";
      break;
    }
  }
  OS << "\n";
  OS << "rewrite-picks:";
  if (S.RewritePicks.empty())
    OS << " (none)";
  for (std::uint32_t P : S.RewritePicks)
    OS << " " << P;
  OS << "\n";
  return OS.str();
}

ProgramSpec lift::fuzz::generateSpec(std::uint64_t SubSeed) {
  RandomSource R(SubSeed);
  ProgramSpec S;
  S.Seed = SubSeed;

  // Dimensionality: mostly 1D (richest layout variety), some 2D/3D.
  std::int64_t DimRoll = R.nextInt(0, 99);
  S.Dims = DimRoll < 50 ? 1 : DimRoll < 85 ? 2 : 3;

  // Template mix.
  std::int64_t TmplRoll = R.nextInt(0, 99);
  S.Tmpl = TmplRoll < 40   ? Template::Stencil
           : TmplRoll < 60 ? Template::Pointwise
           : TmplRoll < 85 ? Template::ZipStencil
                           : Template::ZipPointwise;
  bool IsZip =
      S.Tmpl == Template::ZipPointwise || S.Tmpl == Template::ZipStencil;
  bool IsStencil =
      S.Tmpl == Template::Stencil || S.Tmpl == Template::ZipStencil;
  S.NumInputs = IsZip ? 2 : 1;

  // Extents biased toward awkward small values (primes, 1, non-powers)
  // so divisibility edge cases are common.
  static const std::int64_t Awkward1D[] = {1, 2,  3,  4,  5,  6,  7,
                                           8, 9, 11, 12, 15, 16, 17, 24};
  static const std::int64_t AwkwardNd[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (unsigned D = 0; D != S.Dims; ++D)
    S.Extents.push_back(
        S.Dims == 1
            ? Awkward1D[R.nextInt(0, std::size(Awkward1D) - 1)]
            : AwkwardNd[R.nextInt(0, std::size(AwkwardNd) - 1)]);

  if (IsStencil) {
    S.WinSize = R.nextInt(1, 5);
    // Step up to the window size; step == size is the degenerate
    // adjacent-window (split-like) case.
    S.WinStep = R.nextInt(1, S.WinSize);
    S.PadL = R.nextInt(0, 3);
    S.PadR = R.nextInt(0, 3);
    for (unsigned D = 0; D != S.Dims; ++D) {
      switch (R.nextInt(0, 3)) {
      case 0:
        S.PerDimBdy.push_back(Boundary::clamp());
        break;
      case 1:
        S.PerDimBdy.push_back(Boundary::mirror());
        break;
      case 2:
        S.PerDimBdy.push_back(Boundary::wrap());
        break;
      default:
        S.PerDimBdy.push_back(
            Boundary::constant(float(R.nextInt(-4, 4)) * 0.5f));
        break;
      }
    }
    S.UseMax = R.nextBool(0.3);
    // Ensure at least one window fits in every padded dimension.
    for (unsigned D = 0; D != S.Dims; ++D)
      S.Extents[D] =
          std::max(S.Extents[D], S.WinSize - S.PadL - S.PadR);
    for (unsigned D = 0; D != S.Dims; ++D)
      S.Extents[D] = std::max<std::int64_t>(S.Extents[D], 1);
  } else {
    for (unsigned D = 0; D != S.Dims; ++D)
      S.PerDimBdy.push_back(Boundary::clamp());
  }

  S.SymbolicOuter = !IsZip && R.nextBool(0.25);

  // Layout chain on input 0.
  std::int64_t Outer = S.Extents[0];
  std::int64_t ChainLen = R.nextInt(0, 3);
  for (std::int64_t I = 0; I != ChainLen; ++I) {
    LayoutOp Op;
    std::int64_t Roll = R.nextInt(0, 4);
    if (Roll <= 1 && !IsZip && !S.SymbolicOuter) {
      Op.K = LayoutOp::Kind::Pad;
      Op.A = R.nextInt(0, 2);
      Op.B = R.nextInt(0, 2);
      switch (R.nextInt(0, 3)) {
      case 0:
        Op.Bdy = Boundary::clamp();
        break;
      case 1:
        Op.Bdy = Boundary::mirror();
        break;
      case 2:
        Op.Bdy = Boundary::wrap();
        break;
      default:
        Op.Bdy = Boundary::constant(float(R.nextInt(-4, 4)) * 0.5f);
        break;
      }
      Outer += Op.A + Op.B;
      // Half the time, immediately stack a second pad with the *same*
      // boundary: adjacent same-boundary pads are exactly what the
      // pad-merge simplification rule fires on, so seeding them keeps
      // that rule under differential test rather than never matching.
      if (R.nextBool(0.5)) {
        S.Layout.push_back(Op);
        Op.A = R.nextInt(0, 2);
        Op.B = R.nextInt(0, 2);
        Outer += Op.A + Op.B;
      }
    } else if ((Roll == 2 || Roll == 3) && !S.SymbolicOuter) {
      // A divisor of the current outer length in [2, 8]; skip when the
      // length is prime or too small.
      std::vector<std::int64_t> Divs;
      for (std::int64_t K = 2; K <= std::min<std::int64_t>(8, Outer); ++K)
        if (Outer % K == 0)
          Divs.push_back(K);
      if (Divs.empty())
        continue;
      Op.K = Roll == 2 ? LayoutOp::Kind::SplitJoin
                       : LayoutOp::Kind::SlideJoin;
      Op.A = Divs[R.nextInt(0, std::int64_t(Divs.size()) - 1)];
    } else if (Roll == 4 && S.Dims >= 2) {
      Op.K = LayoutOp::Kind::TransposePair;
    } else {
      continue;
    }
    S.Layout.push_back(Op);
  }

  // Random rewrite sequence for oracle (b).
  std::int64_t NumPicks = R.nextInt(0, 4);
  for (std::int64_t I = 0; I != NumPicks; ++I)
    S.RewritePicks.push_back(std::uint32_t(R.nextInt(0, 1 << 30)));

  return S;
}

std::optional<BuiltProgram> lift::fuzz::buildProgram(const ProgramSpec &S) {
  if (!specRealizable(S))
    return std::nullopt;

  BuiltProgram B;

  // Declared parameter type (outermost dimension first). The symbolic
  // case binds the outer extent through a size variable instead of a
  // constant — both paths must behave identically.
  AExpr OuterSize;
  if (S.SymbolicOuter) {
    OuterSize = var("n", Range(1, 1 << 30));
    B.Sizes[OuterSize->getVarId()] = S.Extents[0];
  } else {
    OuterSize = cst(S.Extents[0]);
  }
  TypePtr InT = floatT();
  for (unsigned D = S.Dims; D-- > 0;)
    InT = arrayT(InT, D == 0 ? OuterSize : cst(S.Extents[D]));

  // Deterministic input data, quantized to multiples of 0.25 so sums
  // and maxes are exact in float and bit-comparison is meaningful.
  std::size_t Total = 1;
  for (std::int64_t E : S.Extents)
    Total *= std::size_t(E);
  std::vector<ParamPtr> Params;
  for (unsigned I = 0; I != S.NumInputs; ++I) {
    RandomSource DataR(S.Seed * 2654435761u + I + 1);
    std::vector<float> Flat(Total);
    for (float &V : Flat)
      V = float(DataR.nextInt(-32, 32)) * 0.25f;
    switch (S.Dims) {
    case 1:
      B.Vals.push_back(interp::makeFloatArray(Flat));
      break;
    case 2:
      B.Vals.push_back(interp::makeFloatArray2D(
          Flat, std::size_t(S.Extents[0]), std::size_t(S.Extents[1])));
      break;
    default:
      B.Vals.push_back(interp::makeFloatArray3D(
          Flat, std::size_t(S.Extents[0]), std::size_t(S.Extents[1]),
          std::size_t(S.Extents[2])));
      break;
    }
    B.Flat.push_back(std::move(Flat));
    Params.push_back(param("in" + std::to_string(I), InT));
  }

  ExprPtr In0 = applyLayout(S, Params[0]);

  ExprPtr Body;
  switch (S.Tmpl) {
  case Template::Pointwise: {
    LambdaPtr Scale = lam("x", [](ExprPtr X) {
      return apply(ufMultFloat(), {std::move(X), lit(0.5f)});
    });
    Body = mapNd(S.Dims, Scale, std::move(In0));
    break;
  }
  case Template::Stencil: {
    ExprPtr Padded = padNdPerDim(S.Dims, cst(S.PadL), cst(S.PadR),
                                 S.PerDimBdy, std::move(In0));
    Body = mapNd(S.Dims, windowReducer(S.Dims, S.UseMax),
                 slideNd(S.Dims, cst(S.WinSize), cst(S.WinStep),
                         std::move(Padded)));
    break;
  }
  case Template::ZipPointwise: {
    LambdaPtr Add = lam("t", [](ExprPtr T) {
      return apply(ufAddFloat(), {get(0, T), get(1, T)});
    });
    Body = mapNd(S.Dims, Add,
                 zipNd(S.Dims, {std::move(In0), Params[1]}));
    break;
  }
  case Template::ZipStencil: {
    auto Nbh = [&](ExprPtr X) {
      ExprPtr Padded = padNdPerDim(S.Dims, cst(S.PadL), cst(S.PadR),
                                   S.PerDimBdy, std::move(X));
      return slideNd(S.Dims, cst(S.WinSize), cst(S.WinStep),
                     std::move(Padded));
    };
    unsigned Dims = S.Dims;
    bool UseMax = S.UseMax;
    LambdaPtr Combine = lam("t", [&](ExprPtr T) {
      UserFunPtr Op = UseMax ? ufMaxFloat() : ufAddFloat();
      float Init = UseMax ? -1.0e30f : 0.0f;
      ExprPtr A = theOne(reduce(etaLambda(Op), lit(Init),
                                flattenNd(Dims, get(0, T))));
      ExprPtr C = theOne(reduce(etaLambda(Op), lit(Init),
                                flattenNd(Dims, get(1, T))));
      return apply(ufAddFloat(), {std::move(A), std::move(C)});
    });
    Body = mapNd(S.Dims, Combine,
                 zipNd(S.Dims, {Nbh(std::move(In0)), Nbh(Params[1])}));
    break;
  }
  }

  B.P = makeProgram(std::move(Params), std::move(Body));
  if (!tryInferTypes(B.P))
    return std::nullopt;
  return B;
}

unsigned lift::fuzz::countPrims(const Program &P) {
  unsigned Count = 0;
  std::function<void(const ExprPtr &)> Walk = [&](const ExprPtr &E) {
    switch (E->getKind()) {
    case Expr::Kind::Literal:
    case Expr::Kind::Param:
      return;
    case Expr::Kind::Lambda:
      Walk(dynCast<LambdaExpr>(E)->getBody());
      return;
    case Expr::Kind::Call: {
      const auto *C = dynCast<CallExpr>(E);
      if (C->getPrim() != Prim::UserFunCall)
        ++Count;
      for (const ExprPtr &A : C->getArgs())
        Walk(A);
      return;
    }
    }
  };
  Walk(P->getBody());
  return Count;
}
