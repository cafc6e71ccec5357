//===- Benchmarks.cpp - The paper's benchmark suite ---------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "stencil/Benchmarks.h"

#include "stencil/StencilOps.h"
#include "support/Support.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

using namespace lift;
using namespace lift::ir;
using namespace lift::stencil;

std::int64_t lift::stencil::totalElems(const Extents &E) {
  std::int64_t N = 1;
  for (std::int64_t X : E)
    N *= X;
  return N;
}

std::unordered_map<unsigned, std::int64_t>
lift::stencil::makeSizeEnv(const BenchmarkInstance &I, const Extents &E) {
  if (I.SizeVarIds.size() != E.size())
    fatalError("makeSizeEnv: extent count mismatch");
  std::unordered_map<unsigned, std::int64_t> Env;
  for (std::size_t D = 0; D != E.size(); ++D)
    Env[I.SizeVarIds[D]] = E[D];
  return Env;
}

std::vector<std::vector<float>>
lift::stencil::makeBenchmarkInputs(const Benchmark &B, const Extents &E,
                                   std::uint64_t Seed) {
  RandomSource Rand(Seed);
  std::vector<std::vector<float>> Inputs;
  for (int G = 0; G != B.NumGrids; ++G) {
    std::vector<float> Grid(std::size_t(totalElems(E)));
    for (float &V : Grid)
      V = Rand.nextFloat(0.25f, 1.25f);
    Inputs.push_back(std::move(Grid));
  }
  return Inputs;
}

namespace {

//===----------------------------------------------------------------------===//
// Program building helpers
//===----------------------------------------------------------------------===//

/// Fresh per-dimension size variables, outermost first.
std::vector<AExpr> makeSizeVars(unsigned Dims) {
  static const char *Names[3] = {"d0", "d1", "d2"};
  std::vector<AExpr> Vars;
  for (unsigned D = 0; D != Dims; ++D)
    Vars.push_back(var(Names[D], Range(1, 1 << 30)));
  return Vars;
}

TypePtr gridType(const std::vector<AExpr> &SizeVars) {
  TypePtr T = floatT();
  for (auto It = SizeVars.rbegin(); It != SizeVars.rend(); ++It)
    T = arrayT(T, *It);
  return T;
}

std::vector<unsigned> varIds(const std::vector<AExpr> &SizeVars) {
  std::vector<unsigned> Ids;
  for (const AExpr &V : SizeVars)
    Ids.push_back(V->getVarId());
  return Ids;
}

/// Renders \p V as a C float literal that parses back to exactly the
/// same float, so the generated-code weights agree bit-for-bit with
/// the evaluation closure's (%.9g round-trips any float).
std::string floatLiteral(float V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", double(V));
  std::string S(Buf);
  if (S.find_first_of(".e") == std::string::npos)
    S += ".0";
  return S + "f";
}

/// A user function computing a weighted sum of K scalar arguments.
UserFunPtr weightedUF(const std::string &Name,
                      const std::vector<float> &Weights) {
  std::vector<std::string> ParamNames;
  std::vector<ScalarKind> Kinds;
  std::string Body = "return ";
  for (std::size_t I = 0; I != Weights.size(); ++I) {
    ParamNames.push_back("a" + std::to_string(I));
    Kinds.push_back(ScalarKind::Float);
    if (I != 0)
      Body += " + ";
    Body += floatLiteral(Weights[I]) + " * a" + std::to_string(I);
  }
  Body += ";";
  std::vector<float> W = Weights;
  return makeUserFun(Name, std::move(ParamNames), std::move(Kinds),
                     ScalarKind::Float, std::move(Body),
                     [W](const std::vector<Scalar> &Args) {
                       float Sum = 0.0f;
                       for (std::size_t I = 0; I != W.size(); ++I)
                         Sum += W[I] * Args[I].F;
                       return Scalar(Sum);
                     },
                     /*FlopCost=*/int(2 * Weights.size()));
}

/// Builds the lambda \nbh -> uf(nbh[o0], nbh[o1], ...) extracting the
/// given window offsets.
LambdaPtr pointExtractor(const UserFunPtr &UF,
                         const std::vector<std::vector<int>> &Offsets) {
  return lam("nbh", [&](ExprPtr Nbh) {
    std::vector<ExprPtr> Args;
    for (const std::vector<int> &O : Offsets)
      Args.push_back(atNd(O, Nbh));
    return ir::apply(UF, std::move(Args));
  });
}

/// Reduce-style stencil: \nbh -> scale * reduce(+, 0, flatten(nbh)).
/// This is the Listing 2 formulation; its reduction is the unrolling
/// target of the paper's 4.3 (reduceSeqUnroll).
BenchmarkInstance reduceStyleInstance(unsigned Dims, std::int64_t Window,
                                      Boundary B, float Scale) {
  std::vector<AExpr> SV = makeSizeVars(Dims);
  ParamPtr A = param("A", gridType(SV));
  std::int64_t R = (Window - 1) / 2;
  LambdaPtr F = lam("nbh", [&](ExprPtr Nbh) {
    ExprPtr Sum = theOne(
        reduce(etaLambda(ufAddFloat()), lit(0.0f), flattenNd(Dims, Nbh)));
    return ir::apply(ufMultFloat(), {Sum, lit(Scale)});
  });
  ExprPtr Body = stencilNd(Dims, F, cst(Window), cst(1), cst(R), cst(R), B,
                           A);
  return BenchmarkInstance{makeProgram({A}, Body), varIds(SV)};
}

/// mapNd(f, slideNd(w, 1, padNd(r, r, B, A))) over one grid.
BenchmarkInstance singleGridInstance(
    unsigned Dims, std::int64_t Window, Boundary B, const UserFunPtr &UF,
    const std::vector<std::vector<int>> &Offsets) {
  std::vector<AExpr> SV = makeSizeVars(Dims);
  ParamPtr A = param("A", gridType(SV));
  std::int64_t R = (Window - 1) / 2;
  ExprPtr Body = stencilNd(Dims, pointExtractor(UF, Offsets), cst(Window),
                           cst(1), cst(R), cst(R), B, A);
  return BenchmarkInstance{makeProgram({A}, Body), varIds(SV)};
}

/// Two grids: the first taken point-by-point, the second through a
/// slided neighborhood (the Hotspot/acoustic shape). The user function
/// receives (point, stencil points of grid 2...).
BenchmarkInstance pointPlusStencilInstance(
    unsigned Dims, std::int64_t Window, Boundary B, const UserFunPtr &UF,
    const std::vector<std::vector<int>> &Offsets) {
  std::vector<AExpr> SV = makeSizeVars(Dims);
  ParamPtr P = param("P", gridType(SV));
  ParamPtr T = param("T", gridType(SV));
  std::int64_t R = (Window - 1) / 2;
  ExprPtr Slided = slideNd(Dims, cst(Window), cst(1),
                           padNd(Dims, cst(R), cst(R), B, T));
  ExprPtr Zipped = zipNd(Dims, {ExprPtr(P), Slided});
  LambdaPtr F = lam("t", [&](ExprPtr Tup) {
    std::vector<ExprPtr> Args;
    Args.push_back(get(0, Tup));
    for (const std::vector<int> &O : Offsets)
      Args.push_back(atNd(O, get(1, Tup)));
    return ir::apply(UF, std::move(Args));
  });
  return BenchmarkInstance{makeProgram({P, T}, mapNd(Dims, F, Zipped)),
                           varIds(SV)};
}

/// Two grids, both slided (the SRAD2 shape). The user function receives
/// grid-1 points then grid-2 points.
BenchmarkInstance twoSlidedInstance(
    unsigned Dims, std::int64_t Window, Boundary B, const UserFunPtr &UF,
    const std::vector<std::vector<int>> &Offsets1,
    const std::vector<std::vector<int>> &Offsets2) {
  std::vector<AExpr> SV = makeSizeVars(Dims);
  ParamPtr A = param("J", gridType(SV));
  ParamPtr C = param("C", gridType(SV));
  std::int64_t R = (Window - 1) / 2;
  ExprPtr S1 = slideNd(Dims, cst(Window), cst(1),
                       padNd(Dims, cst(R), cst(R), B, A));
  ExprPtr S2 = slideNd(Dims, cst(Window), cst(1),
                       padNd(Dims, cst(R), cst(R), B, C));
  ExprPtr Zipped = zipNd(Dims, {S1, S2});
  LambdaPtr F = lam("t", [&](ExprPtr Tup) {
    std::vector<ExprPtr> Args;
    for (const std::vector<int> &O : Offsets1)
      Args.push_back(atNd(O, get(0, Tup)));
    for (const std::vector<int> &O : Offsets2)
      Args.push_back(atNd(O, get(1, Tup)));
    return ir::apply(UF, std::move(Args));
  });
  return BenchmarkInstance{makeProgram({A, C}, mapNd(Dims, F, Zipped)),
                           varIds(SV)};
}

//===----------------------------------------------------------------------===//
// Golden (independent loop-nest) helpers
//===----------------------------------------------------------------------===//

/// Clamped load from a flat row-major grid of up to 3 dims.
float loadClamp(const std::vector<float> &G, const Extents &E,
                std::int64_t I0, std::int64_t I1, std::int64_t I2 = 0) {
  std::int64_t Idx = std::clamp<std::int64_t>(I0, 0, E[0] - 1);
  if (E.size() > 1)
    Idx = Idx * E[1] + std::clamp<std::int64_t>(I1, 0, E[1] - 1);
  if (E.size() > 2)
    Idx = Idx * E[2] + std::clamp<std::int64_t>(I2, 0, E[2] - 1);
  return G[std::size_t(Idx)];
}

/// Zero-padded load (constant boundary).
float loadZero(const std::vector<float> &G, const Extents &E,
               std::int64_t I0, std::int64_t I1, std::int64_t I2 = 0) {
  if (I0 < 0 || I0 >= E[0])
    return 0.0f;
  if (E.size() > 1 && (I1 < 0 || I1 >= E[1]))
    return 0.0f;
  if (E.size() > 2 && (I2 < 0 || I2 >= E[2]))
    return 0.0f;
  std::int64_t Idx = I0;
  if (E.size() > 1)
    Idx = Idx * E[1] + I1;
  if (E.size() > 2)
    Idx = Idx * E[2] + I2;
  return G[std::size_t(Idx)];
}

/// The loop nest of every golden: returns the flat row-major grid whose
/// point (I, J, K) (K = 0 in 2-D) at flat index Idx is
/// Point(Args, I, J, K, Idx). Each row of the innermost dimension is one
/// parallelFor item on the shared pool, and Args is that row's scratch
/// vector for user-function arguments. Every point is computed by one
/// thread in a fixed order, so the bits do not depend on the worker
/// count; called from inside a pool task, the loop runs inline.
template <typename PointFn>
std::vector<float> goldenPoints(const Extents &E, PointFn Point) {
  assert((E.size() == 2 || E.size() == 3) && "goldens are 2-D or 3-D");
  std::vector<float> Out(std::size_t(totalElems(E)));
  if (Out.empty())
    return Out;
  std::int64_t Inner = E.back();
  ThreadPool::shared().parallelFor(
      Out.size() / std::size_t(Inner), [&](std::size_t R) {
        std::vector<Scalar> Args;
        std::int64_t Row = std::int64_t(R);
        std::size_t Idx = R * std::size_t(Inner);
        if (E.size() == 2) {
          for (std::int64_t J = 0; J != Inner; ++J, ++Idx)
            Out[Idx] = Point(Args, Row, J, 0, Idx);
          return;
        }
        std::int64_t I = Row / E[1], J = Row % E[1];
        for (std::int64_t K = 0; K != Inner; ++K, ++Idx)
          Out[Idx] = Point(Args, I, J, K, Idx);
      });
  return Out;
}

/// Generic weighted-sum golden sharing the (offsets, weights) data with
/// the built program — the formula exists exactly once.
std::vector<float> goldenWeighted(
    unsigned Dims, std::int64_t Window,
    const std::vector<std::vector<int>> &Offsets,
    const std::vector<float> &Weights,
    const std::vector<std::vector<float>> &Inputs, const Extents &E) {
  // Each tap's offset from the output point, in window order.
  struct Tap {
    std::int64_t D0, D1, D2;
    float W;
  };
  std::int64_t R = (Window - 1) / 2;
  std::vector<Tap> Taps;
  for (std::size_t P = 0; P != Offsets.size(); ++P) {
    const std::vector<int> &O = Offsets[P];
    Taps.push_back({O[0] - R, Dims > 1 ? O[1] - R : 0,
                    Dims > 2 ? O[2] - R : 0, Weights[P]});
  }
  const std::vector<float> &G = Inputs[0];
  return goldenPoints(E, [&](std::vector<Scalar> &, std::int64_t I,
                             std::int64_t J, std::int64_t K, std::size_t) {
    float Sum = 0.0f;
    for (const Tap &T : Taps)
      Sum += T.W * loadClamp(G, E, I + T.D0, J + T.D1, K + T.D2);
    return Sum;
  });
}

//===----------------------------------------------------------------------===//
// Offset patterns
//===----------------------------------------------------------------------===//

std::vector<std::vector<int>> box2D(int W) {
  std::vector<std::vector<int>> O;
  for (int I = 0; I != W; ++I)
    for (int J = 0; J != W; ++J)
      O.push_back({I, J});
  return O;
}

std::vector<std::vector<int>> cross2D() {
  // N, W, C, E, S (window coordinates, radius 1)
  return {{0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}};
}

std::vector<std::vector<int>> cross3D() {
  // the 6 face neighbors + center (window coordinates, radius 1)
  return {{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1},
          {1, 1, 2}, {1, 2, 1}, {2, 1, 1}};
}

std::vector<std::vector<int>> star3DRadius2() {
  // center + +-1 and +-2 along each axis (window 5): 13 points
  std::vector<std::vector<int>> O = {{2, 2, 2}};
  for (int A = 0; A != 3; ++A)
    for (int D : {-2, -1, 1, 2}) {
      std::vector<int> P = {2, 2, 2};
      P[std::size_t(A)] += D;
      O.push_back(P);
    }
  return O;
}

std::vector<std::vector<int>> poisson19Offsets() {
  // radius-1 box minus the 8 corners: 19 points
  std::vector<std::vector<int>> O;
  for (int I = 0; I != 3; ++I)
    for (int J = 0; J != 3; ++J)
      for (int K = 0; K != 3; ++K) {
        int Manhattan = std::abs(I - 1) + std::abs(J - 1) + std::abs(K - 1);
        if (Manhattan <= 2)
          O.push_back({I, J, K});
      }
  return O;
}

/// Builds a weighted benchmark where the program and the golden share
/// the same offsets/weights tables.
Benchmark weightedBenchmark(std::string Name, std::string Suite,
                            unsigned Dims, std::int64_t Window,
                            std::vector<std::vector<int>> Offsets,
                            std::vector<float> Weights, Extents Small,
                            Extents Large, Extents Measure, bool Fig7,
                            bool Fig8, bool ReduceStyle = false,
                            float ReduceScale = 1.0f) {
  Benchmark B;
  B.Name = Name;
  B.Suite = std::move(Suite);
  B.Dims = Dims;
  B.Points = int(Offsets.size());
  B.NumGrids = 1;
  B.WindowSize = Window;
  B.SmallExtents = std::move(Small);
  B.LargeExtents = std::move(Large);
  B.MeasureExtents = std::move(Measure);
  B.InFigure7 = Fig7;
  B.InFigure8 = Fig8;
  if (ReduceStyle) {
    B.Build = [Dims, Window, ReduceScale]() {
      return reduceStyleInstance(Dims, Window, Boundary::clamp(),
                                 ReduceScale);
    };
  } else {
    UserFunPtr UF = weightedUF(Name + "_f", Weights);
    B.Build = [Dims, Window, UF, Offsets]() {
      return singleGridInstance(Dims, Window, Boundary::clamp(), UF,
                                Offsets);
    };
  }
  B.Golden = [Dims, Window, Offsets, Weights](
                 const std::vector<std::vector<float>> &Inputs,
                 const Extents &E) {
    return goldenWeighted(Dims, Window, Offsets, Weights, Inputs, E);
  };
  return B;
}

//===----------------------------------------------------------------------===//
// Custom user functions
//===----------------------------------------------------------------------===//

UserFunPtr gradientUF() {
  static UserFunPtr UF = makeUserFun(
      "gradient_f", {"n", "w", "c", "e", "s"},
      std::vector<ScalarKind>(5, ScalarKind::Float), ScalarKind::Float,
      "return c + sqrt((e - w) * (e - w) + (s - n) * (s - n));",
      [](const std::vector<Scalar> &A) {
        float N = A[0].F, W = A[1].F, C = A[2].F, E = A[3].F, S = A[4].F;
        return Scalar(C + std::sqrt((E - W) * (E - W) + (S - N) * (S - N)));
      },
      /*FlopCost=*/10);
  return UF;
}

UserFunPtr srad1UF() {
  // Diffusion-coefficient kernel in the style of Rodinia's srad_kernel1
  // with a fixed q0; the coefficient is clamped into [0, 1].
  static UserFunPtr UF = makeUserFun(
      "srad1_f", {"n", "w", "c", "e", "s"},
      std::vector<ScalarKind>(5, ScalarKind::Float), ScalarKind::Float,
      "float dN = n - c; float dS = s - c; float dW = w - c;"
      " float dE = e - c;"
      " float g2 = (dN*dN + dS*dS + dW*dW + dE*dE) / (c*c);"
      " float l = (dN + dS + dW + dE) / c;"
      " float num = 0.5f*g2 - 0.0625f*(l*l);"
      " float den = 1.0f + 0.25f*l; den = den*den;"
      " float q = num / den;"
      " float q0 = 0.5f;"
      " float coeff = 1.0f / (1.0f + (q - q0) / (q0 * (1.0f + q0)));"
      " return fmax(0.0f, fmin(1.0f, coeff));",
      [](const std::vector<Scalar> &A) {
        float N = A[0].F, W = A[1].F, C = A[2].F, E = A[3].F, S = A[4].F;
        float DN = N - C, DS = S - C, DW = W - C, DE = E - C;
        float G2 = (DN * DN + DS * DS + DW * DW + DE * DE) / (C * C);
        float L = (DN + DS + DW + DE) / C;
        float Num = 0.5f * G2 - 0.0625f * (L * L);
        float Den = 1.0f + 0.25f * L;
        Den = Den * Den;
        float Q = Num / Den;
        float Q0 = 0.5f;
        float Coeff = 1.0f / (1.0f + (Q - Q0) / (Q0 * (1.0f + Q0)));
        return Scalar(std::fmax(0.0f, std::fmin(1.0f, Coeff)));
      },
      /*FlopCost=*/25);
  return UF;
}

UserFunPtr srad2UF() {
  // Image update from the diffusion coefficients (Rodinia srad_kernel2
  // uses c, s, e of both grids: 3 stencil points across 2 grids).
  static UserFunPtr UF = makeUserFun(
      "srad2_f", {"jc", "js", "je", "cc", "cs", "ce"},
      std::vector<ScalarKind>(6, ScalarKind::Float), ScalarKind::Float,
      "float d = cs * (js - jc) + ce * (je - jc) + cc * (jc - jc);"
      " return jc + 0.25f * d;",
      [](const std::vector<Scalar> &A) {
        float JC = A[0].F, JS = A[1].F, JE = A[2].F;
        float CC = A[3].F, CS = A[4].F, CE = A[5].F;
        float D = CS * (JS - JC) + CE * (JE - JC) + CC * (JC - JC);
        return Scalar(JC + 0.25f * D);
      },
      /*FlopCost=*/12);
  return UF;
}

UserFunPtr hotspot2dUF() {
  // Rodinia hotspot: temperature update from power and conduction.
  static UserFunPtr UF = makeUserFun(
      "hotspot2d_f", {"p", "tn", "tw", "tc", "te", "ts"},
      std::vector<ScalarKind>(6, ScalarKind::Float), ScalarKind::Float,
      "float cap = 0.5f; float rx = 0.2f; float ry = 0.1f;"
      " float rz = 0.05f; float amb = 80.0f;"
      " return tc + cap * (p + (tn + ts - 2.0f*tc) * ry"
      "   + (te + tw - 2.0f*tc) * rx + (amb - tc) * rz);",
      [](const std::vector<Scalar> &A) {
        float P = A[0].F, TN = A[1].F, TW = A[2].F, TC = A[3].F,
              TE = A[4].F, TS = A[5].F;
        float Cap = 0.5f, Rx = 0.2f, Ry = 0.1f, Rz = 0.05f, Amb = 80.0f;
        return Scalar(TC + Cap * (P + (TN + TS - 2.0f * TC) * Ry +
                                  (TE + TW - 2.0f * TC) * Rx +
                                  (Amb - TC) * Rz));
      },
      /*FlopCost=*/15);
  return UF;
}

UserFunPtr hotspot3dUF() {
  static UserFunPtr UF = makeUserFun(
      "hotspot3d_f", {"p", "ta", "tn", "tw", "tc", "te", "ts", "tb"},
      std::vector<ScalarKind>(8, ScalarKind::Float), ScalarKind::Float,
      "float cap = 0.5f; float rx = 0.2f; float ry = 0.1f;"
      " float rz = 0.15f; float amb = 80.0f;"
      " return tc + cap * (p + (tn + ts - 2.0f*tc) * ry"
      "   + (te + tw - 2.0f*tc) * rx + (ta + tb - 2.0f*tc) * rz"
      "   + (amb - tc) * 0.05f);",
      [](const std::vector<Scalar> &A) {
        float P = A[0].F, TA = A[1].F, TN = A[2].F, TW = A[3].F,
              TC = A[4].F, TE = A[5].F, TS = A[6].F, TB = A[7].F;
        float Cap = 0.5f, Rx = 0.2f, Ry = 0.1f, Rz = 0.15f, Amb = 80.0f;
        return Scalar(TC + Cap * (P + (TN + TS - 2.0f * TC) * Ry +
                                  (TE + TW - 2.0f * TC) * Rx +
                                  (TA + TB - 2.0f * TC) * Rz +
                                  (Amb - TC) * 0.05f));
      },
      /*FlopCost=*/20);
  return UF;
}

UserFunPtr acousticUF() {
  // Paper Listing 3 update: cf * ((2 - l2*nn)*cur + l2*sum6 - cf2*prev)
  // with loss coefficients applied at obstacle/wall boundaries (nn<6).
  static UserFunPtr UF = makeUserFun(
      "acoustic_f",
      {"prev", "s0", "s1", "s2", "cur", "s3", "s4", "s5", "nn"},
      {ScalarKind::Float, ScalarKind::Float, ScalarKind::Float,
       ScalarKind::Float, ScalarKind::Float, ScalarKind::Float,
       ScalarKind::Float, ScalarKind::Float, ScalarKind::Int},
      ScalarKind::Float,
      "float l2 = 0.25f; float loss1 = 0.999f; float loss2 = 1.001f;"
      " float nnf = (float)nn;"
      " float cf  = (nn == 6) ? 1.0f : loss1;"
      " float cf2 = (nn == 6) ? 1.0f : loss2;"
      " float sum = s0 + s1 + s2 + s3 + s4 + s5;"
      " return cf * ((2.0f - l2 * nnf) * cur + l2 * sum - cf2 * prev);",
      [](const std::vector<Scalar> &A) {
        float Prev = A[0].F;
        float Sum = A[1].F + A[2].F + A[3].F + A[5].F + A[6].F + A[7].F;
        float Cur = A[4].F;
        std::int32_t NN = A[8].I;
        float L2 = 0.25f, Loss1 = 0.999f, Loss2 = 1.001f;
        float CF = NN == 6 ? 1.0f : Loss1;
        float CF2 = NN == 6 ? 1.0f : Loss2;
        return Scalar(CF * ((2.0f - L2 * float(NN)) * Cur + L2 * Sum -
                            CF2 * Prev));
      },
      /*FlopCost=*/15);
  return UF;
}

UserFunPtr numNeighborsUF() {
  static UserFunPtr UF = makeUserFun(
      "numNeighbors", {"i", "j", "k", "d0", "d1", "d2"},
      std::vector<ScalarKind>(6, ScalarKind::Int), ScalarKind::Int,
      "return (i > 0) + (i < d0 - 1) + (j > 0) + (j < d1 - 1)"
      " + (k > 0) + (k < d2 - 1);",
      [](const std::vector<Scalar> &A) {
        std::int32_t I = A[0].I, J = A[1].I, K = A[2].I;
        std::int32_t D0 = A[3].I, D1 = A[4].I, D2 = A[5].I;
        std::int32_t NN = (I > 0) + (I < D0 - 1) + (J > 0) + (J < D1 - 1) +
                          (K > 0) + (K < D2 - 1);
        return Scalar(NN);
      },
      /*FlopCost=*/8);
  return UF;
}

//===----------------------------------------------------------------------===//
// Custom benchmark builders + goldens
//===----------------------------------------------------------------------===//

Benchmark gradientBenchmark() {
  Benchmark B;
  B.Name = "Gradient";
  B.Suite = "Rawat et al.";
  B.Dims = 2;
  B.Points = 5;
  B.NumGrids = 1;
  B.SmallExtents = {4096, 4096};
  B.LargeExtents = {8192, 8192};
  B.MeasureExtents = {128, 128};
  B.InFigure8 = true;
  B.Build = [] {
    return singleGridInstance(2, 3, Boundary::clamp(), gradientUF(),
                              cross2D());
  };
  B.Golden = [](const std::vector<std::vector<float>> &In, const Extents &E) {
    return goldenPoints(E, [&](std::vector<Scalar> &, std::int64_t I,
                               std::int64_t J, std::int64_t, std::size_t) {
      float N = loadClamp(In[0], E, I - 1, J);
      float W = loadClamp(In[0], E, I, J - 1);
      float C = loadClamp(In[0], E, I, J);
      float Ee = loadClamp(In[0], E, I, J + 1);
      float S = loadClamp(In[0], E, I + 1, J);
      return C + std::sqrt((Ee - W) * (Ee - W) + (S - N) * (S - N));
    });
  };
  return B;
}

Benchmark srad1Benchmark() {
  Benchmark B;
  B.Name = "SRAD1";
  B.Suite = "Rodinia";
  B.Dims = 2;
  B.Points = 5;
  B.NumGrids = 1;
  B.SmallExtents = {504, 458};
  B.MeasureExtents = {56, 56};
  B.InFigure7 = true;
  B.Build = [] {
    return singleGridInstance(2, 3, Boundary::clamp(), srad1UF(), cross2D());
  };
  B.Golden = [](const std::vector<std::vector<float>> &In, const Extents &E) {
    const UserFun &UF = *srad1UF();
    return goldenPoints(E, [&](std::vector<Scalar> &Args, std::int64_t I,
                               std::int64_t J, std::int64_t, std::size_t) {
      Args = {Scalar(loadClamp(In[0], E, I - 1, J)),
              Scalar(loadClamp(In[0], E, I, J - 1)),
              Scalar(loadClamp(In[0], E, I, J)),
              Scalar(loadClamp(In[0], E, I, J + 1)),
              Scalar(loadClamp(In[0], E, I + 1, J))};
      return UF.evaluate(Args).F;
    });
  };
  return B;
}

Benchmark srad2Benchmark() {
  Benchmark B;
  B.Name = "SRAD2";
  B.Suite = "Rodinia";
  B.Dims = 2;
  B.Points = 3;
  B.NumGrids = 2;
  B.SmallExtents = {504, 458};
  B.MeasureExtents = {56, 56};
  B.InFigure7 = true;
  // c, s, e of both grids (window coordinates).
  std::vector<std::vector<int>> Offsets = {{1, 1}, {2, 1}, {1, 2}};
  B.Build = [Offsets] {
    return twoSlidedInstance(2, 3, Boundary::clamp(), srad2UF(), Offsets,
                             Offsets);
  };
  B.Golden = [](const std::vector<std::vector<float>> &In, const Extents &E) {
    const UserFun &UF = *srad2UF();
    return goldenPoints(E, [&](std::vector<Scalar> &Args, std::int64_t I,
                               std::int64_t J, std::int64_t, std::size_t) {
      Args = {Scalar(loadClamp(In[0], E, I, J)),
              Scalar(loadClamp(In[0], E, I + 1, J)),
              Scalar(loadClamp(In[0], E, I, J + 1)),
              Scalar(loadClamp(In[1], E, I, J)),
              Scalar(loadClamp(In[1], E, I + 1, J)),
              Scalar(loadClamp(In[1], E, I, J + 1))};
      return UF.evaluate(Args).F;
    });
  };
  return B;
}

Benchmark hotspot2dBenchmark() {
  Benchmark B;
  B.Name = "Hotspot2D";
  B.Suite = "Rodinia";
  B.Dims = 2;
  B.Points = 5;
  B.NumGrids = 2;
  B.SmallExtents = {8192, 8192};
  B.MeasureExtents = {128, 128};
  B.InFigure7 = true;
  // n, w, c, e, s of the temperature grid.
  B.Build = [] {
    return pointPlusStencilInstance(2, 3, Boundary::clamp(), hotspot2dUF(),
                                    {{0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}});
  };
  B.Golden = [](const std::vector<std::vector<float>> &In, const Extents &E) {
    const UserFun &UF = *hotspot2dUF();
    return goldenPoints(E, [&](std::vector<Scalar> &Args, std::int64_t I,
                               std::int64_t J, std::int64_t, std::size_t Idx) {
      Args = {Scalar(In[0][Idx]),
              Scalar(loadClamp(In[1], E, I - 1, J)),
              Scalar(loadClamp(In[1], E, I, J - 1)),
              Scalar(loadClamp(In[1], E, I, J)),
              Scalar(loadClamp(In[1], E, I, J + 1)),
              Scalar(loadClamp(In[1], E, I + 1, J))};
      return UF.evaluate(Args).F;
    });
  };
  return B;
}

Benchmark hotspot3dBenchmark() {
  Benchmark B;
  B.Name = "Hotspot3D";
  B.Suite = "Rodinia";
  B.Dims = 3;
  B.Points = 7;
  B.NumGrids = 2;
  B.SmallExtents = {8, 512, 512};
  B.MeasureExtents = {4, 64, 64};
  B.InFigure7 = true;
  // above, n, w, c, e, s, below of the temperature grid.
  B.Build = [] {
    return pointPlusStencilInstance(
        3, 3, Boundary::clamp(), hotspot3dUF(),
        {{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1},
         {1, 1, 2}, {1, 2, 1}, {2, 1, 1}});
  };
  B.Golden = [](const std::vector<std::vector<float>> &In, const Extents &E) {
    const UserFun &UF = *hotspot3dUF();
    return goldenPoints(E, [&](std::vector<Scalar> &Args, std::int64_t I,
                               std::int64_t J, std::int64_t K,
                               std::size_t Idx) {
      Args = {Scalar(In[0][Idx]),
              Scalar(loadClamp(In[1], E, I - 1, J, K)),
              Scalar(loadClamp(In[1], E, I, J - 1, K)),
              Scalar(loadClamp(In[1], E, I, J, K - 1)),
              Scalar(loadClamp(In[1], E, I, J, K)),
              Scalar(loadClamp(In[1], E, I, J, K + 1)),
              Scalar(loadClamp(In[1], E, I, J + 1, K)),
              Scalar(loadClamp(In[1], E, I + 1, J, K))};
      return UF.evaluate(Args).F;
    });
  };
  return B;
}

Benchmark acousticBenchmark() {
  Benchmark B;
  B.Name = "Acoustic";
  B.Suite = "Acoustics [49]";
  B.Dims = 3;
  B.Points = 7;
  B.NumGrids = 2;
  B.SmallExtents = {404, 512, 512};
  B.MeasureExtents = {20, 48, 48};
  B.InFigure7 = true;
  B.Build = [] {
    // Paper Listing 3: zip3(grid_prev, slide3(pad3(0, grid_cur)), mask).
    std::vector<AExpr> SV = makeSizeVars(3);
    ParamPtr Prev = param("prev", gridType(SV));
    ParamPtr Cur = param("cur", gridType(SV));
    ExprPtr Slided = slideNd(3, cst(3), cst(1),
                             padNd(3, cst(1), cst(1),
                                   Boundary::constant(0.0f), Cur));
    // The neighbor-count mask is computed on the fly (array3 in the
    // paper) from the position and the grid extents.
    AExpr D0 = SV[0], D1 = SV[1], D2 = SV[2];
    ParamPtr Pi = param("i"), Pj = param("j"), Pk = param("k");
    LambdaPtr MaskF = lambda(
        {Pi, Pj, Pk},
        apply(numNeighborsUF(),
              {Pi, Pj, Pk, sizeVal(D0), sizeVal(D1), sizeVal(D2)}));
    ExprPtr Mask = generate({D0, D1, D2}, MaskF);
    ExprPtr Zipped = zipNd(3, {ExprPtr(Prev), Slided, Mask});
    LambdaPtr F = lam("m", [&](ExprPtr M) {
      ExprPtr Nbh = get(1, M);
      std::vector<ExprPtr> Args = {get(0, M),
                                   atNd({0, 1, 1}, Nbh),
                                   atNd({1, 0, 1}, Nbh),
                                   atNd({1, 1, 0}, Nbh),
                                   atNd({1, 1, 1}, Nbh),
                                   atNd({1, 1, 2}, Nbh),
                                   atNd({1, 2, 1}, Nbh),
                                   atNd({2, 1, 1}, Nbh),
                                   get(2, M)};
      return ir::apply(acousticUF(), std::move(Args));
    });
    return BenchmarkInstance{
        makeProgram({Prev, Cur}, mapNd(3, F, Zipped)), varIds(SV)};
  };
  B.Golden = [](const std::vector<std::vector<float>> &In, const Extents &E) {
    const UserFun &UF = *acousticUF();
    return goldenPoints(E, [&](std::vector<Scalar> &Args, std::int64_t I,
                               std::int64_t J, std::int64_t K,
                               std::size_t Idx) {
      std::int32_t NN = (I > 0) + (I < E[0] - 1) + (J > 0) +
                        (J < E[1] - 1) + (K > 0) + (K < E[2] - 1);
      Args = {Scalar(In[0][Idx]),
              Scalar(loadZero(In[1], E, I - 1, J, K)),
              Scalar(loadZero(In[1], E, I, J - 1, K)),
              Scalar(loadZero(In[1], E, I, J, K - 1)),
              Scalar(loadZero(In[1], E, I, J, K)),
              Scalar(loadZero(In[1], E, I, J, K + 1)),
              Scalar(loadZero(In[1], E, I, J + 1, K)),
              Scalar(loadZero(In[1], E, I + 1, J, K)),
              Scalar(NN)};
      return UF.evaluate(Args).F;
    });
  };
  return B;
}

std::vector<Benchmark> buildAll() {
  std::vector<Benchmark> B;

  // --- Figure 7 set -------------------------------------------------
  {
    // SHOC Stencil2D: weighted 9-point.
    std::vector<float> W = {0.02f, 0.08f, 0.02f, 0.08f, 0.60f,
                            0.08f, 0.02f, 0.08f, 0.02f};
    B.push_back(weightedBenchmark("Stencil2D", "SHOC", 2, 3, box2D(3), W,
                                  {4096, 4096}, {}, {128, 128},
                                  /*Fig7=*/true, /*Fig8=*/false));
  }
  B.push_back(srad1Benchmark());
  B.push_back(srad2Benchmark());
  B.push_back(hotspot2dBenchmark());
  B.push_back(hotspot3dBenchmark());
  B.push_back(acousticBenchmark());

  // --- Figure 8 set -------------------------------------------------
  {
    // Gaussian 25-point: 5x5 binomial weights / 256.
    static const float Binomial[5] = {1, 4, 6, 4, 1};
    std::vector<float> W;
    for (int I = 0; I != 5; ++I)
      for (int J = 0; J != 5; ++J)
        W.push_back(Binomial[I] * Binomial[J] / 256.0f);
    B.push_back(weightedBenchmark("Gaussian", "Rawat et al.", 2, 5,
                                  box2D(5), W, {4096, 4096}, {8192, 8192},
                                  {128, 128}, false, true));
  }
  B.push_back(gradientBenchmark());
  B.push_back(weightedBenchmark(
      "Jacobi2D5pt", "Rawat et al.", 2, 3, cross2D(),
      std::vector<float>(5, 0.2f), {4096, 4096}, {8192, 8192}, {128, 128},
      false, true));
  // Jacobi2D9pt covers the full 3x3 window with a uniform weight, so
  // it is expressed reduce-style (Listing 2) and exercises the
  // reduceSeqUnroll rule.
  B.push_back(weightedBenchmark(
      "Jacobi2D9pt", "Rawat et al.", 2, 3, box2D(3),
      std::vector<float>(9, 1.0f / 9.0f), {4096, 4096}, {8192, 8192},
      {128, 128}, false, true, /*ReduceStyle=*/true, 1.0f / 9.0f));
  B.push_back(weightedBenchmark(
      "Jacobi3D7pt", "Rawat et al.", 3, 3, cross3D(),
      std::vector<float>(7, 1.0f / 7.0f), {256, 256, 256}, {512, 512, 512},
      {32, 32, 32}, false, true));
  B.push_back(weightedBenchmark(
      "Jacobi3D13pt", "Rawat et al.", 3, 5, star3DRadius2(),
      std::vector<float>(13, 1.0f / 13.0f), {256, 256, 256},
      {512, 512, 512}, {32, 32, 32}, false, true));
  {
    // Poisson 19-point: center + faces + edges with FD weights.
    std::vector<std::vector<int>> O = poisson19Offsets();
    std::vector<float> W;
    for (const std::vector<int> &P : O) {
      int Manhattan = std::abs(P[0] - 1) + std::abs(P[1] - 1) +
                      std::abs(P[2] - 1);
      if (Manhattan == 0)
        W.push_back(2.6666f);
      else if (Manhattan == 1)
        W.push_back(-0.1666f);
      else
        W.push_back(-0.0833f);
    }
    B.push_back(weightedBenchmark("Poisson", "Rawat et al.", 3, 3, O, W,
                                  {256, 256, 256}, {512, 512, 512},
                                  {32, 32, 32}, false, true));
  }
  {
    // Heat 7-point: out = c + 0.125 * (sum of faces - 6c).
    std::vector<std::vector<int>> O = cross3D();
    std::vector<float> W;
    for (const std::vector<int> &P : O) {
      bool Center = P[0] == 1 && P[1] == 1 && P[2] == 1;
      W.push_back(Center ? 1.0f - 6.0f * 0.125f : 0.125f);
    }
    B.push_back(weightedBenchmark("Heat", "Rawat et al.", 3, 3, O, W,
                                  {256, 256, 256}, {512, 512, 512},
                                  {32, 32, 32}, false, true));
  }
  return B;
}

} // namespace

const std::vector<Benchmark> &lift::stencil::allBenchmarks() {
  static const std::vector<Benchmark> All = buildAll();
  return All;
}

const Benchmark &lift::stencil::findBenchmark(const std::string &Name) {
  for (const Benchmark &B : allBenchmarks())
    if (B.Name == Name)
      return B;
  fatalError("unknown benchmark: " + Name);
}
