//===- EmitterTest.cpp - OpenCL C emission tests --------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "ocl/Emitter.h"
#include "stencil/StencilOps.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::ir;
using namespace lift::ocl;
using namespace lift::stencil;
using namespace lift::codegen;

namespace {

AExpr sizeVar(const char *Name) { return var(Name, Range(1, 1 << 30)); }

std::string emitListing2() {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr SumNbh = lam("nbh", [](ExprPtr Nbh) {
    return theOne(reduceSeq(etaLambda(ufAddFloat()), lit(0.0f), Nbh));
  });
  Program P = makeProgram(
      {A}, mapGlb(0, SumNbh,
                  slide(cst(3), cst(1),
                        pad(cst(1), cst(1), Boundary::clamp(), A))));
  Compiled C = compileProgram(P, "jacobi3pt");
  return emitOpenCL(C.K);
}

/// The kernel function of \p Src, from its `kernel void` line on: the
/// index-helper prelude above it holds a ternary and calls lift_min and
/// lift_max itself, so checks for the body's forms must skip it.
std::string kernelBody(const std::string &Src) {
  std::size_t At = Src.find("kernel void ");
  return At == std::string::npos ? std::string() : Src.substr(At);
}

TEST(Emitter, KernelSignature) {
  std::string Src = emitListing2();
  EXPECT_NE(Src.find("kernel void jacobi3pt("), std::string::npos) << Src;
  EXPECT_NE(Src.find("global float* restrict in0"), std::string::npos);
  EXPECT_NE(Src.find("global float* restrict out"), std::string::npos);
  EXPECT_NE(Src.find("int n"), std::string::npos);
}

TEST(Emitter, GlobalIdLoop) {
  std::string Src = emitListing2();
  EXPECT_NE(Src.find("get_global_id(0)"), std::string::npos) << Src;
  EXPECT_NE(Src.find("get_global_size(0)"), std::string::npos);
}

TEST(Emitter, UserFunEmitted) {
  std::string Src = emitListing2();
  EXPECT_NE(Src.find("float addF(float a, float b) { return a + b; }"),
            std::string::npos)
      << Src;
}

TEST(Emitter, ClampedLoadUsesMinMax) {
  std::string Body = kernelBody(emitListing2());
  // The pad(clamp) view must fold into min/max index arithmetic, not
  // data movement: the load's index is clamped in place.
  EXPECT_NE(Body.find("in0[lift_max(0, lift_min("), std::string::npos)
      << Body;
}

TEST(Emitter, LocalMemoryKernel) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr SumNbh = lam("nbh", [](ExprPtr Nbh) {
    return theOne(reduceSeq(etaLambda(ufAddFloat()), lit(0.0f), Nbh));
  });
  LambdaPtr PerTile = lam("tile", [&](ExprPtr Tile) {
    ExprPtr Staged = mapLcl(0, toLocal(etaLambda(ufIdFloat())), Tile);
    return mapLcl(0, SumNbh, slide(cst(3), cst(1), Staged));
  });
  Program P = makeProgram(
      {A}, join(mapWrg(0, PerTile,
                       slide(cst(6), cst(4),
                             pad(cst(1), cst(1), Boundary::clamp(), A)))));
  Compiled C = compileProgram(P, "tiled_local");
  std::string Src = emitOpenCL(C.K);
  EXPECT_NE(Src.find("local float lcl0[6];"), std::string::npos) << Src;
  EXPECT_NE(Src.find("barrier(CLK_LOCAL_MEM_FENCE);"), std::string::npos);
  EXPECT_NE(Src.find("get_group_id(0)"), std::string::npos);
  EXPECT_NE(Src.find("get_local_id(0)"), std::string::npos);
}

TEST(Emitter, ConstantPadEmitsGuard) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr SumNbh = lam("nbh", [](ExprPtr Nbh) {
    return theOne(reduceSeq(etaLambda(ufAddFloat()), lit(0.0f), Nbh));
  });
  Program P = makeProgram(
      {A}, mapGlb(0, SumNbh,
                  slide(cst(3), cst(1),
                        pad(cst(1), cst(1), Boundary::constant(0.0f), A))));
  Compiled C = compileProgram(P, "constpad");
  std::string Body = kernelBody(emitOpenCL(C.K));
  // The pad(constant) view guards the load with a bounds test that
  // selects the pad value outside the input.
  EXPECT_NE(Body.find("? in0["), std::string::npos) << Body;
  EXPECT_NE(Body.find(" : 0.0f)"), std::string::npos) << Body;
}

TEST(Emitter, UnrolledReducePragma) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = makeProgram(
      {A}, mapGlb(0, lam("nbh", [](ExprPtr Nbh) {
             return theOne(
                 reduceSeqUnroll(etaLambda(ufAddFloat()), lit(0.0f), Nbh));
           }),
           slide(cst(3), cst(1), pad(cst(1), cst(1), Boundary::clamp(), A))));
  Compiled C = compileProgram(P, "unrolled");
  std::string Src = emitOpenCL(C.K);
  EXPECT_NE(Src.find("#pragma unroll"), std::string::npos) << Src;
}

} // namespace
