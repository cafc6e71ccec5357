//===- GoldenKernelTest.cpp - Full-kernel OpenCL snapshots -----------------===//
//
// Part of the liftcpp project.
//
// Locks down the complete OpenCL text generated for the paper's running
// example in its two canonical forms (global and tiled+local). These
// are change detectors: any code-generation change shows up as a
// readable kernel diff here.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "ocl/Emitter.h"
#include "rewrite/Lowering.h"
#include "stencil/StencilOps.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace lift;
using namespace lift::ir;
using namespace lift::stencil;
using namespace lift::rewrite;
using namespace lift::codegen;

namespace {

/// The Listing 2 program with deterministically named size variable.
Program listing2() {
  AExpr N = var("n", Range(1, 1 << 30));
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr SumNbh = lam("nbh", [](ExprPtr Nbh) {
    return theOne(reduceSeq(etaLambda(ufAddFloat()), lit(0.0f), Nbh));
  });
  return makeProgram(
      {A}, map(SumNbh, slide(cst(3), cst(1),
                             pad(cst(1), cst(1), Boundary::clamp(), A))));
}

/// The floor-semantics index helpers every OpenCL kernel starts with.
const char *const IndexHelpers =
    "int lift_fdiv(int a, int b) {\n"
    "  int q = a / b;\n"
    "  if ((a % b != 0) && ((a < 0) != (b < 0)))\n"
    "    --q;\n"
    "  return q;\n"
    "}\n"
    "int lift_fmod(int a, int b) {\n"
    "  return a - lift_fdiv(a, b) * b;\n"
    "}\n"
    "int lift_min(int a, int b) {\n"
    "  return a < b ? a : b;\n"
    "}\n"
    "int lift_max(int a, int b) {\n"
    "  return a > b ? a : b;\n"
    "}\n";

/// Lowers and fails the test (instead of passing nullptr into
/// compileProgram) when the options do not apply.
Program lowerOrFail(const Program &P, const LoweringOptions &O) {
  std::string WhyNot;
  Program Low = lowerStencil(P, O, &WhyNot);
  if (!Low)
    throw std::runtime_error("lowering failed: " + WhyNot);
  return Low;
}

TEST(GoldenKernel, Listing2Global) {
  LoweringOptions O;
  Compiled C = compileProgram(lowerOrFail(listing2(), O), "jacobi3pt");
  std::string Src = ocl::emitOpenCL(C.K);
  std::string Expected =
      std::string("// Generated by liftcpp (CGO'18 Lift stencil "
                  "reproduction)\n\n") +
      IndexHelpers +
      "\n"
      "float addF(float a, float b) { return a + b; }\n"
      "\n"
      "kernel void jacobi3pt(global float* restrict in0, "
      "global float* restrict out, int n) {\n"
      "  float acc0 = 0;\n"
      "  for (int i0 = get_global_id(0); i0 < n; "
      "i0 += get_global_size(0)) {\n"
      "    acc0 = 0.0f;\n"
      "    for (int i1 = 0; i1 < 3; i1 += 1) {\n"
      "      acc0 = addF(acc0, in0[lift_max(0, lift_min((-1 + n), "
      "(-1 + i0 + i1)))]);\n"
      "    }\n"
      "    out[i0] = acc0;\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(Src, Expected);
}

TEST(GoldenKernel, Listing2TiledLocalUnrolled) {
  LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 4;
  O.UseLocalMem = true;
  O.UnrollReduce = true;
  Compiled C = compileProgram(lowerOrFail(listing2(), O), "jacobi3pt");
  std::string Src = ocl::emitOpenCL(C.K);
  std::string Expected =
      std::string("// Generated by liftcpp (CGO'18 Lift stencil "
                  "reproduction)\n\n") +
      IndexHelpers +
      "\n"
      "float idF(float x) { return x; }\n"
      "float addF(float a, float b) { return a + b; }\n"
      "\n"
      "kernel void jacobi3pt(global float* restrict in0, "
      "global float* restrict out, int n) {\n"
      "  local float lcl0[6];\n"
      "  float acc0 = 0;\n"
      // Clamped (remainder-legal) tiling: ceil(n/4) work-groups, the
      // last one shifted left to min(n-4, 4*i0) so it stays in bounds
      // at any n >= 4 (exact fits fold back at concrete sizes).
      "  for (int i0 = get_group_id(0); i0 < (1 + lift_fdiv((-1 + n), 4)); "
      "i0 += get_num_groups(0)) {\n"
      "    for (int i1 = get_local_id(0); i1 < 6; "
      "i1 += get_local_size(0)) {\n"
      "      lcl0[i1] = idF(in0[lift_max(0, lift_min((-1 + n), "
      "(-1 + i1 + lift_min((-4 + n), (4 * i0)))))]);\n"
      "    }\n"
      "    barrier(CLK_LOCAL_MEM_FENCE);\n"
      "    for (int i2 = get_local_id(0); i2 < 4; "
      "i2 += get_local_size(0)) {\n"
      "      acc0 = 0.0f;\n"
      "      #pragma unroll\n"
      "      for (int i3 = 0; i3 < 3; i3 += 1) {\n"
      "        acc0 = addF(acc0, lcl0[(i2 + i3)]);\n"
      "      }\n"
      "      out[(i2 + lift_min((-4 + n), (4 * i0)))] = acc0;\n"
      "    }\n"
      // The trailing barrier: a work-group that runs several tiles must
      // not overwrite lcl0 with the next tile while this one is read.
      "    barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(Src, Expected);
}

} // namespace
