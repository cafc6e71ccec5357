//===- RemainderTileDiffTest.cpp - Ragged-grid tiling differential ---------===//
//
// Part of the liftcpp project.
//
// The definition of done for the remainder-tile lowering: on prime
// grid extents (no tile size divides them) the tiled + local-memory
// pipeline must agree bit for bit across
//
//   * the untiled lowering (the semantic reference),
//   * the NDRange simulator at jobs=1,
//   * the same simulator sharded over 4 jobs, and
//   * the native C backend (emit, compile, dlopen, run), and
//   * the OpenCL text itself, compiled as host C under
//     opencl_host_shim.h and run one work-item at a time,
//
// for every boundary kind (clamp / mirror / wrap / constant). A
// constant of 1/3 needs every digit of its float literal. Two cases
// cover short axes: extent < tile (Hotspot3D's 4-deep z axis), where
// the per-dimension clamp shrinks the tile to the axis, and a grid
// with fewer outer work-groups than threads.
//
//===----------------------------------------------------------------------===//

#include "analysis/InteriorSpec.h"
#include "codegen/Runner.h"
#include "native/NativeRunner.h"
#include "ocl/Emitter.h"
#include "rewrite/Lowering.h"
#include "stencil/StencilOps.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

using namespace lift;
using namespace lift::ir;
using namespace lift::stencil;

namespace {

bool haveToolchain() {
  try {
    native::probeToolchain();
    return true;
  } catch (const native::NativeError &) {
    return false;
  }
}

/// A 3^n-point box-sum stencil over one grid with the given boundary,
/// on concrete extents \p Ext (outermost first), plus deterministic
/// input data. Window 3, step 1, pad 1/1 keeps output extents == Ext.
struct Fixture {
  Program P;
  std::vector<std::vector<float>> Inputs;
  ocl::SizeEnv Sizes;
};

Fixture makeFixture(Boundary B, const std::vector<std::int64_t> &Ext) {
  static const char *Names[3] = {"d0", "d1", "d2"};
  unsigned N = static_cast<unsigned>(Ext.size());
  std::vector<AExpr> SV;
  for (unsigned D = 0; D != N; ++D)
    SV.push_back(var(Names[D], Range(1, 1 << 30)));
  TypePtr T = floatT();
  for (auto It = SV.rbegin(); It != SV.rend(); ++It)
    T = arrayT(T, *It);
  ParamPtr A = param("A", T);
  ExprPtr Body =
      stencilNd(N, sumNeighborhood(N), cst(3), cst(1), cst(1), cst(1), B, A);

  Fixture F;
  F.P = makeProgram({A}, std::move(Body));
  std::int64_t Total = 1;
  for (unsigned D = 0; D != N; ++D) {
    F.Sizes[SV[D]->getVarId()] = Ext[D];
    Total *= Ext[D];
  }
  std::vector<float> In(static_cast<std::size_t>(Total));
  std::uint64_t S = 0x9E3779B97F4A7C15ull;
  for (float &V : In) {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    V = 0.25f + static_cast<float>((S >> 33) % 1024) / 1024.0f;
  }
  F.Inputs.push_back(std::move(In));
  return F;
}

/// The OpenCL text of \p C (ocl::emitOpenCL) compiled as host C: the
/// shim makes it a C translation unit that runs one work-item at a
/// time, and a positional wrapper gives it the native entry ABI, so
/// runNative runs it like a native kernel.
native::NativeKernelPtr compileOpenCLText(const codegen::Compiled &C) {
  std::string Cl = ocl::emitOpenCL(C.K);
  std::size_t At = Cl.find("kernel void ") + std::strlen("kernel void ");
  std::string Name = Cl.substr(At, Cl.find('(', At) - At);
  std::string Args;
  unsigned Slot = 0;
  for (const ocl::BufferDecl &B : C.K.Buffers)
    if (B.Space == ocl::MemSpace::Global)
      Args += std::string(Args.empty() ? "" : ", ") +
              (B.ElemKind == ScalarKind::Float ? "(float *)" : "(int *)") +
              "lift_bufs[" + std::to_string(Slot++) + "]";
  for (std::size_t I = 0; I != C.K.SizeArgs.size(); ++I)
    Args += std::string(Args.empty() ? "" : ", ") + "(int)lift_sizes[" +
            std::to_string(I) + "]";
  std::string Src = "#include \"" LIFT_OPENCL_HOST_SHIM "\"\n" + Cl +
                    "\nvoid lift_opencl_entry(void **lift_bufs, "
                    "const long long *lift_sizes, int lift_threads, "
                    "double *lift_prof) {\n"
                    "  (void)lift_threads;\n"
                    "  (void)lift_prof;\n"
                    "  " + Name + "(" + Args + ");\n"
                    "}\n";
  return native::compileCSource(Src, "lift_opencl_entry");
}

bool bitIdentical(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0);
}

/// Lowers \p F untiled (reference) and tiled-with-remainder, then
/// checks every execution engine produces the reference bits.
void checkRaggedAgreement(Boundary B, const std::vector<std::int64_t> &Ext,
                          std::int64_t Tile) {
  Fixture F = makeFixture(B, Ext);
  std::string What = "boundary=" + ir::toString(B) + " tile=" +
                     std::to_string(Tile);

  rewrite::LoweringOptions Plain;
  ir::Program RefLow = rewrite::lowerStencil(F.P, Plain);
  ASSERT_TRUE(bool(RefLow)) << What;
  codegen::Compiled RefC = codegen::compileProgram(RefLow, "ref");
  std::vector<float> Ref =
      codegen::runCompiled(RefC, F.Inputs, F.Sizes).Output;

  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = Tile;
  O.UseLocalMem = true;
  O.OutputExtents.assign(Ext.begin(), Ext.end());
  std::string WhyNot;
  ir::Program Low = rewrite::lowerStencil(F.P, O, &WhyNot);
  ASSERT_TRUE(bool(Low)) << What << ": " << WhyNot;
  codegen::Compiled C = codegen::compileProgram(Low, "tiled");

  std::vector<float> Seq = codegen::runCompiled(C, F.Inputs, F.Sizes).Output;
  EXPECT_TRUE(bitIdentical(Seq, Ref))
      << What << ": tiled sim at jobs=1 diverged from untiled reference";

  std::vector<float> Par =
      codegen::runCompiled(C, F.Inputs, F.Sizes, ocl::CacheConfig(),
                           /*Jobs=*/4)
          .Output;
  EXPECT_TRUE(bitIdentical(Par, Ref))
      << What << ": tiled sim at jobs=4 diverged from untiled reference";

  if (!haveToolchain())
    return; // sim cross-check still ran; native needs a host compiler
  native::NativeKernelPtr Kern = native::compileKernel(C.K);
  native::NativeRunResult NR =
      native::runNative(C, *Kern, F.Inputs, F.Sizes, /*Threads=*/3);
  EXPECT_TRUE(bitIdentical(NR.Output, Ref))
      << What << ": native backend diverged from untiled reference";

  native::NativeKernelPtr ClKern = compileOpenCLText(C);
  native::NativeRunResult CR =
      native::runNative(C, *ClKern, F.Inputs, F.Sizes);
  EXPECT_TRUE(bitIdentical(CR.Output, Ref))
      << What << ": OpenCL text diverged from untiled reference\n"
      << ClKern->source();
}

// 53 and 47 are prime: no tile size >= 2 divides either extent, so
// every dimension ends in a remainder tile (53 = 3*16 + 5, 47 = 2*16
// + 15).

TEST(RemainderTileDiff, ClampBoundaryPrimeGrid) {
  checkRaggedAgreement(Boundary::clamp(), {53, 47}, 16);
}

TEST(RemainderTileDiff, MirrorBoundaryPrimeGrid) {
  checkRaggedAgreement(Boundary::mirror(), {53, 47}, 16);
}

TEST(RemainderTileDiff, WrapBoundaryPrimeGrid) {
  checkRaggedAgreement(Boundary::wrap(), {53, 47}, 16);
}

TEST(RemainderTileDiff, ConstantBoundaryPrimeGrid) {
  checkRaggedAgreement(Boundary::constant(0.75f), {53, 47}, 16);
}

// 1/3 has no short decimal form: the pad value only keeps its bits
// when every printer writes all nine significant digits.
TEST(RemainderTileDiff, ConstantThirdBoundaryPrimeGrid) {
  checkRaggedAgreement(Boundary::constant(1.0f / 3.0f), {53, 47}, 16);
}

// Extent smaller than the tile (Hotspot3D's 4-deep z axis under tile
// 16): the per-dimension clamp issues one full-width tile for the
// short axis instead of refusing the configuration.
TEST(RemainderTileDiff, ShortAxisTileWiderThanExtent) {
  checkRaggedAgreement(Boundary::clamp(), {5, 47}, 16);
}

// A ragged 3D grid exercises the transpose-reordering path of the
// per-dimension clamped slide in all three dimensions at once.
TEST(RemainderTileDiff, ThreeDimensionalPrimeGrid) {
  checkRaggedAgreement(Boundary::clamp(), {7, 13, 19}, 8);
}

// More threads than outer work-groups. On 4x64x64 the 16-tile clamps
// to the 4-deep axis, so the tiled kernel's root loop runs once, and
// the interior split's edge planes of the untiled kernel are
// one-iteration roots too. Only the collapsed work-group nest spreads
// them over the 3 threads, and that must not move a bit.
TEST(RemainderTileDiff, ShortOuterGridMoreThreadsThanWorkGroups) {
  const std::vector<std::int64_t> Ext = {4, 64, 64};
  checkRaggedAgreement(Boundary::clamp(), Ext, 16);
  if (!haveToolchain())
    return;
  Fixture F = makeFixture(Boundary::clamp(), Ext);
  ir::Program Low = rewrite::lowerStencil(F.P, rewrite::LoweringOptions());
  ASSERT_TRUE(bool(Low));
  codegen::Compiled C = codegen::compileProgram(Low, "short_outer");
  std::vector<float> Sim = codegen::runCompiled(C, F.Inputs, F.Sizes).Output;
  codegen::Compiled Spec = C;
  Spec.K = analysis::specializeInterior(C.K);
  native::NativeKernelPtr Kern = native::compileKernel(Spec.K);
  ASSERT_NE(Kern->source().find("collapse("), std::string::npos)
      << Kern->source();
  native::NativeRunResult NR =
      native::runNative(Spec, *Kern, F.Inputs, F.Sizes, /*Threads=*/3);
  EXPECT_TRUE(bitIdentical(NR.Output, Sim))
      << "specialized native kernel diverged from the simulator\n"
      << Kern->source();
}

} // namespace
