//===- InteriorSpecTest.cpp - Interior/edge specialization tests ----------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "analysis/InteriorSpec.h"

#include "analysis/RangeAnalysis.h"
#include "codegen/Runner.h"
#include "native/CEmitter.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::analysis;

namespace {

struct Lowered {
  stencil::BenchmarkInstance I;
  codegen::Compiled C;
};

Lowered lower(const stencil::Benchmark &B,
              const rewrite::LoweringOptions &O = {}) {
  Lowered L{B.Build(), {}};
  std::string Why;
  ir::Program Low = rewrite::lowerStencil(L.I.P, O, &Why);
  EXPECT_NE(Low, nullptr) << B.Name << ": " << Why;
  L.C = codegen::compileProgram(Low, B.Name);
  return L;
}

/// Runs original and specialized kernels on the simulator and requires
/// bit-identical outputs over the given extents.
void expectBitIdentical(const stencil::Benchmark &B,
                        const stencil::Extents &E) {
  Lowered L = lower(B);
  SpecStats S;
  codegen::Compiled Spec = L.C;
  Spec.K = specializeInterior(L.C.K, &S);

  auto Env = stencil::makeSizeEnv(L.I, E);
  auto Inputs = stencil::makeBenchmarkInputs(B, E);
  auto Ref = codegen::runCompiled(L.C, Inputs, Env);
  auto Got = codegen::runCompiled(Spec, Inputs, Env);
  ASSERT_EQ(Ref.Output.size(), Got.Output.size()) << B.Name;
  for (std::size_t I = 0; I != Ref.Output.size(); ++I)
    ASSERT_EQ(Ref.Output[I], Got.Output[I])
        << B.Name << " differs at flat index " << I
        << " (split " << S.LoopsSplit << " loops)";
}

TEST(InteriorSpec, SplitsEveryUntiledBenchmarkGridLoop) {
  // Every untiled benchmark lowering is a pure global-memory loop nest,
  // so each grid dimension must split and every constant-pad Select /
  // clamp chain in the interior must dissolve.
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    Lowered L = lower(B);
    SpecStats S;
    ocl::Kernel K = specializeInterior(L.C.K, &S);
    EXPECT_GE(S.LoopsSplit, B.Dims) << B.Name;
    // Any registers used under split loops get fresh interior/right
    // clones (register-free kernels have nothing to duplicate).
    if (!L.C.K.Registers.empty()) {
      EXPECT_GT(K.Registers.size(), L.C.K.Registers.size()) << B.Name;
    }
  }
}

TEST(InteriorSpec, BitIdenticalOnProxyGrids) {
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    stencil::Extents E = B.MeasureExtents.empty() ? B.SmallExtents
                                                  : B.MeasureExtents;
    expectBitIdentical(B, E);
  }
}

TEST(InteriorSpec, BitIdenticalOnDegenerateGrids) {
  // Grids smaller than the halo exercise the empty-interior partition:
  // left edge takes everything, interior and right edge run zero times.
  const stencil::Benchmark &B = stencil::findBenchmark("Jacobi2D5pt");
  for (std::int64_t N : {1, 2, 3, 5}) {
    expectBitIdentical(B, {N, N});
  }
}

TEST(InteriorSpec, LeavesTiledLocalKernelsAlone) {
  // Local-memory staging uses barriers and Wrg/Lcl loops; the split is
  // not applicable and the kernel must come back unchanged.
  const stencil::Benchmark &B = stencil::findBenchmark("Jacobi2D5pt");
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.UseLocalMem = true;
  Lowered L = lower(B, O);
  SpecStats S;
  ocl::Kernel K = specializeInterior(L.C.K, &S);
  EXPECT_EQ(S.LoopsSplit, 0u);
  EXPECT_EQ(K.Registers.size(), L.C.K.Registers.size());
}

TEST(InteriorSpec, InteriorBodyIsClampFree) {
  // After specialization, the innermost interior loop nest must carry
  // no Min/Max/Mod on its own loop variables — that is the whole point.
  // Verified indirectly: the specialized kernel still bounds-checks
  // clean (the interior loads are in bounds *without* the clamps).
  for (const char *Name : {"Jacobi2D5pt", "Jacobi3D7pt", "Heat"}) {
    Lowered L = lower(stencil::findBenchmark(Name));
    ocl::Kernel K = specializeInterior(L.C.K);
    auto V = checkKernelBounds(K);
    EXPECT_TRUE(V.empty()) << Name << ":\n" << describeViolations(V);
  }
}

TEST(InteriorSpec, SecondPassChangesNothing) {
  // The native backend specializes whatever kernel it is given, also
  // one that is specialized already: a second pass must split nothing
  // and print the same C, global and tiled, bound to a grid or not.
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    for (bool Tiled : {false, true}) {
      for (bool Bound : {false, true}) {
        rewrite::LoweringOptions O;
        O.Tile = Tiled;
        O.TileOutputs = 16;
        O.UseLocalMem = Tiled;
        if (Bound)
          O.OutputExtents.assign(B.SmallExtents.begin(),
                                 B.SmallExtents.end());
        Lowered L = lower(B, O);
        SpecStats First, Second;
        ocl::Kernel K1 = specializeInterior(L.C.K, &First);
        ocl::Kernel K2 = specializeInterior(K1, &Second);
        std::string What = B.Name + (Tiled ? " tiled16-local" : " global") +
                           (Bound ? " bound" : " symbolic");
        EXPECT_EQ(First.LoopsSplit == 0, Tiled) << What;
        EXPECT_EQ(Second.LoopsSplit, 0u) << What;
        EXPECT_EQ(Second.SelectsResolved, 0u) << What;
        EXPECT_EQ(native::emitC(K2), native::emitC(K1)) << What;
      }
    }
  }
}

} // namespace
