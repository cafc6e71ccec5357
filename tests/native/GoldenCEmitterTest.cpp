//===- GoldenCEmitterTest.cpp - Full-source C snapshots --------------------===//
//
// Part of the liftcpp project.
//
// Locks down the complete C translation units the native backend emits
// for representative paper benchmarks (untiled parallel loops, tiled +
// local-memory staging, a 3D stencil). Unlike the inline OpenCL goldens
// in tests/codegen/GoldenKernelTest.cpp these snapshots live as files
// under tests/native/golden/ so a change reads as a plain .c diff in
// review.
//
// To regenerate after an intentional emitter change:
//
//   tests/native/update_golden.sh [build-dir]
//
// (equivalently: run this binary with LIFT_UPDATE_GOLDEN=1).
//
//===----------------------------------------------------------------------===//

#include "analysis/InteriorSpec.h"
#include "codegen/CodeGen.h"
#include "native/CEmitter.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace lift;
using namespace lift::stencil;
using namespace lift::rewrite;

namespace {

std::string goldenPath(const std::string &File) {
  return std::string(LIFT_NATIVE_GOLDEN_DIR) + "/" + File;
}

bool updateMode() {
  const char *E = std::getenv("LIFT_UPDATE_GOLDEN");
  return E && *E && std::string(E) != "0";
}

/// Lowers a named benchmark and emits native C for it.
std::string emitBenchmark(const std::string &Name,
                          const LoweringOptions &O) {
  const Benchmark &B = findBenchmark(Name);
  BenchmarkInstance I = B.Build();
  std::string WhyNot;
  ir::Program Low = lowerStencil(I.P, O, &WhyNot);
  if (!Low)
    throw std::runtime_error("lowering failed: " + WhyNot);
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  return native::emitC(C.K);
}

/// Compares \p Actual against the stored snapshot, or rewrites the
/// snapshot when LIFT_UPDATE_GOLDEN is set.
void checkGolden(const std::string &File, const std::string &Actual) {
  std::string Path = goldenPath(File);
  if (updateMode()) {
    std::ofstream OS(Path);
    ASSERT_TRUE(OS.good()) << "cannot write golden file " << Path;
    OS << Actual;
    std::printf("updated %s (%zu bytes)\n", Path.c_str(), Actual.size());
    return;
  }
  std::ifstream IS(Path);
  ASSERT_TRUE(IS.good())
      << "missing golden file " << Path
      << "; run tests/native/update_golden.sh to create it";
  std::stringstream SS;
  SS << IS.rdbuf();
  EXPECT_EQ(Actual, SS.str())
      << "emitted C changed for " << File
      << "; if intentional, run tests/native/update_golden.sh";
}

TEST(GoldenCEmitter, Stencil2DGlobal) {
  LoweringOptions O;
  checkGolden("stencil2d_global.c", emitBenchmark("Stencil2D", O));
}

TEST(GoldenCEmitter, Stencil2DTiledLocal) {
  LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  checkGolden("stencil2d_tiled_local.c", emitBenchmark("Stencil2D", O));
}

TEST(GoldenCEmitter, Jacobi3D7ptGlobal) {
  LoweringOptions O;
  checkGolden("jacobi3d7pt_global.c", emitBenchmark("Jacobi3D7pt", O));
}

// The interior/edge specialization (analysis/InteriorSpec.h) as plain
// C: each grid loop split into a left-edge loop keeping the clamp
// arithmetic, a clamp-free interior loop, and a right-edge loop. The
// snapshot makes the transform's output reviewable as a .c diff —
// in particular that the interior loop body carries no min/max index
// clamping while the edge loops keep the general path.
TEST(GoldenCEmitter, Jacobi2D5ptGlobalSpecialized) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  LoweringOptions O;
  std::string WhyNot;
  ir::Program Low = lowerStencil(I.P, O, &WhyNot);
  ASSERT_TRUE(bool(Low)) << WhyNot;
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  analysis::SpecStats S;
  ocl::Kernel K = analysis::specializeInterior(C.K, &S);
  ASSERT_EQ(S.LoopsSplit, 2u) << "both grid loops should split";
  checkGolden("jacobi2d5pt_global_specialized.c", native::emitC(K));
}

// Profile mode as plain C: every loop-nest region wrapped in
// monotonic-clock accumulation into the entry's lift_prof slot array,
// OpenMP suppressed (timers are not thread-safe), and —
// the part the bit-identity differential test depends on — loop
// bodies untouched.
TEST(GoldenCEmitter, Stencil2DGlobalProfiled) {
  const Benchmark &B = findBenchmark("Stencil2D");
  BenchmarkInstance I = B.Build();
  LoweringOptions O;
  std::string WhyNot;
  ir::Program Low = lowerStencil(I.P, O, &WhyNot);
  ASSERT_TRUE(bool(Low)) << WhyNot;
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  native::CEmitOptions PO;
  PO.Profile = true;
  checkGolden("stencil2d_global_profiled.c", native::emitC(C.K, PO));
}

TEST(GoldenCEmitter, Stencil2DTiledLocalProfiled) {
  const Benchmark &B = findBenchmark("Stencil2D");
  BenchmarkInstance I = B.Build();
  LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  std::string WhyNot;
  ir::Program Low = lowerStencil(I.P, O, &WhyNot);
  ASSERT_TRUE(bool(Low)) << WhyNot;
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  native::CEmitOptions PO;
  PO.Profile = true;
  checkGolden("stencil2d_tiled_local_profiled.c", native::emitC(C.K, PO));
}

// A remainder-tile kernel at concrete prime extents (53 x 47, tile
// 16): LoweringOptions::OutputExtents makes the per-dimension clamp
// concrete, so the snapshot shows the clamped tail tiles as constant
// arithmetic — ceil-division trip counts (4 and 3 tiles) and
// min(37, 16*i0) / min(31, 16*i1) tile starts — instead of symbolic
// d0/d1 forms. Locks down that no tile start or local fill index can
// exceed the grid.
TEST(GoldenCEmitter, Stencil2DRemainderTile) {
  LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  O.OutputExtents = {53, 47};
  checkGolden("stencil2d_remainder_tile.c", emitBenchmark("Stencil2D", O));
}

// The same remainder-tile kernel in profile mode: timer regions must
// wrap the clamped loop nests without perturbing their bounds.
TEST(GoldenCEmitter, Stencil2DRemainderTileProfiled) {
  const Benchmark &B = findBenchmark("Stencil2D");
  BenchmarkInstance I = B.Build();
  LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  O.OutputExtents = {53, 47};
  std::string WhyNot;
  ir::Program Low = lowerStencil(I.P, O, &WhyNot);
  ASSERT_TRUE(bool(Low)) << WhyNot;
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  native::CEmitOptions PO;
  PO.Profile = true;
  checkGolden("stencil2d_remainder_tile_profiled.c", native::emitC(C.K, PO));
}

// Determinism contract behind both the golden files and the kernel
// cache: two independent builds of the same benchmark emit
// byte-identical source even though their size-variable ids differ.
TEST(GoldenCEmitter, EmissionIsDeterministicAcrossBuilds) {
  LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  EXPECT_EQ(emitBenchmark("Stencil2D", O), emitBenchmark("Stencil2D", O));
}

} // namespace
