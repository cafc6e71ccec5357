//===- ParallelSimTest.cpp - Simulator counters and outputs on benchmarks -===//
//
// Part of the liftcpp project.
//
// The NDRange simulator promises counters and outputs that do not
// depend on the thread count (see ParallelSim.h for the merge
// contract). These tests hold it to that on 2D and 3D stencils,
// untiled and tiled+staged, at jobs 1, 2 and 8: every counter field
// must equal a frozen reference, and every output element must equal
// the reference interpreter's bit for bit.
//
// The first five frozen counters were recorded from an earlier,
// sequential tree-walking implementation of the simulator (it
// evaluated the kernel AST directly, with no compiled plan and no
// sharding), the rest from the compiled simulator before it memoized
// index programs, so they pin the cache model and the event
// accounting, not just self-consistency across thread counts.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "interp/Interpreter.h"
#include "ocl/ParallelSim.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

using namespace lift;
using namespace lift::ocl;
using namespace lift::stencil;

namespace {

void expectCountersEqual(const ExecCounters &Want, const ExecCounters &Got,
                         const std::string &What) {
  EXPECT_EQ(Want.GlobalLoads, Got.GlobalLoads) << What;
  EXPECT_EQ(Want.GlobalStores, Got.GlobalStores) << What;
  EXPECT_EQ(Want.GlobalLoadLineMisses, Got.GlobalLoadLineMisses) << What;
  EXPECT_EQ(Want.LocalLoads, Got.LocalLoads) << What;
  EXPECT_EQ(Want.LocalStores, Got.LocalStores) << What;
  EXPECT_EQ(Want.PrivateAccesses, Got.PrivateAccesses) << What;
  EXPECT_EQ(Want.Flops, Got.Flops) << What;
  EXPECT_EQ(Want.UserFunCalls, Got.UserFunCalls) << What;
  EXPECT_EQ(Want.LoopIterations, Got.LoopIterations) << What;
  EXPECT_EQ(Want.Barriers, Got.Barriers) << What;
  EXPECT_EQ(Want.SelectEvals, Got.SelectEvals) << What;
}

interp::Value toValue(const std::vector<float> &Data, const Extents &E) {
  if (E.size() == 2)
    return interp::makeFloatArray2D(Data, std::size_t(E[0]),
                                    std::size_t(E[1]));
  return interp::makeFloatArray3D(Data, std::size_t(E[0]),
                                  std::size_t(E[1]), std::size_t(E[2]));
}

/// Lowers one benchmark configuration at its measurement grid, runs it
/// on the simulator at jobs 1/2/8, and asserts every counter field
/// equals \p Want and every output element equals the interpreter's
/// result for the high-level program.
void checkAgainstReference(const char *BenchName,
                           const rewrite::LoweringOptions &O,
                           const ExecCounters &Want) {
  const Benchmark &B = findBenchmark(BenchName);
  BenchmarkInstance I = B.Build();
  ir::Program Low = rewrite::lowerStencil(I.P, O);
  ASSERT_TRUE(Low) << BenchName << ": lowering failed";

  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  auto Sizes = makeSizeEnv(I, B.MeasureExtents);
  auto Inputs = makeBenchmarkInputs(B, B.MeasureExtents);

  std::vector<interp::Value> InputValues;
  for (const std::vector<float> &In : Inputs)
    InputValues.push_back(toValue(In, B.MeasureExtents));
  std::vector<float> RefOut;
  interp::flattenValue(interp::evalProgram(I.P, InputValues, Sizes), RefOut);

  for (unsigned Jobs : {1u, 2u, 8u}) {
    ParallelExecutor Par(C.K, Sizes, CacheConfig(), Jobs);
    for (std::size_t X = 0; X != Inputs.size(); ++X)
      Par.bindInput(C.InputBufferIds[X], Inputs[X]);
    Par.run();

    std::string What = std::string(BenchName) + "/" + O.describe() +
                       " jobs=" + std::to_string(Jobs);
    expectCountersEqual(Want, Par.counters(), What);

    std::vector<float> ParOut = Par.bufferContents(C.OutputBufferId);
    ASSERT_EQ(RefOut.size(), ParOut.size()) << What;
    for (std::size_t X = 0; X != RefOut.size(); ++X)
      ASSERT_EQ(0, std::memcmp(&RefOut[X], &ParOut[X], sizeof(float)))
          << What << ", element " << X << ": interpreter " << RefOut[X]
          << ", simulator " << ParOut[X];
  }
}

// Frozen counters are ExecCounters aggregates in field order:
// GlobalLoads, GlobalStores, GlobalLoadLineMisses, LocalLoads,
// LocalStores, PrivateAccesses, Flops, UserFunCalls, LoopIterations,
// Barriers, SelectEvals. All runs use the default CacheConfig.

TEST(ParallelSim, Jacobi2DUntiledMatchesSequential) {
  rewrite::LoweringOptions O;
  checkAgainstReference(
      "Jacobi2D5pt", O,
      ExecCounters{81920, 16384, 512, 0, 0, 0, 163840, 16384, 16512, 0, 0});
}

TEST(ParallelSim, Jacobi2DTiledLocalUnrollMatchesSequential) {
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  O.UnrollReduce = true;
  checkAgainstReference("Jacobi2D5pt", O,
                        ExecCounters{20736, 16384, 512, 81920, 20736, 0,
                                     184576, 37120, 39368, 64, 0});
}

TEST(ParallelSim, Jacobi3DUntiledMatchesSequential) {
  rewrite::LoweringOptions O;
  checkAgainstReference(
      "Jacobi3D7pt", O,
      ExecCounters{229376, 32768, 1024, 0, 0, 0, 458752, 32768, 33824, 0, 0});
}

TEST(ParallelSim, Jacobi3DTiledLocalMatchesSequential) {
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 8;
  O.UseLocalMem = true;
  checkAgainstReference("Jacobi3D13pt", O,
                        ExecCounters{110592, 32768, 1024, 425984, 110592, 0,
                                     962560, 143360, 158036, 64, 0});
}

TEST(ParallelSim, ZipInputStencilMatchesSequential) {
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  checkAgainstReference(
      "Hotspot2D", O,
      ExecCounters{98304, 16384, 1024, 0, 0, 0, 245760, 16384, 17480, 0, 0});
}

// The shapes below exercise the simulator's index-program memo: a
// constant-pad Select, a tile clamped on a short axis, a sequential
// loop inside the parallel region, an unrolled reduction and two input
// grids. Their counters were recorded before the memo existed.

TEST(ParallelSim, AcousticConstantPadSelectsMatchSequential) {
  rewrite::LoweringOptions O;
  checkAgainstReference("Acoustic", O,
                        ExecCounters{360192, 46080, 2880, 0, 0, 0, 1059840,
                                     92160, 47060, 0, 961920});
}

TEST(ParallelSim, Hotspot3DShortAxisTileMatchesSequential) {
  // Lowered for the 4x64x64 measurement grid, so the 16-output tile is
  // clamped to one 4-deep tile on the outermost axis.
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  O.OutputExtents = {4, 64, 64};
  checkAgainstReference("Hotspot3D", O,
                        ExecCounters{47488, 16384, 1024, 114688, 31104, 0,
                                     358784, 47488, 50421, 16, 0});
}

TEST(ParallelSim, Jacobi2DCoarsenedSeqLoopMatchesSequential) {
  rewrite::LoweringOptions O;
  O.Coarsen = 4;
  checkAgainstReference(
      "Jacobi2D5pt", O,
      ExecCounters{81920, 16384, 512, 0, 0, 0, 163840, 16384, 20608, 0, 0});
}

TEST(ParallelSim, Jacobi2D9ptUnrolledReduceMatchesSequential) {
  rewrite::LoweringOptions O;
  O.UnrollReduce = true;
  checkAgainstReference("Jacobi2D9pt", O,
                        ExecCounters{147456, 16384, 512, 0, 0, 0, 163840,
                                     163840, 32896, 0, 0});
}

TEST(ParallelSim, SRAD2TwoGridsMatchSequential) {
  rewrite::LoweringOptions O;
  checkAgainstReference(
      "SRAD2", O,
      ExecCounters{18816, 3136, 196, 0, 0, 0, 37632, 3136, 3192, 0, 0});
}

} // namespace
