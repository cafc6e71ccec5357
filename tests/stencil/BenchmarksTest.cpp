//===- BenchmarksTest.cpp - Benchmark suite correctness -------------------===//
//
// Part of the liftcpp project.
//
// Every benchmark program is validated two ways on small grids:
//  1. the high-level interpreter must match the independent golden
//     loop-nest implementation;
//  2. the lowered (mapGlb) program, compiled and executed on the
//     NDRange simulator, must match the golden too.
// The goldens themselves are pinned bit for bit by recorded hashes.
//
//===----------------------------------------------------------------------===//

#include "codegen/Runner.h"
#include "interp/Interpreter.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"
#include "support/ThreadPool.h"

#include <cstring>
#include <gtest/gtest.h>

using namespace lift;
using namespace lift::ir;
using namespace lift::interp;
using namespace lift::stencil;
using namespace lift::rewrite;
using namespace lift::codegen;

namespace {

/// Small grids for correctness runs (non-square to catch transposed
/// indexing).
Extents testExtents(const Benchmark &B) {
  if (B.Dims == 2)
    return {10, 12};
  return {4, 6, 8};
}

Value toValue(const std::vector<float> &Data, const Extents &E) {
  if (E.size() == 1)
    return makeFloatArray(Data);
  if (E.size() == 2)
    return makeFloatArray2D(Data, std::size_t(E[0]), std::size_t(E[1]));
  return makeFloatArray3D(Data, std::size_t(E[0]), std::size_t(E[1]),
                          std::size_t(E[2]));
}

void expectClose(const std::vector<float> &Got,
                 const std::vector<float> &Want, const char *What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (std::size_t I = 0; I != Got.size(); ++I)
    ASSERT_NEAR(Got[I], Want[I], 1e-4f) << What << " at " << I;
}

class BenchmarkCorrectness
    : public ::testing::TestWithParam<const char *> {};

TEST_P(BenchmarkCorrectness, InterpreterMatchesGolden) {
  const Benchmark &B = findBenchmark(GetParam());
  Extents E = testExtents(B);
  std::vector<std::vector<float>> Inputs = makeBenchmarkInputs(B, E);
  std::vector<float> Want = B.Golden(Inputs, E);

  BenchmarkInstance I = B.Build();
  std::vector<Value> InputValues;
  for (const std::vector<float> &In : Inputs)
    InputValues.push_back(toValue(In, E));
  Value Out = evalProgram(I.P, InputValues, makeSizeEnv(I, E));
  std::vector<float> Got;
  flattenValue(Out, Got);
  expectClose(Got, Want, "interpreter vs golden");
}

TEST_P(BenchmarkCorrectness, LoweredSimMatchesGolden) {
  const Benchmark &B = findBenchmark(GetParam());
  Extents E = testExtents(B);
  std::vector<std::vector<float>> Inputs = makeBenchmarkInputs(B, E);
  std::vector<float> Want = B.Golden(Inputs, E);

  BenchmarkInstance I = B.Build();
  LoweringOptions O; // plain global lowering
  Program Low = lowerStencil(I.P, O);
  ASSERT_NE(Low, nullptr);
  RunResult R = runOnSim(Low, Inputs, makeSizeEnv(I, E));
  expectClose(R.Output, Want, "lowered+sim vs golden");
}

TEST_P(BenchmarkCorrectness, UnrolledVariantMatchesGolden) {
  const Benchmark &B = findBenchmark(GetParam());
  Extents E = testExtents(B);
  std::vector<std::vector<float>> Inputs = makeBenchmarkInputs(B, E);
  std::vector<float> Want = B.Golden(Inputs, E);

  BenchmarkInstance I = B.Build();
  LoweringOptions O;
  O.UnrollReduce = true;
  Program Low = lowerStencil(I.P, O);
  ASSERT_NE(Low, nullptr);
  RunResult R = runOnSim(Low, Inputs, makeSizeEnv(I, E));
  expectClose(R.Output, Want, "unrolled+sim vs golden");
}

INSTANTIATE_TEST_SUITE_P(
    All, BenchmarkCorrectness,
    ::testing::Values("Stencil2D", "SRAD1", "SRAD2", "Hotspot2D",
                      "Hotspot3D", "Acoustic", "Gaussian", "Gradient",
                      "Jacobi2D5pt", "Jacobi2D9pt", "Jacobi3D7pt",
                      "Jacobi3D13pt", "Poisson", "Heat"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });

/// Tiled variants: single-grid slideNd shapes and multi-grid zipNd
/// shapes (overlapping tiles for slided components, exact tiles for
/// point-wise ones).
class BenchmarkTiled : public ::testing::TestWithParam<const char *> {};

TEST_P(BenchmarkTiled, TiledLocalMatchesGolden) {
  const Benchmark &B = findBenchmark(GetParam());
  // Tile-output size must divide each extent.
  Extents E = B.Dims == 2 ? Extents{12, 16} : Extents{4, 8, 12};
  std::vector<std::vector<float>> Inputs = makeBenchmarkInputs(B, E);
  std::vector<float> Want = B.Golden(Inputs, E);

  BenchmarkInstance I = B.Build();
  LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 4;
  O.UseLocalMem = true;
  Program Low = lowerStencil(I.P, O);
  ASSERT_NE(Low, nullptr) << "tiling failed for " << B.Name;
  RunResult R = runOnSim(Low, Inputs, makeSizeEnv(I, E));
  expectClose(R.Output, Want, "tiled-local+sim vs golden");
  EXPECT_GT(R.Counters.LocalLoads, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, BenchmarkTiled,
    ::testing::Values("Stencil2D", "SRAD1", "Gaussian", "Gradient",
                      "Jacobi2D5pt", "Jacobi2D9pt", "Jacobi3D7pt",
                      "Jacobi3D13pt", "Poisson", "Heat", "SRAD2",
                      "Hotspot2D", "Hotspot3D", "Acoustic"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });

/// FNV-1a over the bytes of a float grid.
std::uint64_t fnv1a(const std::vector<float> &V) {
  std::uint64_t H = 0xcbf29ce484222325ULL;
  for (float F : V) {
    unsigned char Bytes[sizeof(float)];
    std::memcpy(Bytes, &F, sizeof(float));
    for (unsigned char C : Bytes) {
      H ^= C;
      H *= 0x100000001b3ULL;
    }
  }
  return H;
}

// The goldens run row-parallel on the shared pool. Their bits must not
// depend on the worker count: these hashes were recorded from the
// sequential loop nests, on ragged grids with more rows than workers,
// and a golden called from inside a pool task (where its loop runs
// inline on one thread) must give the same bits as one called at top
// level.
TEST(GoldenBits, MatchRecordedHashesAtAnyWorkerCount) {
  struct Case {
    const char *Name;
    Extents E;
    std::uint64_t Hash;
  };
  const Case Cases[] = {
      {"Stencil2D", {37, 53}, 0x0005a21787b6487bULL},
      {"SRAD1", {37, 53}, 0x3c26350376f22f57ULL},
      {"SRAD2", {37, 53}, 0x2460078bbc007014ULL},
      {"Hotspot2D", {37, 53}, 0x696cf789f4e25063ULL},
      {"Hotspot3D", {5, 19, 23}, 0x11d82b68a0da0edeULL},
      {"Acoustic", {5, 19, 23}, 0xb8195a27c89968fbULL},
      {"Gaussian", {37, 53}, 0x6ccd733561c05202ULL},
      {"Gaussian", {512, 512}, 0xc457c74fd4c00640ULL},
      {"Gradient", {37, 53}, 0xd0fd690954f6780fULL},
      {"Jacobi2D5pt", {37, 53}, 0x1e03eadb6d735725ULL},
      {"Jacobi2D9pt", {37, 53}, 0x63bb32ca9b4c6345ULL},
      {"Jacobi3D7pt", {5, 19, 23}, 0x447d40430d0bb6fcULL},
      {"Jacobi3D13pt", {5, 19, 23}, 0xa1368be000ffeeccULL},
      {"Poisson", {5, 19, 23}, 0xa034422428d5d263ULL},
      {"Heat", {5, 19, 23}, 0xa7b97c283df5f921ULL},
  };
  for (const Case &C : Cases) {
    const Benchmark &B = findBenchmark(C.Name);
    std::vector<std::vector<float>> Inputs = makeBenchmarkInputs(B, C.E);
    std::vector<float> Top = B.Golden(Inputs, C.E);
    std::vector<float> Inline;
    ThreadPool::shared().parallelFor(
        1, [&](std::size_t) { Inline = B.Golden(Inputs, C.E); });
    ASSERT_EQ(Top.size(), std::size_t(totalElems(C.E))) << C.Name;
    EXPECT_EQ(fnv1a(Top), C.Hash)
        << C.Name << " 0x" << std::hex << fnv1a(Top);
    ASSERT_EQ(Inline.size(), Top.size()) << C.Name;
    EXPECT_EQ(std::memcmp(Inline.data(), Top.data(),
                          Top.size() * sizeof(float)),
              0)
        << C.Name << ": golden inside a pool task differs";
  }
}

TEST(Benchmarks, Table1Characteristics) {
  // The metadata reproduced in Table 1.
  const Benchmark &S2D = findBenchmark("Stencil2D");
  EXPECT_EQ(S2D.Dims, 2u);
  EXPECT_EQ(S2D.Points, 9);
  EXPECT_EQ(S2D.NumGrids, 1);

  const Benchmark &HS = findBenchmark("Hotspot2D");
  EXPECT_EQ(HS.Points, 5);
  EXPECT_EQ(HS.NumGrids, 2);
  EXPECT_EQ(HS.SmallExtents, (Extents{8192, 8192}));

  const Benchmark &AC = findBenchmark("Acoustic");
  EXPECT_EQ(AC.Dims, 3u);
  EXPECT_EQ(AC.Points, 7);
  EXPECT_EQ(AC.NumGrids, 2);

  const Benchmark &J13 = findBenchmark("Jacobi3D13pt");
  EXPECT_EQ(J13.Points, 13);
  EXPECT_EQ(J13.WindowSize, 5);

  const Benchmark &GA = findBenchmark("Gaussian");
  EXPECT_EQ(GA.Points, 25);
  EXPECT_EQ(GA.LargeExtents, (Extents{8192, 8192}));

  EXPECT_EQ(allBenchmarks().size(), 14u);
  int Fig7 = 0, Fig8 = 0;
  for (const Benchmark &B : allBenchmarks()) {
    Fig7 += B.InFigure7;
    Fig8 += B.InFigure8;
  }
  EXPECT_EQ(Fig7, 6);
  EXPECT_EQ(Fig8, 8);
}

} // namespace
