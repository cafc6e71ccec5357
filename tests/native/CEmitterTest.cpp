//===- CEmitterTest.cpp - Unit tests for the kernel-AST -> C emitter -------===//
//
// Part of the liftcpp project.
//
// Exercises the emitter on hand-built kernels where each property is
// isolated: loop structure and iteration counts, OpenMP pragma
// placement (thread roots, the collapsed work-group nest, the SIMD
// legality rule) and the sequential fallback, boundary-clamp index
// rendering through the floor-division helpers, local-memory tile
// declarations and their per-work-group privatization, and the exact
// float-literal formatting the bit-identity contract depends on.
//
//===----------------------------------------------------------------------===//

#include "native/CEmitter.h"

#include "analysis/InteriorSpec.h"
#include "codegen/CodeGen.h"
#include "ocl/Emitter.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

using namespace lift;
using namespace lift::ocl;

namespace {

/// in0[i] summed over a Glb loop: the smallest parallelizable kernel.
Kernel simpleGlbKernel() {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "simple";
  K.Buffers.push_back({0, "in0", ir::ScalarKind::Float, MemSpace::Global, N,
                       /*IsInput=*/true, /*IsOutput=*/false});
  K.Buffers.push_back({1, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       /*IsInput=*/false, /*IsOutput=*/true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(
      sLoop(LoopKind::Glb, 0, I, N, {sStore(1, I, kLoad(0, I))}));
  return K;
}

std::string emitDefault(const Kernel &K) { return native::emitC(K); }

/// The line just above the first line containing \p Needle, without
/// its indentation; empty when there is none.
std::string lineAbove(const std::string &Src, const std::string &Needle) {
  std::size_t At = Src.find(Needle);
  if (At == std::string::npos)
    return "";
  std::size_t End = Src.rfind('\n', At);
  if (End == std::string::npos || End == 0)
    return "";
  std::size_t Begin = Src.rfind('\n', End - 1);
  Begin = Begin == std::string::npos ? 0 : Begin + 1;
  Begin = Src.find_first_not_of(' ', Begin);
  return Src.substr(Begin, End - Begin);
}

/// A kernel with one global input and one global output of length n
/// and the body \p Build returns, given n, in0 (buffer 0) and out
/// (buffer 1).
Kernel storeKernel(
    const std::function<std::vector<StmtPtr>(const AExpr &N)> &Build) {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "k";
  K.Buffers.push_back({0, "in0", ir::ScalarKind::Float, MemSpace::Global, N,
                       true, false});
  K.Buffers.push_back({1, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.Registers.push_back({0, "acc", ir::ScalarKind::Float});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  K.Body = Build(N);
  return K;
}

TEST(CEmitter, LoopStructureAndAbi) {
  std::string Src = emitDefault(simpleGlbKernel());
  // Positional ABI: buffers unpacked in declaration order, sizes in
  // SizeArgs order, then threads and the (here unused) profile slots.
  EXPECT_NE(Src.find("void simple(void **lift_bufs, const long long "
                     "*lift_sizes, int lift_threads, double *lift_prof)"),
            std::string::npos);
  EXPECT_NE(Src.find("(void)lift_prof;"), std::string::npos);
  EXPECT_NE(Src.find("float *restrict in0 = (float *)lift_bufs[0];"),
            std::string::npos);
  EXPECT_NE(Src.find("float *restrict out = (float *)lift_bufs[1];"),
            std::string::npos);
  EXPECT_NE(Src.find("const long long n = lift_sizes[0];"),
            std::string::npos);
  // Loops match the simulator's semantics: 0..count-1 regardless of
  // the NDRange kind.
  EXPECT_NE(Src.find("for (long long i = 0; i < n; ++i) {"),
            std::string::npos);
  EXPECT_NE(Src.find("out[i] = in0[i];"), std::string::npos);
}

TEST(CEmitter, OpenMpPragmaOnOutermostGlbLoopOnly) {
  Kernel K = simpleGlbKernel();
  std::string Src = emitDefault(K);
  std::size_t Pragma = Src.find("#pragma omp parallel for");
  ASSERT_NE(Pragma, std::string::npos);
  EXPECT_EQ(Src.find("#pragma omp", Pragma + 1), std::string::npos)
      << "only the root loop may carry the pragma";
  // The pragma must immediately precede the root loop. A 1-D root
  // whose body only stores is also a SIMD loop: one combined pragma.
  EXPECT_EQ(lineAbove(Src, "for (long long i = 0;"),
            "#pragma omp parallel for simd schedule(static) "
            "num_threads(lift_threads)")
      << Src;
}

TEST(CEmitter, NestedGlbLoopGetsNoPragma) {
  // Only the outermost Glb/Wrg loop is a parallel root and carries
  // `omp parallel`. The inner one runs inside the root's threads: here
  // in vector lanes, as a SIMD loop; in other nests collapsed into the
  // root's iteration space.
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "nested";
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global,
                       mul(N, N), false, true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i"), J = var("j");
  K.Body.push_back(sLoop(
      LoopKind::Glb, 0, I, N,
      {sLoop(LoopKind::Glb, 1, J, N,
             {sStore(0, add(mul(I, N), J), kConst(ir::Scalar(1.0f)))})}));
  std::string Src = emitDefault(K);
  std::size_t First = Src.find("#pragma omp parallel for");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Src.find("#pragma omp parallel", First + 1), std::string::npos);
}

TEST(CEmitter, NestedGlbStoreLoopGetsOmpSimd) {
  // The inner Glb loop stores only and loads another buffer: its
  // iterations are independent, so it is vectorized. The outer loop
  // holds a loop, so it is a plain thread root.
  Kernel K = storeKernel([](const AExpr &N) {
    AExpr I = var("i"), J = var("j");
    return std::vector<StmtPtr>{sLoop(
        LoopKind::Glb, 0, I, N,
        {sLoop(LoopKind::Glb, 1, J, N,
               {sStore(1, add(I, J), kLoad(0, add(I, J)))})})};
  });
  std::string Src = emitDefault(K);
  EXPECT_EQ(lineAbove(Src, "for (long long i = 0;"),
            "#pragma omp parallel for schedule(static) "
            "num_threads(lift_threads)")
      << Src;
  EXPECT_EQ(lineAbove(Src, "for (long long j = 0;"), "#pragma omp simd")
      << Src;
}

TEST(CEmitter, PerfectGlbNestCollapsesAboveTheSimdLoop) {
  // i and j are both parallel and j's body is one loop, so the root
  // collapses (i, j) into one iteration space; k stores only, so it
  // keeps its own SIMD pragma and is not swallowed by the collapse.
  Kernel K = storeKernel([](const AExpr &N) {
    AExpr I = var("i"), J = var("j"), L = var("k");
    AExpr At = add(add(I, J), L);
    return std::vector<StmtPtr>{sLoop(
        LoopKind::Glb, 0, I, N,
        {sLoop(LoopKind::Glb, 1, J, N,
               {sLoop(LoopKind::Glb, 2, L, N,
                      {sStore(1, At, kLoad(0, At))})})})};
  });
  std::string Src = emitDefault(K);
  EXPECT_EQ(lineAbove(Src, "for (long long i = 0;"),
            "#pragma omp parallel for collapse(2) schedule(static) "
            "num_threads(lift_threads)")
      << Src;
  EXPECT_EQ(lineAbove(Src, "for (long long j = 0;"), "for (long long i = 0; "
                                                      "i < n; ++i) {")
      << "no pragma or statement may sit between collapsed loops:\n"
      << Src;
  EXPECT_EQ(lineAbove(Src, "for (long long k = 0;"), "#pragma omp simd")
      << Src;
}

TEST(CEmitter, WrgNestCollapsesAndDeclaresTheTilePerWorkGroup) {
  // The tiled shape: two Wrg loops over a work-group grid whose body
  // stages a local tile, then reads it back. Both Wrg levels collapse;
  // the tile and the register are declared after the last collapsed
  // header, so every work-group gets fresh ones.
  Kernel K = storeKernel([](const AExpr &N) {
    AExpr I = var("i"), J = var("j"), L = var("l"), M = var("m");
    AExpr Base = mul(add(I, J), cst(4));
    return std::vector<StmtPtr>{sLoop(
        LoopKind::Wrg, 1, I, N,
        {sLoop(LoopKind::Wrg, 0, J, N,
               {sLoop(LoopKind::Lcl, 0, L, cst(4),
                      {sStore(2, L, kLoad(0, add(Base, L)))}),
                sBarrier(),
                sLoop(LoopKind::Lcl, 0, M, cst(4),
                      {sAssign(0, kLoad(2, M)),
                       sStore(1, add(Base, M), kReadVar(0))})})})};
  });
  K.Buffers.push_back({2, "tile", ir::ScalarKind::Float, MemSpace::Local,
                       cst(4), false, false});
  std::string Src = emitDefault(K);
  EXPECT_EQ(lineAbove(Src, "for (long long i = 0;"),
            "#pragma omp parallel for collapse(2) schedule(static) "
            "num_threads(lift_threads)")
      << Src;
  EXPECT_EQ(lineAbove(Src, "float tile[4] = {0};"),
            "for (long long j = 0; j < n; ++j) {")
      << Src;
  EXPECT_EQ(lineAbove(Src, "float acc = 0;"), "float tile[4] = {0};")
      << Src;
}

TEST(CEmitter, CollapseStopsAtNonRectangularOrUnrolledLevels) {
  // The inner level's body assigns a register, so it is no SIMD loop
  // and only its count or its Unroll flag can stop the collapse.
  using Inner = std::function<StmtPtr(const AExpr &I, const AExpr &N)>;
  auto Nest = [](const Inner &Build) {
    return storeKernel([&](const AExpr &N) {
      AExpr I = var("i");
      return std::vector<StmtPtr>{
          sLoop(LoopKind::Glb, 0, I, N, {Build(I, N)})};
    });
  };
  auto Body = [](const AExpr &At) {
    return std::vector<StmtPtr>{sAssign(0, kLoad(0, At)),
                                sStore(1, At, kReadVar(0))};
  };
  const std::pair<const char *, Inner> Stopped[] = {
      {"a count that mentions the outer variable",
       [&](const AExpr &I, const AExpr &) {
         AExpr J = var("j");
         return sLoop(LoopKind::Glb, 1, J, add(I, cst(1)), Body(J));
       }},
      {"an unrolled inner level",
       [&](const AExpr &I, const AExpr &) {
         AExpr J = var("j");
         return sLoop(LoopKind::Glb, 1, J, cst(4), Body(add(I, J)),
                      /*Unroll=*/true);
       }},
  };
  for (const auto &[What, Build] : Stopped) {
    std::string Src = emitDefault(Nest(Build));
    EXPECT_EQ(lineAbove(Src, "for (long long i = 0;"),
              "#pragma omp parallel for schedule(static) "
              "num_threads(lift_threads)")
        << What << " must not be collapsed:\n"
        << Src;
    EXPECT_EQ(lineAbove(Src, "float acc = 0;"),
              "for (long long i = 0; i < n; ++i) {")
        << What << " keeps the declarations in the root:\n"
        << Src;
  }
  // The same nest over a rectangular, rolled inner level collapses.
  std::string Src = emitDefault(Nest([&](const AExpr &I, const AExpr &N) {
    AExpr J = var("j");
    return sLoop(LoopKind::Glb, 1, J, N, Body(add(I, J)));
  }));
  EXPECT_NE(Src.find("collapse(2)"), std::string::npos) << Src;
}

TEST(CEmitter, SimdOnlyOnIndependentWorkItemLoops) {
  using Body = std::function<std::vector<StmtPtr>(const AExpr &)>;
  const std::pair<const char *, Body> Refused[] = {
      {"a Seq loop",
       [](const AExpr &N) {
         AExpr I = var("i");
         return std::vector<StmtPtr>{
             sLoop(LoopKind::Seq, 0, I, N, {sStore(1, I, kLoad(0, I))})};
       }},
      {"an unrolled loop",
       [](const AExpr &) {
         AExpr I = var("i");
         return std::vector<StmtPtr>{
             sLoop(LoopKind::Seq, 0, I, cst(3), {sStore(1, I, kLoad(0, I))},
                   /*Unroll=*/true)};
       }},
      {"a body with AssignVar",
       [](const AExpr &N) {
         AExpr I = var("i");
         return std::vector<StmtPtr>{
             sLoop(LoopKind::Glb, 0, I, N,
                   {sAssign(0, kLoad(0, I)), sStore(1, I, kReadVar(0))})};
       }},
      {"a body with a nested loop",
       [](const AExpr &N) {
         AExpr I = var("i"), J = var("j");
         return std::vector<StmtPtr>{sLoop(
             LoopKind::Glb, 0, I, N,
             {sLoop(LoopKind::Seq, 0, J, cst(2),
                    {sStore(1, I, kLoad(0, add(I, J)))})})};
       }},
      {"a body that loads the buffer it stores",
       [](const AExpr &N) {
         AExpr I = var("i");
         KExprPtr Sum = kCallUF(ir::ufAddFloat(),
                                {kLoad(0, I), kLoad(1, floorDiv(I, cst(2)))});
         return std::vector<StmtPtr>{
             sLoop(LoopKind::Glb, 0, I, N, {sStore(1, I, Sum)})};
       }},
  };
  for (const auto &[What, Build] : Refused) {
    std::string Src = emitDefault(storeKernel(Build));
    EXPECT_EQ(Src.find("simd"), std::string::npos)
        << What << " must not be vectorized:\n"
        << Src;
  }
}

TEST(CEmitter, RegisterSharedAcrossRootsForcesSequentialFallback) {
  // An accumulator register written under two different parallel
  // roots cannot be privatized into either; the emitter must fall
  // back to fully sequential code rather than emit a data race.
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "shared_reg";
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.Registers.push_back({0, "acc", ir::ScalarKind::Float});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i"), J = var("j");
  K.Body.push_back(
      sLoop(LoopKind::Glb, 0, I, N, {sAssign(0, kConst(ir::Scalar(0.0f)))}));
  K.Body.push_back(sLoop(LoopKind::Glb, 0, J, N, {sStore(0, J, kReadVar(0))}));
  std::string Src = emitDefault(K);
  EXPECT_EQ(Src.find("#pragma omp parallel"), std::string::npos)
      << "register live across two roots must disable parallelism";
  EXPECT_NE(Src.find("float acc = 0;"), std::string::npos);
}

TEST(CEmitter, RegisterUsedUnderOneRootIsPrivatized) {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "priv_reg";
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.Registers.push_back({0, "acc", ir::ScalarKind::Float});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(sLoop(LoopKind::Glb, 0, I, N,
                         {sAssign(0, kConst(ir::Scalar(2.0f))),
                          sStore(0, I, kReadVar(0))}));
  std::string Src = emitDefault(K);
  ASSERT_NE(Src.find("#pragma omp parallel for"), std::string::npos);
  // The register declaration must be *inside* the root loop body (per
  // OpenMP-thread private), i.e. after the root's opening line.
  std::size_t Loop = Src.find("for (long long i = 0;");
  std::size_t Decl = Src.find("float acc = 0;");
  ASSERT_NE(Loop, std::string::npos);
  ASSERT_NE(Decl, std::string::npos);
  EXPECT_LT(Loop, Decl);
}

TEST(CEmitter, BoundaryClampRendersThroughHelpers) {
  // clampIndex(i - 1, n) must render with lift_max/lift_min, never
  // C's truncating operators or int-typed min/max.
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "clamped";
  K.Buffers.push_back({0, "in0", ir::ScalarKind::Float, MemSpace::Global, N,
                       true, false});
  K.Buffers.push_back({1, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(
      sLoop(LoopKind::Glb, 0, I, N,
            {sStore(1, I, kLoad(0, clampIndex(sub(I, cst(1)), N)))}));
  std::string Src = emitDefault(K);
  EXPECT_NE(Src.find("lift_max(0, lift_min((-1 + n), (-1 + i)))"),
            std::string::npos)
      << Src;
}

TEST(CEmitter, FloorDivisionNeverUsesTruncatingOperators) {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "divmod";
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(
      sLoop(LoopKind::Glb, 0, I, N,
            {sStore(0, add(floorDiv(I, cst(3)), floorMod(I, cst(3))),
                    kConst(ir::Scalar(1.0f)))}));
  std::string Src = emitDefault(K);
  EXPECT_NE(Src.find("lift_fdiv(i, 3)"), std::string::npos) << Src;
  EXPECT_NE(Src.find("lift_fmod(i, 3)"), std::string::npos) << Src;
}

TEST(CEmitter, FloatLiteralsRoundTrip) {
  // Both dialects print literals through one formatter, so the OpenCL
  // text computes the same bits as the native kernel.
  for (bool OpenCL : {false, true}) {
    auto Lit = [OpenCL](float V) {
      Kernel K;
      AExpr N = var("n", Range(1, 1 << 30));
      K.Name = "lit";
      K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global,
                           N, false, true});
      K.SizeArgs.push_back({N->getVarId(), "n"});
      AExpr I = var("i");
      K.Body.push_back(sLoop(LoopKind::Seq, 0, I, N,
                             {sStore(0, I, kConst(ir::Scalar(V)))}));
      return OpenCL ? ocl::emitOpenCL(K) : native::emitC(K);
    };
    // %.9g round-trips every finite float; integral values still get a
    // decimal point so the literal parses as floating.
    EXPECT_NE(Lit(0.1f).find("0.100000001f"), std::string::npos);
    EXPECT_NE(Lit(1.0f).find("1.0f"), std::string::npos);
    EXPECT_NE(Lit(-1.0e30f).find("-1.00000002e+30f"), std::string::npos);
    EXPECT_NE(Lit(1.0f / 6.0f).find("0.166666672f"), std::string::npos);
    EXPECT_NE(Lit(1.0f / 9.0f).find("0.111111112f"), std::string::npos);
    EXPECT_NE(Lit(INFINITY).find("] = INFINITY;"), std::string::npos);
  }
}

TEST(CEmitter, LocalTileEmission) {
  // The paper's tiled+local Stencil2D: the staged tile becomes a
  // plain C array with a constant extent, zero-initialized, declared
  // inside the parallel root's collapsed nest (one tile per
  // work-group), and the work-group barrier is elided to a comment.
  using namespace lift::stencil;
  const Benchmark &B = findBenchmark("Stencil2D");
  BenchmarkInstance I = B.Build();
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  ir::Program Low = rewrite::lowerStencil(I.P, O);
  ASSERT_TRUE(Low);
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  std::string Src = native::emitC(C.K);
  ASSERT_NE(Src.find("#pragma omp parallel for"), std::string::npos);
  std::size_t Root = Src.find("for (long long i0 = 0;");
  std::size_t Tile = Src.find("float lcl0[324] = {0};");
  ASSERT_NE(Root, std::string::npos) << Src;
  ASSERT_NE(Tile, std::string::npos) << Src;
  EXPECT_LT(Root, Tile) << "tile must be private to the parallel root";
  EXPECT_NE(Src.find("/* work-group barrier: implicit (loop completed) */"),
            std::string::npos);
  EXPECT_EQ(Src.find("barrier("), std::string::npos);
}

TEST(CEmitter, UnrolledSeqLoopGetsUnrollPragma) {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "unrolled";
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(sLoop(LoopKind::Seq, 0, I, cst(3),
                         {sStore(0, I, kConst(ir::Scalar(1.0f)))},
                         /*Unroll=*/true));
  std::string Src = emitDefault(K);
  EXPECT_NE(Src.find("#pragma GCC unroll 3"), std::string::npos) << Src;
}

TEST(CEmitter, KernelNameSanitizedAndCollisionFree) {
  Kernel K = simpleGlbKernel();
  K.Name = "1bad name!";
  std::string Src = native::emitC(K);
  EXPECT_EQ(Src.find("void 1bad"), std::string::npos);
  EXPECT_NE(Src.find("void v_1bad_name_(void **lift_bufs"),
            std::string::npos)
      << Src;
  std::string Cl = ocl::emitOpenCL(K);
  EXPECT_EQ(Cl.find("void 1bad"), std::string::npos);
  EXPECT_NE(Cl.find("kernel void v_1bad_name_(global float* restrict in0"),
            std::string::npos)
      << Cl;

  // OpenCL qualifiers and builtins are reserved in both dialects: a
  // buffer named `local` would otherwise read as an address space.
  K.Name = "get_global_id";
  K.Buffers[0].Name = "local";
  for (const std::string &S : {native::emitC(K), ocl::emitOpenCL(K)}) {
    EXPECT_NE(S.find("void get_global_id_2("), std::string::npos) << S;
    EXPECT_NE(S.find("out[i] = local_2[i];"), std::string::npos) << S;
  }
}

TEST(CEmitter, SpecializedClonesKeepTheLoopName) {
  // The specializer's edge and interior clones of a loop share its
  // variable; the printer names that variable once, so the column
  // loop stays `i1` in every clone instead of a burned suffix.
  using namespace lift::stencil;
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  ir::Program Low = rewrite::lowerStencil(I.P, rewrite::LoweringOptions());
  ASSERT_TRUE(Low);
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  Kernel K = analysis::specializeInterior(C.K);
  for (const std::string &Src : {native::emitC(K), ocl::emitOpenCL(K)}) {
    EXPECT_NE(Src.find(" i1 = "), std::string::npos) << Src;
    EXPECT_EQ(Src.find("i1_2"), std::string::npos) << Src;
    EXPECT_EQ(Src.find("i1_3"), std::string::npos) << Src;
  }
}

} // namespace
