//===- SimTest.cpp - NDRange simulator unit tests -------------------------===//
//
// Part of the liftcpp project.
//
// Tests the simulator directly on hand-built kernel ASTs: functional
// semantics of loops/stores/registers/barriers, the cache model's
// response to streaming vs strided access, and NDRange analysis. The
// expected counters are worked out by hand, and every execution test
// runs at jobs 1 and jobs 4, so sharding and trace replay must
// reproduce them exactly.
//
//===----------------------------------------------------------------------===//

#include "ocl/Emitter.h"
#include "ocl/ParallelSim.h"

#include <gtest/gtest.h>

#include <string>

using namespace lift;
using namespace lift::ir;
using namespace lift::ocl;

namespace {

/// Thread counts every execution test runs at: the calling thread only,
/// and the outermost parallel loop sharded over four pool workers.
constexpr unsigned JobCounts[] = {1, 4};

/// Builds a kernel copying in[i] -> out[i] over a Glb(0) loop with the
/// given index transform applied on the load side.
Kernel makeCopyKernel(const AExpr &N, const AExpr &LoopVar,
                      const AExpr &LoadIndex) {
  Kernel K;
  BufferDecl In;
  In.Id = 0;
  In.Name = "in0";
  In.Space = MemSpace::Global;
  In.NumElems = N;
  In.IsInput = true;
  K.Buffers.push_back(In);
  BufferDecl Out;
  Out.Id = 1;
  Out.Name = "out";
  Out.Space = MemSpace::Global;
  Out.NumElems = N;
  Out.IsOutput = true;
  K.Buffers.push_back(Out);
  K.Body.push_back(sLoop(LoopKind::Glb, 0, LoopVar, N,
                         {sStore(1, LoopVar, kLoad(0, LoadIndex))}));
  K.SizeArgs.emplace_back(N->getVarId(), "n");
  return K;
}

TEST(Sim, CopiesThroughGlobalLoop) {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  Kernel K = makeCopyKernel(N, I, I);
  SizeEnv Sizes{{N->getVarId(), 8}};
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ParallelExecutor Ex(K, Sizes, CacheConfig(), Jobs);
    Ex.bindInput(0, {1, 2, 3, 4, 5, 6, 7, 8});
    Ex.run();
    EXPECT_EQ(Ex.bufferContents(1),
              (std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(Ex.counters().GlobalLoads, 8u);
    EXPECT_EQ(Ex.counters().GlobalStores, 8u);
    EXPECT_EQ(Ex.counters().LoopIterations, 8u);
  }
}

TEST(Sim, SequentialStreamHitsCacheLines) {
  // Sequential access: one miss per 32-float line (128B lines).
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  Kernel K = makeCopyKernel(N, I, I);
  SizeEnv Sizes{{N->getVarId(), 1024}};
  CacheConfig Cache;
  Cache.LineBytes = 128;
  Cache.TotalBytes = 64 * 1024;
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ParallelExecutor Ex(K, Sizes, Cache, Jobs);
    Ex.bindInput(0, std::vector<float>(1024, 1.0f));
    Ex.run();
    EXPECT_EQ(Ex.counters().GlobalLoadLineMisses, 1024u / 32u);
  }
}

TEST(Sim, StridedAccessMissesMoreLines) {
  // Stride-32 access touches a new line on every load.
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  // load in[(i * 32) % n] — a permutation touching one line each time.
  AExpr Idx = floorMod(mul(I, cst(32)), N);
  Kernel K = makeCopyKernel(N, I, Idx);
  SizeEnv Sizes{{N->getVarId(), 1024}};
  CacheConfig Cache;
  Cache.LineBytes = 128;
  Cache.TotalBytes = 2 * 1024; // too small to retain all lines
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ParallelExecutor Ex(K, Sizes, Cache, Jobs);
    Ex.bindInput(0, std::vector<float>(1024, 1.0f));
    Ex.run();
    // Far more misses than the sequential 32-per-line case.
    EXPECT_GT(Ex.counters().GlobalLoadLineMisses, 512u);
  }
}

TEST(Sim, ReuseHitsWithinCapacity) {
  // Reading the same element n times: 1 miss, n-1 hits.
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  Kernel K = makeCopyKernel(N, I, cst(0));
  SizeEnv Sizes{{N->getVarId(), 256}};
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ParallelExecutor Ex(K, Sizes, CacheConfig(), Jobs);
    Ex.bindInput(0, std::vector<float>(256, 7.0f));
    Ex.run();
    EXPECT_EQ(Ex.counters().GlobalLoadLineMisses, 1u);
    EXPECT_EQ(Ex.bufferContents(1)[255], 7.0f);
  }
}

TEST(Sim, RegistersAndSequentialLoops) {
  // acc = 0; for (j in 0..n-1) acc += in[j]; out[0] = acc;
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr J = var("j", Range(0, 1 << 30));
  Kernel K;
  BufferDecl In;
  In.Id = 0;
  In.Name = "in0";
  In.NumElems = N;
  In.IsInput = true;
  K.Buffers.push_back(In);
  BufferDecl Out;
  Out.Id = 1;
  Out.Name = "out";
  Out.NumElems = cst(1);
  Out.IsOutput = true;
  K.Buffers.push_back(Out);
  RegisterDecl Acc;
  Acc.Id = 0;
  Acc.Name = "acc0";
  K.Registers.push_back(Acc);

  K.Body.push_back(sAssign(0, kConst(Scalar(0.0f))));
  K.Body.push_back(sLoop(
      LoopKind::Seq, 0, J, N,
      {sAssign(0, kCallUF(ufAddFloat(), {kReadVar(0), kLoad(0, J)}))}));
  K.Body.push_back(sStore(1, cst(0), kReadVar(0)));

  SizeEnv Sizes{{N->getVarId(), 5}};
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ParallelExecutor Ex(K, Sizes, CacheConfig(), Jobs);
    Ex.bindInput(0, {1, 2, 3, 4, 5});
    Ex.run();
    EXPECT_EQ(Ex.bufferContents(1)[0], 15.0f);
    EXPECT_EQ(Ex.counters().UserFunCalls, 5u);
    EXPECT_EQ(Ex.counters().Flops, 5u);
  }
}

TEST(Sim, BarrierCountsPerWorkgroupExecution) {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr W = var("w", Range(0, 1 << 30));
  Kernel K;
  BufferDecl Out;
  Out.Id = 0;
  Out.Name = "out";
  Out.NumElems = N;
  Out.IsOutput = true;
  K.Buffers.push_back(Out);
  K.Body.push_back(sLoop(LoopKind::Wrg, 0, W, N,
                         {sBarrier(), sStore(0, W, kConst(Scalar(1.0f)))}));
  SizeEnv Sizes{{N->getVarId(), 6}};
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ParallelExecutor Ex(K, Sizes, CacheConfig(), Jobs);
    Ex.run();
    EXPECT_EQ(Ex.counters().Barriers, 6u);
  }
}

TEST(Sim, SelectEvaluatesOnlyChosenSide) {
  // Select with an out-of-bounds guard must not touch memory when the
  // guard fails (the constant-pad contract).
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  Kernel K;
  BufferDecl In;
  In.Id = 0;
  In.Name = "in0";
  In.NumElems = N;
  In.IsInput = true;
  K.Buffers.push_back(In);
  BufferDecl Out;
  Out.Id = 1;
  Out.Name = "out";
  Out.NumElems = N;
  Out.IsOutput = true;
  K.Buffers.push_back(Out);
  // out[i] = (i - 1 in [0, n)) ? in[i - 1] : 42
  AExpr Shift = sub(I, cst(1));
  KExprPtr Guarded = kSelect({BoundsCheck{Shift, cst(0), N}},
                             kLoad(0, Shift), kConst(Scalar(42.0f)));
  K.Body.push_back(sLoop(LoopKind::Glb, 0, I, N, {sStore(1, I, Guarded)}));
  SizeEnv Sizes{{N->getVarId(), 4}};
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ParallelExecutor Ex(K, Sizes, CacheConfig(), Jobs);
    Ex.bindInput(0, {10, 20, 30, 40});
    Ex.run();
    EXPECT_EQ(Ex.bufferContents(1), (std::vector<float>{42, 10, 20, 30}));
    EXPECT_EQ(Ex.counters().GlobalLoads, 3u); // i=0 skipped the load
    EXPECT_EQ(Ex.counters().SelectEvals, 4u);
  }
}

TEST(Sim, NDRangeAnalysis) {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr W = var("w", Range(0, 1 << 30));
  AExpr L = var("l", Range(0, 1 << 30));
  Kernel K;
  BufferDecl Lcl;
  Lcl.Id = 0;
  Lcl.Name = "lcl0";
  Lcl.Space = MemSpace::Local;
  Lcl.NumElems = cst(18);
  K.Buffers.push_back(Lcl);
  K.Body.push_back(sLoop(
      LoopKind::Wrg, 1, W, N,
      {sLoop(LoopKind::Lcl, 0, L, cst(16),
             {sStore(0, L, kConst(Scalar(0.0f)))})}));
  SizeEnv Sizes{{N->getVarId(), 32}};
  NDRangeInfo Info = analyzeNDRange(K, Sizes);
  EXPECT_TRUE(Info.UsesWorkGroups);
  EXPECT_EQ(Info.NumGroups[1], 32);
  EXPECT_EQ(Info.LocalSize[0], 16);
  EXPECT_EQ(Info.totalWorkGroups(), 32);
  EXPECT_EQ(Info.totalWorkItems(), 32 * 16);
  EXPECT_EQ(Info.LocalMemBytes, 18 * 4);
}

TEST(Sim, UnrolledLoopChargesNoPerIterationOverhead) {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr J = var("j", Range(0, 1 << 30));
  Kernel K;
  BufferDecl Out;
  Out.Id = 0;
  Out.Name = "out";
  Out.NumElems = N;
  Out.IsOutput = true;
  K.Buffers.push_back(Out);
  K.Body.push_back(sLoop(LoopKind::Seq, 0, J, N,
                         {sStore(0, J, kConst(Scalar(1.0f)))},
                         /*Unroll=*/true));
  SizeEnv Sizes{{N->getVarId(), 7}};
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ParallelExecutor Ex(K, Sizes, CacheConfig(), Jobs);
    Ex.run();
    EXPECT_EQ(Ex.counters().LoopIterations, 1u); // setup only
    EXPECT_EQ(Ex.counters().GlobalStores, 7u);   // body still ran 7 times
  }
}

TEST(Sim, EmitterRendersHandBuiltKernel) {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  Kernel K = makeCopyKernel(N, I, I);
  K.Name = "copy";
  std::string Src = emitOpenCL(K);
  EXPECT_NE(Src.find("kernel void copy("), std::string::npos) << Src;
  EXPECT_NE(Src.find("out[i] = in0[i];"), std::string::npos) << Src;
}

} // namespace
