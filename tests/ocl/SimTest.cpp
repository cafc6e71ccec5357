//===- SimTest.cpp - NDRange simulator unit tests -------------------------===//
//
// Part of the liftcpp project.
//
// Tests the simulator directly on hand-built kernel ASTs: functional
// semantics of loops/stores/registers/barriers, the cache model's
// response to streaming vs strided access, the index-program memo
// across loop nests, and NDRange analysis. The expected counters are
// worked out by hand, and every execution test runs at jobs 1 and
// jobs 4, so sharding and trace replay must reproduce them exactly.
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

/// Declares buffers in0 (input) and out (output), both of \p N
/// elements, on \p K.
void addInOut(Kernel &K, const AExpr &N) {
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
}

/// Builds a kernel copying in[i] -> out[i] over a Glb(0) loop with the
/// given index transform applied on the load side.
Kernel makeCopyKernel(const AExpr &N, const AExpr &LoopVar,
                      const AExpr &LoadIndex) {
  Kernel K;
  addInOut(K, N);
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
  addInOut(K, N);
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

TEST(SimDeathTest, MemoizedIndexAbortsAfterItsLoop) {
  // out[4i + j] = in0[4i + j] inside the j loop, then a store through
  // the same index program after it: j is unbound there, so the
  // program must be evaluated afresh and abort, not served from the
  // value memoized at j = 3.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  AExpr J = var("j", Range(0, 1 << 30));
  AExpr Idx = add(mul(I, cst(4)), J);
  Kernel K;
  addInOut(K, mul(N, cst(4)));
  K.Body.push_back(sLoop(
      LoopKind::Glb, 0, I, N,
      {sLoop(LoopKind::Seq, 0, J, cst(4), {sStore(1, Idx, kLoad(0, Idx))}),
       sStore(1, Idx, kConst(Scalar(0.0f)))}));
  SizeEnv Sizes{{N->getVarId(), 3}};
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    EXPECT_DEATH(
        {
          ParallelExecutor Ex(K, Sizes, CacheConfig(), Jobs);
          Ex.run();
        },
        "unbound variable 'j'");
  }
}

TEST(SimDeathTest, RefusesLineSizeThatIsNotAPowerOfTwo) {
  // A load's line number is a shift by log2(LineBytes).
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  Kernel K = makeCopyKernel(N, I, I);
  SizeEnv Sizes{{N->getVarId(), 8}};
  CacheConfig Cache;
  Cache.LineBytes = 96;
  EXPECT_DEATH(ParallelExecutor(K, Sizes, Cache, 1),
               "cache line of 96 bytes is not a power of two");
}

TEST(Sim, OneIndexProgramAtTwoDepths) {
  // P = (3i + j) mod 3n is one program, used in the j loop's body and
  // again inside the nested k loop:
  //   for i: for j < 3: { out[P] = in0[P];
  //                       for k < 2: out2[2P + k] = in0[P]; }
  // It must follow j at both depths (memoized across k, not across j
  // or i).
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  AExpr J = var("j", Range(0, 1 << 30));
  AExpr Kv = var("k", Range(0, 1 << 30));
  AExpr P = floorMod(add(mul(I, cst(3)), J), mul(N, cst(3)));
  Kernel K;
  addInOut(K, mul(N, cst(3)));
  BufferDecl Out2;
  Out2.Id = 2;
  Out2.Name = "out2";
  Out2.NumElems = mul(N, cst(6));
  K.Buffers.push_back(Out2);
  K.Body.push_back(sLoop(
      LoopKind::Glb, 0, I, N,
      {sLoop(LoopKind::Seq, 0, J, cst(3),
             {sStore(1, P, kLoad(0, P)),
              sLoop(LoopKind::Seq, 0, Kv, cst(2),
                    {sStore(2, add(mul(P, cst(2)), Kv), kLoad(0, P))})})}));
  const std::int64_t Items = 5;
  SizeEnv Sizes{{N->getVarId(), Items}};
  std::vector<float> In, Want2;
  for (std::int64_t X = 0; X != 3 * Items; ++X)
    In.push_back(float(100 + X));
  for (std::int64_t X = 0; X != 6 * Items; ++X)
    Want2.push_back(In[std::size_t(X / 2)]);
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ParallelExecutor Ex(K, Sizes, CacheConfig(), Jobs);
    Ex.bindInput(0, In);
    Ex.run();
    EXPECT_EQ(Ex.bufferContents(1), In);
    EXPECT_EQ(Ex.bufferContents(2), Want2);
    EXPECT_EQ(Ex.counters().GlobalLoads, std::uint64_t(9 * Items));
    EXPECT_EQ(Ex.counters().GlobalStores, std::uint64_t(9 * Items));
    EXPECT_EQ(Ex.counters().LoopIterations, std::uint64_t(10 * Items));
  }
}

TEST(Sim, RegionLevelOfExtentOneFollowsItsOuterLevel) {
  // A flattened Glb nest whose inner level has extent 1: that level
  // keeps the value 0 while the outer one advances, and the index
  // program j + i (innermost slot i) must still follow j.
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr J = var("j", Range(0, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  AExpr Idx = add(J, I);
  Kernel K;
  addInOut(K, N);
  K.Body.push_back(sLoop(
      LoopKind::Glb, 1, J, N,
      {sLoop(LoopKind::Glb, 0, I, cst(1), {sStore(1, Idx, kLoad(0, Idx))})}));
  SizeEnv Sizes{{N->getVarId(), 6}};
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ParallelExecutor Ex(K, Sizes, CacheConfig(), Jobs);
    Ex.bindInput(0, {1, 2, 3, 4, 5, 6});
    Ex.run();
    EXPECT_EQ(Ex.bufferContents(1), (std::vector<float>{1, 2, 3, 4, 5, 6}));
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
