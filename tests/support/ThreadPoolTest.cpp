//===- ThreadPoolTest.cpp - Work-stealing pool tests ----------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

using namespace lift;

namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  const std::size_t N = 10000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&](std::size_t I) { ++Hits[I]; });
  for (std::size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, SmallAndDegenerateRanges) {
  ThreadPool Pool(4);
  for (std::size_t N : {std::size_t(0), std::size_t(1), std::size_t(2),
                        std::size_t(3), std::size_t(7)}) {
    std::atomic<std::size_t> Sum{0};
    Pool.parallelFor(N, [&](std::size_t I) { Sum += I + 1; });
    EXPECT_EQ(Sum.load(), N * (N + 1) / 2) << "N=" << N;
  }
}

TEST(ThreadPool, MaxParallelismOneRunsInline) {
  ThreadPool Pool(4);
  std::vector<int> Order;
  // Not thread-safe on purpose: parallelism 1 must run on the caller.
  Pool.parallelFor(100, [&](std::size_t I) { Order.push_back(int(I)); },
                   /*MaxParallelism=*/1);
  ASSERT_EQ(Order.size(), 100u);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Order[std::size_t(I)], I);
}

TEST(ThreadPool, UnevenWorkloadsComplete) {
  ThreadPool Pool(4);
  const std::size_t N = 256;
  std::vector<std::atomic<std::uint64_t>> Out(N);
  Pool.parallelFor(N, [&](std::size_t I) {
    // Skewed work: later indices are much heavier, exercising stealing.
    std::uint64_t Acc = 0;
    for (std::size_t K = 0; K != I * 100; ++K)
      Acc += K * K + I;
    Out[I] = Acc + 1;
  });
  for (std::size_t I = 0; I != N; ++I)
    EXPECT_NE(Out[I].load(), 0u);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool Pool(4);
  std::atomic<std::size_t> Total{0};
  Pool.parallelFor(8, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::insideTask());
    // The nested loop must not deadlock waiting on pool workers.
    Pool.parallelFor(8, [&](std::size_t) { ++Total; });
  });
  EXPECT_EQ(Total.load(), 64u);
  EXPECT_FALSE(ThreadPool::insideTask());
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool Pool(4);
  // Parallel and inline (parallelism 1) loops alike.
  for (unsigned MaxPar : {0u, 1u}) {
    EXPECT_THROW(Pool.parallelFor(
                     100,
                     [&](std::size_t I) {
                       if (I == 57)
                         throw std::runtime_error("boom");
                     },
                     MaxPar),
                 std::runtime_error);
    // The caller is outside any task again, so its next loop runs in
    // parallel, and the pool stays usable after a failed loop.
    EXPECT_FALSE(ThreadPool::insideTask()) << "MaxParallelism=" << MaxPar;
    std::atomic<std::size_t> Sum{0};
    Pool.parallelFor(10, [&](std::size_t I) { Sum += I; });
    EXPECT_EQ(Sum.load(), 45u);
  }
}

TEST(ThreadPool, SharedSingletonIsUsable) {
  ThreadPool &Pool = ThreadPool::shared();
  EXPECT_GE(Pool.workers(), 1u);
  std::atomic<std::size_t> Sum{0};
  Pool.parallelFor(1000, [&](std::size_t I) { Sum += I; });
  EXPECT_EQ(Sum.load(), 1000u * 999u / 2);
}

} // namespace
