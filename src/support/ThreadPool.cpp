//===- ThreadPool.cpp - Work-stealing thread pool -------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#endif

using namespace lift;

namespace {
/// Set while the current thread executes a pool task; nested
/// parallelFor calls check it to run inline.
thread_local bool InsidePoolTask = false;

/// Spawn-order index of the current background worker (0 when the
/// thread is not a pool worker). Fixed for the thread's lifetime, so
/// trace events attribute work to stable rows even though the
/// work-stealing loop hands out ranges dynamically.
thread_local unsigned PoolWorkerIndex = 0;
} // namespace

unsigned ThreadPool::hardwareConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

ThreadPool &ThreadPool::shared() {
  // Leaked intentionally, like ArithCtx::global(): tests and tools may
  // run pool work from static teardown paths.
  static ThreadPool *Pool = new ThreadPool();
  return *Pool;
}

bool ThreadPool::insideTask() { return InsidePoolTask; }

unsigned ThreadPool::workerIndex() { return PoolWorkerIndex; }

ThreadPool::ThreadPool(unsigned Workers) {
  NumWorkers = Workers == 0 ? hardwareConcurrency() : Workers;
  // The caller of parallelFor is worker 0; spawn the rest with their
  // stable spawn-order indices.
  for (unsigned I = 1; I < NumWorkers; ++I)
    Threads.emplace_back([this, I] {
      PoolWorkerIndex = I;
#if defined(__linux__)
      // Visible in top -H, perf and native profilers (15-char limit).
      std::string Name = "lift-w" + std::to_string(I);
      pthread_setname_np(pthread_self(), Name.c_str());
#endif
      workerLoop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(JobM);
    ShuttingDown = true;
  }
  JobCV.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::workerLoop() {
  std::uint64_t SeenSeq = 0;
  while (true) {
    Job *J = nullptr;
    {
      std::unique_lock<std::mutex> Lock(JobM);
      JobCV.wait(Lock, [&] {
        return ShuttingDown || (Current != nullptr && JobSeq != SeenSeq);
      });
      if (ShuttingDown)
        return;
      SeenSeq = JobSeq;
      if (Current->Active >= Current->MaxActive)
        continue; // parallelism cap reached; sleep until the next job
      ++Current->Active;
      ++InFlight;
      J = Current;
    }
    // Background workers own no pre-assigned range (ranges belong to
    // logical indices filled by steals), so start in stealing mode.
    runJob(*J, unsigned(J->Ranges.size()));
    {
      std::lock_guard<std::mutex> Lock(JobM);
      --InFlight;
    }
    IdleCV.notify_all();
  }
}

/// Claims up to Grain items: first from the front of the worker's own
/// range, else by stealing a block from the back of the fullest victim
/// range. Returns false when every item is claimed.
bool ThreadPool::claimBlock(Job &J, unsigned SelfIndex, std::size_t &Lo,
                            std::size_t &Hi) {
  if (SelfIndex < J.Ranges.size()) {
    WorkerRange &R = J.Ranges[SelfIndex];
    std::lock_guard<std::mutex> Lock(R.M);
    std::size_t Next = R.Next.load(std::memory_order_relaxed);
    std::size_t End = R.End.load(std::memory_order_relaxed);
    if (Next < End) {
      Lo = Next;
      Hi = std::min(End, Next + J.Grain);
      R.Next.store(Hi, std::memory_order_relaxed);
      return true;
    }
  }
  while (true) {
    // Pick the victim with the most remaining work. The scan reads the
    // ranges without their locks (atomically, values may be stale); the
    // claim below revalidates under the victim's lock.
    std::size_t BestVictim = J.Ranges.size(), BestLeft = 0;
    for (std::size_t V = 0; V != J.Ranges.size(); ++V) {
      if (V == SelfIndex)
        continue;
      std::size_t Next = J.Ranges[V].Next.load(std::memory_order_relaxed);
      std::size_t End = J.Ranges[V].End.load(std::memory_order_relaxed);
      std::size_t Left = End > Next ? End - Next : 0;
      if (Left > BestLeft) {
        BestLeft = Left;
        BestVictim = V;
      }
    }
    if (BestVictim == J.Ranges.size())
      return false; // everything claimed
    WorkerRange &V = J.Ranges[BestVictim];
    std::lock_guard<std::mutex> Lock(V.M);
    std::size_t Next = V.Next.load(std::memory_order_relaxed);
    std::size_t End = V.End.load(std::memory_order_relaxed);
    if (Next >= End)
      continue; // raced with the owner; rescan
    std::size_t Take = std::min(J.Grain, End - Next);
    Lo = End - Take;
    Hi = End;
    V.End.store(Lo, std::memory_order_relaxed);
    return true;
  }
}

void ThreadPool::runJob(Job &J, unsigned SelfIndex) {
  bool WasInside = InsidePoolTask;
  InsidePoolTask = true;
  std::size_t Done = 0;
  std::size_t Lo = 0, Hi = 0;
  while (claimBlock(J, SelfIndex, Lo, Hi)) {
    for (std::size_t I = Lo; I != Hi; ++I) {
      try {
        (*J.Body)(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(J.DoneM);
        if (!J.FirstError)
          J.FirstError = std::current_exception();
      }
    }
    Done += Hi - Lo;
  }
  InsidePoolTask = WasInside;
  if (Done != 0) {
    std::lock_guard<std::mutex> Lock(J.DoneM);
    J.Remaining -= Done;
    if (J.Remaining == 0)
      J.DoneCV.notify_all();
  }
}

void ThreadPool::parallelFor(std::size_t N,
                             const std::function<void(std::size_t)> &Body,
                             unsigned MaxParallelism) {
  if (N == 0)
    return;
  unsigned Par = NumWorkers;
  if (MaxParallelism != 0)
    Par = std::min(Par, MaxParallelism);
  // Inline when there is nothing to parallelize over, or when already
  // running inside a pool task (the outer loop owns the parallelism).
  if (Par <= 1 || N == 1 || InsidePoolTask) {
    bool WasInside = InsidePoolTask;
    InsidePoolTask = true;
    try {
      for (std::size_t I = 0; I != N; ++I)
        Body(I);
    } catch (...) {
      InsidePoolTask = WasInside;
      throw;
    }
    InsidePoolTask = WasInside;
    return;
  }

  // One top-level loop at a time; concurrent outside callers queue here.
  std::lock_guard<std::mutex> LoopLock(LoopM);

  Job J;
  J.Body = &Body;
  unsigned NumRanges = unsigned(std::min<std::size_t>(Par, N));
  J.Ranges = std::vector<WorkerRange>(NumRanges);
  // Small blocks give stealing granularity; ~8 blocks per worker keeps
  // claim overhead negligible while smoothing imbalanced item costs.
  J.Grain = std::max<std::size_t>(1, N / (std::size_t(NumRanges) * 8));
  std::size_t Chunk = N / NumRanges, Extra = N % NumRanges;
  std::size_t Pos = 0;
  for (unsigned R = 0; R != NumRanges; ++R) {
    std::size_t Len = Chunk + (R < Extra ? 1 : 0);
    J.Ranges[R].Next.store(Pos, std::memory_order_relaxed);
    J.Ranges[R].End.store(Pos + Len, std::memory_order_relaxed);
    Pos += Len;
  }
  J.Remaining = N;
  J.MaxActive = Par - 1; // background workers; the caller always joins

  {
    std::lock_guard<std::mutex> Lock(JobM);
    Current = &J;
    ++JobSeq;
  }
  JobCV.notify_all();

  // The caller participates as the owner of range 0.
  runJob(J, 0);

  {
    std::unique_lock<std::mutex> Lock(J.DoneM);
    J.DoneCV.wait(Lock, [&] { return J.Remaining == 0; });
  }
  // Wait for late-waking workers to leave runJob before J goes out of
  // scope, then retract the job pointer.
  {
    std::unique_lock<std::mutex> Lock(JobM);
    Current = nullptr;
    IdleCV.wait(Lock, [&] { return InFlight == 0; });
  }
  if (J.FirstError)
    std::rethrow_exception(J.FirstError);
}
