//===- ThreadPool.h - Work-stealing thread pool ----------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing thread-pool executor shared by every
/// evaluation-heavy path in the repo: the parallel NDRange simulator
/// shards independent work-groups across workers, the auto-tuner
/// lowers/compiles/simulates candidates concurrently, and the
/// benchmarks' golden references compute their grids row by row.
///
/// Design:
///  * parallelFor(N, Body) runs Body(I) for every I in [0, N). The
///    index space is split into per-worker contiguous ranges; each
///    worker claims small blocks from the front of its own range and,
///    when it runs dry, steals the back half of the largest remaining
///    victim range. Contiguous blocks keep per-item state (simulator
///    shards, tuner candidates) cache-friendly.
///  * The calling thread participates as a worker, so a pool of W
///    workers uses W-1 background threads and never idles the caller.
///  * Nested parallelFor calls from inside a pool task run inline
///    (sequentially) on the calling worker: the outer loop already owns
///    the pool's parallelism, and the simulator/tuner composition
///    (parallel tuner -> per-candidate simulation, or a golden called
///    from a pool task) relies on this to avoid oversubscription and
///    deadlock.
///  * Scheduling is non-deterministic; DETERMINISM IS THE CALLER'S
///    CONTRACT: parallelFor imposes no ordering, so callers must make
///    their merge steps order-independent (the simulator merges
///    per-shard counters by summation and replays cache traces in
///    shard-index order; the tuner reduces argmin by candidate index;
///    a golden computes each point on one thread).
///  * The first exception thrown by a task is captured and rethrown on
///    the calling thread after the loop drains (fatalError paths abort
///    the process directly, as in sequential execution).
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_SUPPORT_THREADPOOL_H
#define LIFT_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lift {

/// A work-stealing pool of persistent worker threads.
class ThreadPool {
public:
  /// Creates a pool with \p Workers logical workers (including the
  /// caller of parallelFor). 0 means hardwareConcurrency().
  explicit ThreadPool(unsigned Workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Logical worker count (background threads + the calling thread).
  unsigned workers() const { return NumWorkers; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned hardwareConcurrency();

  /// A process-wide pool sized to the hardware, created on first use
  /// and intentionally leaked (workers may be referenced from static
  /// destructors otherwise).
  static ThreadPool &shared();

  /// True while the current thread is executing a parallelFor task (on
  /// any pool). Used to run nested parallel loops inline.
  static bool insideTask();

  /// Stable worker index of the current thread, for trace/metric
  /// attribution: the I-th spawned background worker of its pool
  /// returns I (in [1, workers())), fixed at spawn time and
  /// independent of which loop ranges it later claims or steals.
  /// Threads that are not pool workers — including the caller of
  /// parallelFor, which participates as logical worker 0 — return 0.
  /// Background threads are also named "lift-wI" at the OS level so
  /// native profilers agree with the trace rows.
  static unsigned workerIndex();

  /// Runs Body(I) for every I in [0, N), using at most
  /// min(MaxParallelism, workers()) threads (0 = no extra cap). Blocks
  /// until every iteration has finished. Calls from inside a pool task
  /// run inline on the current thread.
  void parallelFor(std::size_t N, const std::function<void(std::size_t)> &Body,
                   unsigned MaxParallelism = 0);

private:
  /// One worker's claimable range of the current loop. Claims and
  /// steals take M; the victim-selection scan reads Next/End without it
  /// (hence atomics), tolerating stale values and revalidating under M.
  struct WorkerRange {
    std::mutex M;
    std::atomic<std::size_t> Next{0};
    std::atomic<std::size_t> End{0};
    WorkerRange() = default;
    WorkerRange(const WorkerRange &) {}
  };

  /// State of one parallelFor invocation.
  struct Job {
    const std::function<void(std::size_t)> *Body = nullptr;
    std::vector<WorkerRange> Ranges;
    std::size_t Grain = 1;
    std::size_t Remaining = 0; ///< items not yet completed (under DoneM)
    unsigned MaxActive = 0;    ///< cap on participating workers
    unsigned Active = 0;       ///< workers currently participating
    std::mutex DoneM;
    std::condition_variable DoneCV;
    std::exception_ptr FirstError; ///< under DoneM
  };

  void workerLoop();
  void runJob(Job &J, unsigned SelfIndex);
  bool claimBlock(Job &J, unsigned SelfIndex, std::size_t &Lo,
                  std::size_t &Hi);

  unsigned NumWorkers = 1;
  std::vector<std::thread> Threads;

  std::mutex LoopM; ///< serializes top-level parallelFor calls

  std::mutex JobM;
  std::condition_variable JobCV;
  std::condition_variable IdleCV; ///< signalled when a worker leaves a job
  Job *Current = nullptr;         ///< under JobM
  std::uint64_t JobSeq = 0;       ///< bumped per job, under JobM
  unsigned InFlight = 0;          ///< workers inside runJob, under JobM
  bool ShuttingDown = false;      ///< under JobM
};

} // namespace lift

#endif // LIFT_SUPPORT_THREADPOOL_H
