//===- Sim.h - Instrumented NDRange simulator ------------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OpenCL-runtime substitute's shared vocabulary: size bindings,
/// cache geometry, event counters and NDRange analysis. The engine that
/// executes kernel ASTs with NDRange semantics and instruments the
/// memory system is ocl::ParallelExecutor (ParallelSim.h).
///
/// The paper ran on real GPUs; we have none, so the simulator executes
/// the *same kernels our code generator emits* and measures the effects
/// the paper's results hinge on:
///
///  * every global load/store is pushed through a line-granular cache
///    model, so coalescing (strided lanes touch many lines) and data
///    reuse (neighboring work-items hit each other's lines) are
///    *measured*, not assumed;
///  * local-memory traffic, barriers, loop overhead and user-function
///    arithmetic are counted;
///  * work-group/work-item structure is honored: a Lcl loop completes
///    for all local ids before the next statement runs, giving barrier
///    semantics; Wrg iterations are independent work-groups.
///
/// A DeviceModel (Device.h) converts the measured counters into a
/// predicted runtime for a particular GPU.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_OCL_SIM_H
#define LIFT_OCL_SIM_H

#include "ocl/KernelAst.h"

#include <cstdint>
#include <string>
#include <unordered_map>

namespace lift {
namespace ocl {

/// Concrete bindings for symbolic size variables, keyed by ArithExpr
/// variable id.
using SizeEnv = std::unordered_map<unsigned, std::int64_t>;

/// Cache geometry used while executing (models the GPU's last-level
/// cache in front of DRAM).
struct CacheConfig {
  int LineBytes = 128; ///< a power of two
  std::int64_t TotalBytes = 1256 * 1024;
  /// Direct-mapped if 1; N-way set associative (LRU) otherwise.
  int Ways = 4;
};

/// Event counters accumulated over one kernel execution.
struct ExecCounters {
  std::uint64_t GlobalLoads = 0;
  std::uint64_t GlobalStores = 0;
  std::uint64_t GlobalLoadLineMisses = 0;
  std::uint64_t LocalLoads = 0;
  std::uint64_t LocalStores = 0;
  std::uint64_t PrivateAccesses = 0;
  std::uint64_t Flops = 0;          ///< weighted user-function work
  std::uint64_t UserFunCalls = 0;
  std::uint64_t LoopIterations = 0; ///< total iterations entered
  std::uint64_t Barriers = 0;       ///< barrier executions (per group)
  std::uint64_t SelectEvals = 0;    ///< bounds checks evaluated
};

/// One ExecCounters field: its metric-key suffix (exported as
/// "sim.<Name>" / "tuner.sim.<Name>") and the member it names.
struct ExecCounterField {
  const char *Name;
  std::uint64_t ExecCounters::*Field;
};

/// Every ExecCounters field, in declaration order. Code that treats the
/// counters as a whole (metric export, shard merge, scaling, the
/// fuzzer's determinism check) iterates this table instead of naming
/// fields, so a new counter is added here once.
inline constexpr ExecCounterField ExecCounterFields[] = {
    {"global_loads", &ExecCounters::GlobalLoads},
    {"global_stores", &ExecCounters::GlobalStores},
    {"global_load_line_misses", &ExecCounters::GlobalLoadLineMisses},
    {"local_loads", &ExecCounters::LocalLoads},
    {"local_stores", &ExecCounters::LocalStores},
    {"private_accesses", &ExecCounters::PrivateAccesses},
    {"flops", &ExecCounters::Flops},
    {"user_fun_calls", &ExecCounters::UserFunCalls},
    {"loop_iterations", &ExecCounters::LoopIterations},
    {"barriers", &ExecCounters::Barriers},
    {"select_evals", &ExecCounters::SelectEvals},
};

/// Static NDRange shape derived from the kernel's loop structure with
/// sizes bound: how many work-items/groups an exact-fit launch needs.
struct NDRangeInfo {
  std::int64_t GlobalSize[3] = {1, 1, 1}; ///< work-items per dim
  std::int64_t NumGroups[3] = {1, 1, 1};  ///< work-groups per dim
  std::int64_t LocalSize[3] = {1, 1, 1};  ///< work-items per group
  bool UsesWorkGroups = false; ///< kernel has Wrg/Lcl structure
  std::int64_t LocalMemBytes = 0; ///< local memory per work-group

  std::int64_t totalWorkItems() const;
  std::int64_t totalWorkGroups() const;
};

/// Computes the exact-fit NDRange shape of \p K under \p Sizes.
NDRangeInfo analyzeNDRange(const Kernel &K, const SizeEnv &Sizes);

/// Adds one execution's counters into the global metrics registry
/// (obs/Metrics.h) under \p Prefix (e.g. "sim." -> "sim.global_loads").
/// Used by the runner for whole-process roll-ups and by the tuner for
/// its per-candidate deterministic roll-ups.
void exportCountersToMetrics(const ExecCounters &C,
                             const std::string &Prefix);

} // namespace ocl
} // namespace lift

#endif // LIFT_OCL_SIM_H
