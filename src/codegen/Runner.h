//===- Runner.h - Compile-and-simulate convenience -------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call pipeline: compile a low-level Lift program, execute it on
/// the instrumented NDRange simulator, and return outputs + counters.
/// Used by tests (against the interpreter oracle), the auto-tuner and
/// the benchmark harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_CODEGEN_RUNNER_H
#define LIFT_CODEGEN_RUNNER_H

#include "codegen/CodeGen.h"
#include "ocl/Sim.h"

namespace lift {
namespace codegen {

/// Everything a caller may want from one simulated execution.
struct RunResult {
  std::vector<float> Output;
  ocl::ExecCounters Counters;
  ocl::NDRangeInfo NDRange;
};

/// Compiles \p P and executes it on the simulator. \p Inputs holds one
/// flat row-major float vector per program parameter; \p Sizes binds
/// the size variables. \p Cache configures the modeled last-level
/// cache. \p Jobs is the number of threads the simulator
/// (ocl::ParallelExecutor) may use (0 = all hardware workers); counters
/// and outputs are identical for every value.
RunResult runOnSim(const ir::Program &P,
                   const std::vector<std::vector<float>> &Inputs,
                   const ocl::SizeEnv &Sizes,
                   const ocl::CacheConfig &Cache = ocl::CacheConfig(),
                   unsigned Jobs = 1);

/// Executes an already-compiled kernel on fresh input data. \p Jobs as
/// in runOnSim.
RunResult runCompiled(const Compiled &C,
                      const std::vector<std::vector<float>> &Inputs,
                      const ocl::SizeEnv &Sizes,
                      const ocl::CacheConfig &Cache = ocl::CacheConfig(),
                      unsigned Jobs = 1);

} // namespace codegen
} // namespace lift

#endif // LIFT_CODEGEN_RUNNER_H
