//===- Profiler.h - In-kernel profiling driver -----------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ties the profiling pieces together: compiles a kernel in profile
/// mode (through the shared kernel cache, where its emitted source
/// keeps it apart from the unprofiled binary), executes it with
/// runNative on one thread, joins the measured per-region seconds
/// with the statically derived work counts (codegen/AccessAnalysis)
/// of the kernel that ran — the interior-specialized form, so an
/// untiled kernel reports its edge and interior loops as regions of
/// their own — and returns an obs::Profile ready for reporting. The kernel's computation is
/// untouched by instrumentation, so the returned output is bit-
/// identical to an unprofiled run — the differential test's contract.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_NATIVE_PROFILER_H
#define LIFT_NATIVE_PROFILER_H

#include "native/NativeRunner.h"
#include "native/Peaks.h"
#include "obs/Profile.h"

namespace lift {
namespace native {

struct ProfiledKernelRun {
  obs::Profile P;
  std::vector<float> Output; ///< bit-identical to the unprofiled run
};

/// Profiles one execution of \p C on \p Inputs/\p Sizes: \p Warmup
/// untimed passes, \p Repeats timed passes, region times of the
/// fastest pass. \p Peaks, when non-null, is copied into the record for the
/// roofline columns. Throws NativeError subclasses like the rest of
/// the backend.
ProfiledKernelRun
profileKernel(const codegen::Compiled &C,
              const std::vector<std::vector<float>> &Inputs,
              const ocl::SizeEnv &Sizes, unsigned Warmup, unsigned Repeats,
              const NativeOptions &O = {},
              const MachinePeaks *Peaks = nullptr);

} // namespace native
} // namespace lift

#endif // LIFT_NATIVE_PROFILER_H
