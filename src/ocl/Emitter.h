//===- Emitter.h - Kernel AST to OpenCL C or host C ------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one printer of the kernel AST (KernelAst.h). A single walk over
/// the statements and a single walk over the expressions render a
/// kernel in one of two dialects:
///
///  * OpenCL C, the paper's artifact: what a real OpenCL runtime would
///    compile. Here it serves inspection and golden tests, and a host
///    shim (tests/native/opencl_host_shim.h) compiles it as C so tests
///    can check its bits against the simulator (Sim.h).
///  * plain host C behind the native backend's positional entry ABI
///    (native/CEmitter.h documents that ABI and its semantics).
///
/// Both dialects share everything that decides what the kernel
/// computes: floor-semantics index helpers (lift_fdiv, lift_fmod,
/// lift_min, lift_max — C's truncating `/` and `%` would diverge from
/// the simulator on the negative operands mirror and wrap padding
/// produce), float literals with 9 significant digits (enough for any
/// float to round-trip bit-exactly), bounds-checked selects, the
/// narrowing cast on index values, zero-initialized registers,
/// user-function signatures, and one identifier map that sanitizes
/// every kernel name and keeps it clear of C and OpenCL reserved words.
///
/// A dialect supplies only its prelude and entry signature, address
/// spaces and local/private buffer initialization, loop headers
/// (work-item builtins, or 0..count-1 loops with OpenMP and unroll
/// pragmas), the barrier line and the scalar and index type names. The
/// C dialect also privatizes declarations into parallel loops and, in
/// profile mode, wraps regions in timers.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_OCL_EMITTER_H
#define LIFT_OCL_EMITTER_H

#include "ocl/KernelAst.h"

#include <string>
#include <utility>
#include <vector>

namespace lift {
namespace ocl {

/// The languages printKernel speaks.
enum class Dialect {
  OpenCL, ///< OpenCL C with work-item builtins and address spaces
  C,      ///< host C behind native/CEmitter.h's positional entry ABI
};

/// C-dialect profile timers: the loops to time, each with its region
/// name, in the order of their lift_prof slots (native::profileRegions).
using ProfileTimers = std::vector<std::pair<const Stmt *, std::string>>;

/// Renders \p K as a complete translation unit in dialect \p D. A
/// non-null \p Profile (C dialect only) wraps each listed loop in a
/// timer and emits the kernel sequentially. The output is a pure
/// function of the arguments, so equal kernels print byte-identically.
std::string printKernel(const Kernel &K, Dialect D,
                        const ProfileTimers *Profile = nullptr);

/// Renders \p K as OpenCL C: the index helpers, user-function
/// definitions, then the kernel.
std::string emitOpenCL(const Kernel &K);

} // namespace ocl
} // namespace lift

#endif // LIFT_OCL_EMITTER_H
