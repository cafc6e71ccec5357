//===- CEmitter.h - Kernel AST to plain C ----------------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the imperative kernel AST (ocl/KernelAst.h) as plain C so it
/// can be compiled by the host toolchain and executed natively (the
/// Devito-style "emit C, compile, dlopen" backend). The text comes from
/// the C dialect of the one kernel printer (ocl/Emitter.h), which
/// shares its statement and expression walk, index helpers, float
/// literals and identifier map with the OpenCL text. The emitted
/// source is a semantic mirror of the NDRange simulator:
///
///  * every loop — Seq, Glb, Wrg, Lcl — iterates 0..count-1 in order,
///    matching the simulator's exact-fit NDRange execution;
///  * user functions keep their OpenCL C bodies, with sqrt/fmax/fmin
///    mapped onto their float-precision C versions so arithmetic stays
///    in float exactly as the interpreter's C++ callbacks compute it;
///  * barriers vanish: a Lcl loop runs to completion before the next
///    statement, which is the simulator's (and, under the pragma
///    placement below, OpenMP's) implicit barrier.
///
/// Parallelism: each outermost Glb/Wrg loop is a parallel root and
/// gets `#pragma omp parallel for`, collapsing its perfect nest of
/// parallel loops (`collapse(k)`) so the whole work-group grid runs in
/// parallel, as on an OpenCL NDRange. The nest descends while a
/// level's body is exactly one Glb/Wrg loop that is neither a SIMD
/// loop (below) nor unrolled and whose count mentions no variable of
/// the levels above it. Every register and local/private buffer used
/// under a root is declared in the body of its innermost collapsed
/// level, making it private to one work-group — the moral equivalent
/// of OpenCL private variables and per-work-group local memory. When
/// a register or local/private buffer is used outside any root (or
/// across two of them) the emitter falls back to a fully sequential
/// program, which is always correct.
///
/// Vectorization: a work-item loop (Glb/Wrg/Lcl, never Seq) whose body
/// is stores only, none to a buffer that body also loads, has
/// independent iterations and gets `#pragma omp simd` (a parallel root
/// gets `#pragma omp parallel for simd`). The pragma states the
/// independence that OpenMP outlining hides from the compiler by
/// dropping `restrict`. It holds in the sequential fallback and in
/// profile mode too, since it starts no threads. User functions are
/// `static inline` so they inline into the vector loop.
///
/// The entry point ABI is positional, one signature for every kernel:
///
///   void <name>(void **lift_bufs, const long long *lift_sizes,
///               int lift_threads, double *lift_prof);
///
/// `lift_bufs` holds one pointer per *global* buffer in declaration
/// order (float* or int32_t* according to the element kind);
/// `lift_sizes` holds one value per Kernel::SizeArgs entry, in order,
/// and is read only for sizes without a bound value: a size whose
/// valid range holds one value (ocl::SizeArg::bound(), a kernel lowered
/// for a grid) is emitted as a constant, so the C compiler folds it
/// into strides, clamps and trip counts, and its slot is ignored;
/// `lift_prof` holds one double per profile region (profileRegions()).
/// Buffer/size order is a pure function of the kernel structure, so
/// alpha-equivalent kernels (equal structural hash) share one ABI.
///
/// Profile mode (CEmitOptions::Profile) wraps each profile region in
/// monotonic-clock timers that *accumulate* elapsed seconds into
/// lift_prof[k], k being the region's index in profileRegions() order;
/// without it the kernel ignores lift_prof. The computation is
/// untouched — outputs stay bit-identical to the unprofiled kernel —
/// but pragmas are suppressed (sequential execution) so nested region
/// timers measure exactly one thread's work and attribution is exact;
/// lift_threads is accordingly inert under profiling.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_NATIVE_CEMITTER_H
#define LIFT_NATIVE_CEMITTER_H

#include "ocl/KernelAst.h"

#include <string>
#include <vector>

namespace lift {
namespace native {

struct CEmitOptions {
  /// Instrument profile regions with timers accumulating into
  /// `lift_prof` (see file comment). Forces sequential emission.
  bool Profile = false;
};

/// One instrumentable loop-nest region of a kernel. Regions partition
/// the interesting work: every top-level loop nest is one region,
/// except that when a spine of singleton Glb/Wrg loops (the NDRange
/// grid) ends in a body with several sub-loops (local-tile fill,
/// compute/reduce loops), each of those sub-loops becomes its own
/// region — the shape tiled+local-memory lowerings produce.
struct KernelRegion {
  /// Deterministic name: "<kind>.<loop var>", e.g. "glb.i0", "lcl.i4"
  /// (deduplicated with numeric suffixes if loop-var names repeat).
  std::string Name;
  std::string Kind; ///< loopKindName of the region root
  const ocl::Stmt *Loop = nullptr; ///< the loop the timer wraps
};

/// The profile regions of \p K, in the order their timers index
/// lift_prof[]. A pure function of the kernel structure — the emitter
/// and the runtime report derive the same list independently.
std::vector<KernelRegion> profileRegions(const ocl::Kernel &K);

/// Renders \p K as a self-contained C translation unit. The output is
/// deterministic: equal kernels produce byte-identical source (the
/// golden-snapshot contract in tests/native/golden/).
std::string emitC(const ocl::Kernel &K, const CEmitOptions &O = {});

} // namespace native
} // namespace lift

#endif // LIFT_NATIVE_CEMITTER_H
