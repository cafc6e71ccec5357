//===- InteriorSpec.h - Interior/edge kernel specialization ----*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interior/edge loop splitting over lowered kernel ASTs.
///
/// Every neighbourhood access of a lowered stencil pays boundary
/// arithmetic — clamp (max/min), mirror (mod + min), wrap (mod) or a
/// constant-pad Select — on *every* iteration, even though only the
/// first and last few iterations of each grid loop can actually be out
/// of bounds. This pass splits each parallel grid loop into three:
///
///   left edge  [0, H)            — original body (general path)
///   interior   [H, count - H)    — body re-simplified under the fact
///                                  that accesses are in bounds: clamp /
///                                  mirror / wrap arithmetic erased,
///                                  constant-pad Selects resolved to
///                                  their load branch
///   right edge [count - H, count) — original body (general path)
///
/// for the smallest halo width H whose interior facts eliminate every
/// boundary operation (RangeAnalysis.h provides the proofs). The split
/// is performed only when it is a pure win: if no H up to a small limit
/// clears the body, the loop is left untouched. Interior points
/// dominate every real grid (>= 98% at 4096^2, >= 97% at 256^3), so the
/// general path runs on a vanishing fraction of the domain.
///
/// The rewrite is semantics-preserving by construction — the three
/// ranges partition [0, count) exactly, each clone computes the same
/// function on its subrange — and is additionally enforced end to end
/// by the differential fuzzer (liftfuzz --native compares native
/// output, which is always specialized, bit-for-bit against the
/// interpreter).
///
/// The pass is idempotent: the edge loops it creates are marked
/// (ocl::Stmt::EdgeSlab) and never split or entered again, and a loop
/// whose body has no boundary operation on its variable — an interior
/// loop, or a dimension without padding — is not split. A second pass
/// over a specialized kernel therefore returns it unchanged.
///
/// The native C backend compiles every kernel in this form
/// (native::emitNative); the OpenCL text and the NDRange simulator
/// keep the unsplit form unless asked: `liftc emit --specialize`
/// prints the split kernel in the OpenCL dialect too, and `liftc run
/// --specialize` simulates it.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_ANALYSIS_INTERIORSPEC_H
#define LIFT_ANALYSIS_INTERIORSPEC_H

#include "ocl/KernelAst.h"

namespace lift {
namespace analysis {

/// What specializeInterior did.
struct SpecStats {
  unsigned LoopsSplit = 0;     ///< grid loops split into edge/interior
  unsigned SelectsResolved = 0; ///< constant-pad Selects proved away
  bool changed() const { return LoopsSplit != 0; }
};

/// Returns a copy of \p K with every eligible parallel grid loop split
/// into left-edge / clamp-free-interior / right-edge loops (see file
/// comment). Kernels with local-memory staging, barriers, or
/// non-provable bodies are returned unchanged — the result is always a
/// valid kernel computing the same function — and so are kernels this
/// function returned before.
ocl::Kernel specializeInterior(const ocl::Kernel &K,
                               SpecStats *Stats = nullptr);

} // namespace analysis
} // namespace lift

#endif // LIFT_ANALYSIS_INTERIORSPEC_H
