//===- Lowering.h - High-level to OpenCL-level lowering --------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Macro-rules that compose the rewrite rules of Rules.h into complete
/// OpenCL-level implementations — the role of Lift's exploration
/// strategies. One high-level stencil program yields a family of
/// low-level variants differing in:
///
///  * overlapped tiling on/off and the tile size (paper §4.1),
///  * staging tiles in local memory (paper §4.2),
///  * sequential work per thread (split-join thread coarsening),
///  * reduction unrolling (paper §4.3).
///
/// Every variant is one map nest placed at a level of the OpenCL
/// hierarchy: mapGlb untiled, or mapWrg over tiles with a mapLcl nest
/// per tile. A single grid is tiled as the one-component case of a
/// zip of grids.
///
/// The auto-tuner (src/tuner) searches this space per device, exactly
/// as the paper tunes each benchmark per platform.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_REWRITE_LOWERING_H
#define LIFT_REWRITE_LOWERING_H

#include "rewrite/Rules.h"

#include <vector>

namespace lift {
namespace rewrite {

/// One point in the implementation space.
struct LoweringOptions {
  /// Apply the overlapped-tiling rule and map tiles to work-groups.
  bool Tile = false;
  /// Outputs per tile per dimension (the v of the tiling rule); the
  /// tile extent is u = v + size - step.
  std::int64_t TileOutputs = 16;
  /// Stage each tile into local memory with a cooperative copy.
  bool UseLocalMem = false;
  /// Unroll constant-length reductions.
  bool UnrollReduce = false;
  /// Outputs each thread computes sequentially along the innermost
  /// dimension (1 = one output per thread). Untiled, it shrinks the
  /// global NDRange; tiled, each thread walks Coarsen points of its
  /// tile — how PPCG-style schedules with blocks smaller than tiles are
  /// expressed.
  std::int64_t Coarsen = 1;

  /// Concrete per-dimension *output* extents (outermost first) the
  /// lowered program will run at, when the caller knows them. The
  /// result is then a program for that grid: every size variable an
  /// output dimension of the form `v` or `v + c` determines is narrowed
  /// to that value in ir::LambdaExpr::SizeRanges, so its native C folds
  /// the value and refuses to run at any other. Refines symbolic output
  /// dimensions so the clamped tiling scheme can clamp the
  /// per-dimension tile to a short extent (e.g. a 16-output tile on a
  /// 4-deep dimension becomes one 4-output tile) — without this, tiled
  /// lowerings of symbolic programs carry the validity precondition
  /// extent >= TileOutputs, recorded in ir::LambdaExpr::SizeRanges.
  /// Lowering fails when an entry disagrees with a constant output
  /// dimension or two entries bind one variable to different values.
  /// Empty: keep symbolic extents. Does not participate in describe().
  std::vector<std::int64_t> OutputExtents;

  /// e.g. "tiled16-local-coarsen4-unroll" / "global-coarsen4".
  std::string describe() const;
};

/// Lowers a canonical stencil program (a mapNd nest, optionally over
/// slideNd/zip structures) into a low-level program per \p O. Returns
/// nullptr when the options do not apply to this program's shape
/// (e.g. tiling requested but no slideNd at the top, or zip components
/// with mixed window geometries); in that case \p WhyNot — when
/// non-null — receives a human-readable reason callers must surface
/// instead of dereferencing the null program.
ir::Program lowerStencil(const ir::Program &P, const LoweringOptions &O,
                         std::string *WhyNot = nullptr);

} // namespace rewrite
} // namespace lift

#endif // LIFT_REWRITE_LOWERING_H
