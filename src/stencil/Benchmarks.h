//===- Benchmarks.h - The paper's benchmark suite --------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The twelve stencil benchmarks of Table 1, expressed as high-level
/// Lift programs built from pad/slide/map compositions (fourteen
/// programs: Jacobi2D and Jacobi3D each come in two point variants):
///
///   Figure 7 set (vs hand-written references): Stencil2D (SHOC),
///   SRAD1, SRAD2, Hotspot2D, Hotspot3D (Rodinia), Acoustic (room
///   acoustics, paper §3.5 / Listing 3).
///
///   Figure 8 set (vs PPCG): Gaussian, Gradient, Jacobi2D 5pt/9pt,
///   Jacobi3D 7pt/13pt, Poisson, Heat (Rawat et al. benchmarks), each
///   with a small and a large input size.
///
/// Every benchmark also carries an independent straight-loop golden
/// implementation used by the correctness tests, and the metadata the
/// tuner needs (window geometry, tuning/measurement grid sizes).
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_STENCIL_BENCHMARKS_H
#define LIFT_STENCIL_BENCHMARKS_H

#include "ir/Expr.h"

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace lift {
namespace stencil {

/// A built benchmark program plus its per-dimension size variables
/// (outermost dimension first).
struct BenchmarkInstance {
  ir::Program P;
  std::vector<unsigned> SizeVarIds;
};

/// Grid extents, outermost dimension first.
using Extents = std::vector<std::int64_t>;

/// One benchmark of Table 1.
struct Benchmark {
  std::string Name;
  std::string Suite; ///< SHOC / Rodinia / Acoustic / Rawat et al.
  unsigned Dims = 2;
  int Points = 5;    ///< stencil points (Table 1 "Pts")
  int NumGrids = 1;  ///< input grids (Table 1 "#grids")
  std::int64_t WindowSize = 3;
  std::int64_t WindowStep = 1;
  Extents SmallExtents;   ///< Table 1 input size (small where two)
  Extents LargeExtents;   ///< large size for Figure 8 (empty if none)
  Extents MeasureExtents; ///< reduced grid for simulator measurement
  bool InFigure7 = false;
  bool InFigure8 = false;

  /// Builds a fresh program (independent size variables per call).
  std::function<BenchmarkInstance()> Build;

  /// Independent reference implementation: plain loop nests over flat
  /// row-major grids, run row-parallel on ThreadPool::shared(). Each
  /// point is computed by one thread in a fixed order, so the output is
  /// bit-identical at any worker count (and inline inside a pool task).
  /// Returns the expected output.
  std::function<std::vector<float>(const std::vector<std::vector<float>> &,
                                   const Extents &)>
      Golden;
};

/// All fourteen benchmark programs, in Table 1 order.
const std::vector<Benchmark> &allBenchmarks();

/// Looks a benchmark up by name; fatal if absent.
const Benchmark &findBenchmark(const std::string &Name);

/// Binds an instance's size variables to concrete extents.
std::unordered_map<unsigned, std::int64_t>
makeSizeEnv(const BenchmarkInstance &I, const Extents &E);

/// Deterministic pseudo-random input grids (one per NumGrids), values
/// in (0.25, 1.25) so divisions in SRAD stay well-behaved.
std::vector<std::vector<float>> makeBenchmarkInputs(const Benchmark &B,
                                                    const Extents &E,
                                                    std::uint64_t Seed = 42);

/// Number of grid points (the output element count).
std::int64_t totalElems(const Extents &E);

} // namespace stencil
} // namespace lift

#endif // LIFT_STENCIL_BENCHMARKS_H
