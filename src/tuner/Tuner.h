//===- Tuner.h - Constraint-aware auto-tuning ------------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The auto-tuning substrate standing in for ATF + OpenTuner (paper
/// §6): enumerates the implementation space spanned by the lowering
/// options (tiling on/off + tile size, local memory, unrolling, thread
/// coarsening) and launch parameters (work-group size), subject to
/// OpenCL-style constraints (divisibility of grid extents, local-memory
/// capacity, tile/step alignment), and picks the variant with the best
/// predicted runtime on a given device model.
///
/// Evaluation protocol: each candidate is lowered, compiled once and
/// *executed* on the instrumented simulator over a reduced measurement
/// grid; measured event counts are scaled per-element to the paper's
/// target grid, the modeled cache is scaled by the working-set ratio
/// (a stencil's reuse window grows with the fast dimensions), and the
/// device timing model converts counts into a predicted runtime.
/// Simulation is deterministic, so unlike the paper's three hours of
/// wall-clock tuning per benchmark, exhaustive search is exact.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_TUNER_TUNER_H
#define LIFT_TUNER_TUNER_H

#include "ocl/Device.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <cstdint>

namespace lift {
namespace tuner {

/// One point of the search space: IR-level options + launch knobs.
struct Candidate {
  rewrite::LoweringOptions Options;
  ocl::LaunchParams Launch;

  /// e.g. "tiled16-local/wg128".
  std::string describe() const;
};

/// The dimensions of the search space. The default space is Lift's;
/// ppcgSpace() restricts it to PPCG's always-tiled schedules.
struct TuningSpace {
  bool AllowUntiled = true;
  /// Generate only local-memory-staged tiled variants (PPCG's default
  /// schedule always stages tiles in shared memory).
  bool LocalMemOnly = false;
  bool AllowUnroll = true;
  // Lift's space strictly contains PPCG's tiled schedules, so tuned
  // Lift can never lose to tuned PPCG — as in the paper.
  std::vector<std::int64_t> TileOutputs = {8, 16, 32, 64};
  /// LoweringOptions::Coarsen values of the tiled candidates.
  std::vector<std::int64_t> TileCoarsenFactors = {1, 2, 4, 8, 16};
  /// LoweringOptions::Coarsen values of the untiled candidates.
  std::vector<std::int64_t> CoarsenFactors = {1, 2, 4};
  std::vector<std::int64_t> WorkGroupSizes = {64, 128, 256};
};

/// Lift's full space.
TuningSpace liftSpace();

/// A PPCG-like space: rectangular overlapped tiling with shared-memory
/// staging is always applied (the polyhedral default schedule), with
/// tile sizes and per-thread sequential work tunable, but no untiled
/// alternative.
TuningSpace ppcgSpace();

/// A tuning task: one benchmark at one target size. Always construct
/// via makeProblem: the built Instance is shared read-only by every
/// candidate evaluation (and every tuner thread), which keeps size-
/// variable identities consistent so structurally equal lowerings of
/// different candidates can share one simulation.
struct TuningProblem {
  const stencil::Benchmark *B = nullptr;
  stencil::BenchmarkInstance Instance; ///< built once, shared read-only
  stencil::Extents Measure; ///< reduced grid executed on the simulator
  stencil::Extents Target;  ///< the paper's grid (counts scaled to it)
  std::vector<std::vector<float>> Inputs; ///< measurement inputs
};

/// Builds a problem for the benchmark's small or large target size.
TuningProblem makeProblem(const stencil::Benchmark &B, bool LargeTarget);

/// The quantity the search minimizes. Modeled is the classic flow:
/// counters from the instrumented simulator through the device timing
/// model. Measured additionally compiles every valid candidate with
/// the native backend (native/NativeRunner.h) and ranks by real
/// wall-clock seconds on the measurement grid; the modeled time is
/// still computed and recorded so flight records can compare the two.
enum class Objective {
  Modeled,
  Measured,
};

/// One evaluated candidate.
struct Evaluated {
  Candidate C;
  ocl::Timing T;
  bool Valid = false;
  /// Valid == false only: the stable prune-reason name (the same
  /// string used by the "tuner.prune.<name>" metrics), so callers can
  /// report *why* a configuration is absent instead of dropping it
  /// silently.
  std::string WhyNot;
  /// True when the simulation was shared with an earlier structurally
  /// identical candidate instead of being executed again.
  bool FromMemo = false;
  /// Giga grid-point updates per second at the target size (the
  /// paper's Figure 7 metric).
  double GElemsPerSec = 0.0;
  /// Objective::Measured only: best native wall-clock seconds of one
  /// kernel execution on the measurement grid, and the corresponding
  /// throughput at measurement size. Zero under Objective::Modeled.
  double MeasuredSeconds = 0.0;
  double MeasuredGElemsPerSec = 0.0;
  /// Valid only: the simulator's event counters on the measurement
  /// grid, before scaling to the target (a memo-served candidate
  /// carries the shared simulation's counters).
  ocl::ExecCounters Counters;
};

/// Why candidates were rejected before (or during) lowering, counted
/// per constraint. Reported in TuneResult and in the all-candidates-
/// invalid fatal error so a failing search explains itself.
struct PruneStats {
  std::uint64_t TileStepMisaligned = 0;   ///< tile % window step != 0
  std::uint64_t TileIndivisible = 0;      ///< tile does not divide a grid
  std::uint64_t TileCoarsenMisaligned = 0;///< tiled: tile % coarsen != 0
  std::uint64_t LocalMemOverflow = 0;     ///< staged tile exceeds local mem
  std::uint64_t CoarsenIndivisible = 0;   ///< coarsening does not divide grid
  std::uint64_t LoweringFailed = 0;       ///< rewrite produced no program
  std::uint64_t Divisibility = 0; ///< split factor refuted against a grid size
  std::uint64_t NativeFailed = 0; ///< measured objective: native backend failed
  std::uint64_t total() const;
  /// e.g. "tile-indivisible=12, local-mem-overflow=3".
  std::string describe() const;
};

/// Knobs of the search driver itself (not of the search space).
struct TuneOptions {
  /// Candidate evaluations run on up to this many pool workers
  /// (0 = all hardware workers). The winner is identical for any value:
  /// results are deterministic and the argmin tie-break is always
  /// "first candidate in enumeration order".
  unsigned Jobs = 1;
  /// What the argmin ranks by. Objective::Measured needs a working
  /// host C toolchain; candidates whose native compilation fails are
  /// pruned as "native-compile-failed". Measured runs are serialized
  /// process-wide, so Jobs == 1 is the sensible pairing.
  Objective Obj = Objective::Modeled;
  /// Measured objective only: OpenMP threads per native run
  /// (0 = all hardware threads), untimed warmup executions, and timed
  /// repeats (the minimum is taken, standard for wall-clock noise).
  unsigned MeasureThreads = 1;
  unsigned MeasureWarmup = 1;
  unsigned MeasureRepeats = 3;
};

/// Result of a search.
struct TuneResult {
  Evaluated Best;
  std::vector<Evaluated> All; ///< every valid candidate, enumeration order
  PruneStats Prunes;          ///< invalid candidates, counted by reason
  std::uint64_t MemoHits = 0; ///< evaluations served from the memo
};

/// Evaluates one candidate (used directly for the fixed, untuned
/// hand-written reference configurations). Never consults a memo.
/// \p Jobs is the simulator's thread count, as in TuneOptions.
Evaluated evaluateCandidate(const TuningProblem &P,
                            const ocl::DeviceSpec &Dev, const Candidate &C,
                            unsigned Jobs = 1);

/// Exhaustively searches \p Space for the fastest predicted variant.
/// Candidates whose lowered programs are structurally equal under the
/// same size bindings and cache configuration (e.g. work-group-size
/// variants of one untiled lowering) share one simulation; that never
/// changes results, only skips redundant work.
TuneResult tuneStencil(const TuningProblem &P, const ocl::DeviceSpec &Dev,
                       const TuningSpace &Space,
                       const TuneOptions &Opts = TuneOptions());

} // namespace tuner
} // namespace lift

#endif // LIFT_TUNER_TUNER_H
