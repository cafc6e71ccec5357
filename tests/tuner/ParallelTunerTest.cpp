//===- ParallelTunerTest.cpp - Concurrent tuning determinism --------------===//
//
// Part of the liftcpp project.
//
// The parallel tuner must be a pure performance feature: the winning
// candidate, its predicted time, and the set of valid candidates are
// identical for any job count, the evaluation memo never changes
// results, and a search in which every candidate is pruned reports the
// per-constraint counts instead of failing opaquely.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::ocl;
using namespace lift::tuner;
using namespace lift::stencil;

namespace {

TuningSpace trimmedSpace() {
  TuningSpace S = liftSpace();
  S.TileOutputs = {8, 16};
  S.CoarsenFactors = {1, 2};
  S.TileCoarsenFactors = {1, 4};
  S.WorkGroupSizes = {64, 128};
  return S;
}

TEST(ParallelTuner, SameWinnerAtJobs128) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, /*LargeTarget=*/false);
  TuningSpace S = trimmedSpace();
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneOptions O1; // Jobs = 1
  TuneResult R1 = tuneStencil(P, Dev, S, O1);

  for (unsigned Jobs : {2u, 8u}) {
    TuneOptions ON;
    ON.Jobs = Jobs;
    TuneResult RN = tuneStencil(P, Dev, S, ON);
    EXPECT_EQ(R1.Best.C.describe(), RN.Best.C.describe()) << "jobs=" << Jobs;
    EXPECT_EQ(R1.Best.T.Total, RN.Best.T.Total) << "jobs=" << Jobs;
    EXPECT_EQ(R1.All.size(), RN.All.size()) << "jobs=" << Jobs;
    // Valid candidates come back in enumeration order with identical
    // predicted times regardless of the thread schedule.
    for (std::size_t I = 0; I != R1.All.size(); ++I) {
      EXPECT_EQ(R1.All[I].C.describe(), RN.All[I].C.describe());
      EXPECT_EQ(R1.All[I].T.Total, RN.All[I].T.Total);
    }
  }
}

TEST(ParallelTuner, MemoDeduplicatesEquivalentLowerings) {
  // Untiled candidates that differ only in work-group size lower to
  // structurally identical programs; the memo must collapse them onto
  // one simulation at every job count without changing any result.
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, false);
  TuningSpace S = trimmedSpace();
  DeviceSpec Dev = deviceNvidiaK20c();

  for (unsigned Jobs : {1u, 2u}) {
    TuneOptions O;
    O.Jobs = Jobs;
    TuneResult R = tuneStencil(P, Dev, S, O);
    EXPECT_GT(R.MemoHits, 0u) << "jobs=" << Jobs;
    // evaluateCandidate never consults a memo: every entry, memo-served
    // or not, must equal a fresh simulation of the same candidate.
    for (const Evaluated &E : R.All) {
      Evaluated Fresh = evaluateCandidate(P, Dev, E.C, Jobs);
      EXPECT_FALSE(Fresh.FromMemo);
      ASSERT_TRUE(Fresh.Valid) << E.C.describe();
      EXPECT_EQ(E.T.Total, Fresh.T.Total)
          << E.C.describe() << " jobs=" << Jobs;
      EXPECT_EQ(E.GElemsPerSec, Fresh.GElemsPerSec) << E.C.describe();
    }
  }
}

TEST(ParallelTuner, LocalMemOnlySpaceTunesOnlyLocalTiles) {
  // LocalMemOnly alone restricts the tiled variants to local-memory
  // staging; the full space offers both stagings of each tile.
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, false);
  DeviceSpec Dev = deviceNvidiaK20c();

  TuningSpace Local = trimmedSpace();
  Local.AllowUntiled = false;
  Local.LocalMemOnly = true;
  TuneResult RL = tuneStencil(P, Dev, Local);
  ASSERT_FALSE(RL.All.empty());
  for (const auto &E : RL.All) {
    EXPECT_TRUE(E.C.Options.Tile) << E.C.describe();
    EXPECT_TRUE(E.C.Options.UseLocalMem) << E.C.describe();
  }

  TuningSpace Both = Local;
  Both.LocalMemOnly = false;
  TuneResult RB = tuneStencil(P, Dev, Both);
  std::size_t LocalInBoth = 0, GlobalInBoth = 0;
  for (const auto &E : RB.All)
    (E.C.Options.UseLocalMem ? LocalInBoth : GlobalInBoth) += 1;
  EXPECT_EQ(LocalInBoth, RL.All.size());
  EXPECT_GT(GlobalInBoth, 0u);
}

TEST(ParallelTuner, RemainderTilesAreNotPruned) {
  // SRAD1's 504x458 grid is indivisible by 8/16/32/64 tiles (and its
  // 56x56 measurement grid cannot even hold a full 64-output tile).
  // Since the clamped remainder-tile lowering all those candidates
  // are legal -- short extents clamp the tile per dimension -- so the
  // tuner must evaluate them instead of recording stale
  // tile-indivisible prunes.
  const Benchmark &B = findBenchmark("SRAD1");
  TuningProblem P = makeProblem(B, false);
  TuningSpace S = liftSpace();
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneResult R = tuneStencil(P, Dev, S);
  EXPECT_EQ(R.Prunes.TileIndivisible, 0u);
  EXPECT_EQ(R.Prunes.describe().find("tile-indivisible"), std::string::npos);
  // Tiled candidates survived into the valid set.
  bool SawTiled = false;
  for (const auto &E : R.All)
    SawTiled |= E.C.Options.Tile;
  EXPECT_TRUE(SawTiled);
}

TEST(ParallelTuner, StepTwoRemainderPrunesWithDetail) {
  // A remainder fit at window step != 1 is the one shape that stays
  // genuinely unsupported (the shifted tail tile would leave the
  // output lattice), so the prune survives -- and the recorded reason
  // names why.
  Benchmark B = findBenchmark("SRAD1"); // 504 x 458
  B.WindowStep = 2;
  TuningProblem P = makeProblem(B, false);
  TuningSpace S;
  S.AllowUntiled = true;
  S.TileOutputs = {64}; // k = 32 outputs; 458 % 32 != 0 -> unsupported
  S.TileCoarsenFactors = {1};
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneResult R = tuneStencil(P, Dev, S);
  EXPECT_GT(R.Prunes.TileIndivisible, 0u);
  EXPECT_NE(R.Prunes.describe().find("tile-indivisible"), std::string::npos);
}

TEST(ParallelTunerDeathTest, AllCandidatesPrunedExplainsWhy) {
  // A space whose only tile size leaves a step-2 remainder: every
  // candidate is rejected and the error must carry the per-constraint
  // breakdown.
  Benchmark B = findBenchmark("SRAD1"); // 504 x 458
  B.WindowStep = 2;
  TuningProblem P = makeProblem(B, false);
  TuningSpace S;
  S.AllowUntiled = false;
  S.TileOutputs = {64}; // k = 32; 458 % 32 != 0 -> tile-indivisible
  S.TileCoarsenFactors = {1};
  DeviceSpec Dev = deviceNvidiaK20c();
  EXPECT_DEATH(tuneStencil(P, Dev, S), "candidates pruned.*tile-indivisible");
}

} // namespace
