//===- NativeDiffTest.cpp - Fuzzer's native oracle ------------------------===//
//
// Part of the liftcpp project.
//
// Runs a fixed-seed slice of the differential fuzzer with the native
// oracle enabled (DiffOptions::Native): every generated program is
// emitted as C, compiled with the host compiler, dlopen()ed, executed,
// and required to be bit-identical to the reference interpreter —
// untiled and, when it fits, tiled. The CI campaign runs 500 programs
// through liftfuzz --native; this in-process slice keeps the oracle
// wiring itself under ctest.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "native/NativeRunner.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::fuzz;

namespace {

bool haveToolchain() {
  try {
    native::probeToolchain();
    return true;
  } catch (const native::NativeError &) {
    return false;
  }
}

TEST(NativeDiff, FixedSeedCampaignIsClean) {
  if (!haveToolchain())
    GTEST_SKIP() << "no usable host C compiler; skipping native oracle";

  CampaignOptions O;
  O.Diff.Native = true;
  O.Shrink = false; // a mismatch here is reported, not minimized
  CampaignStats S = runCampaign(/*Seed=*/7, /*Count=*/30, O);

  EXPECT_GT(S.Ok, 0u);
  std::string FirstDetail =
      S.Failures.empty() ? std::string() : S.Failures.front().Detail;
  EXPECT_EQ(S.Mismatches, 0u) << FirstDetail;
}

TEST(NativeDiff, SingleSpecDeterministic) {
  if (!haveToolchain())
    GTEST_SKIP() << "no usable host C compiler; skipping native oracle";

  // The native oracle must be a deterministic function of the spec:
  // same spec, same verdict, bit for bit.
  ProgramSpec S = generateSpec(/*SubSeed=*/42);
  DiffOptions O;
  O.Native = true;
  DiffResult R1 = runDifferential(S, O);
  DiffResult R2 = runDifferential(S, O);
  EXPECT_EQ(int(R1.Status), int(R2.Status));
  EXPECT_EQ(R1.Detail, R2.Detail);
  EXPECT_NE(int(R1.Status), int(DiffStatus::Mismatch)) << R1.Detail;
}

} // namespace
