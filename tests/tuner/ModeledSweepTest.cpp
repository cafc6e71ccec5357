//===- ModeledSweepTest.cpp - Pinned modeled tuning sweeps ----------------===//
//
// Part of the liftcpp project.
//
// The modeled tuner chains simulator counters -> device model -> argmin.
// These tests pin that whole chain on the K20c sweeps `liftc tune` and
// the sweep benchmark run: every valid candidate, in enumeration order,
// must report the recorded measurement-grid counters, and the winner
// and its predicted time must be the recorded ones, at jobs 1 and 4.
// The recording (golden/modeled_sweep_k20c.txt) predates the
// simulator's index-program memo, so any simulator change that moves a
// counter or a winner fails here.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace lift;
using namespace lift::ocl;
using namespace lift::tuner;
using namespace lift::stencil;

namespace {

struct RecordedSweep {
  std::vector<std::pair<std::string, ExecCounters>> Candidates;
  std::string Best;
  double BestTotal = 0;
};

/// Parses the recording: "sweep <benchmark>", then one
/// "cand <describe> <11 counters>" line per valid candidate and a
/// closing "best <describe> <seconds>" line; '#' lines are comments.
std::map<std::string, RecordedSweep> loadRecording() {
  std::ifstream In(LIFT_TUNER_GOLDEN_DIR "/modeled_sweep_k20c.txt");
  EXPECT_TRUE(In.good()) << "cannot open the recorded sweeps";
  std::map<std::string, RecordedSweep> Out;
  RecordedSweep *Cur = nullptr;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Tag, Name;
    LS >> Tag >> Name;
    if (Tag == "sweep") {
      Cur = &Out[Name];
      continue;
    }
    if (!Cur) {
      ADD_FAILURE() << "line before any sweep: " << Line;
      break;
    }
    if (Tag == "cand") {
      ExecCounters C;
      for (const ExecCounterField &F : ExecCounterFields)
        LS >> C.*F.Field;
      Cur->Candidates.emplace_back(Name, C);
    } else if (Tag == "best") {
      Cur->Best = Name;
      LS >> Cur->BestTotal;
    }
    EXPECT_FALSE(LS.fail()) << "malformed line: " << Line;
  }
  return Out;
}

TEST(ModeledSweep, K20cSweepsMatchRecordedCountersAndWinners) {
  std::map<std::string, RecordedSweep> Recorded = loadRecording();
  for (const char *Name : {"Jacobi2D5pt", "Jacobi3D7pt"}) {
    ASSERT_EQ(Recorded.count(Name), 1u) << Name;
    const RecordedSweep &Want = Recorded.at(Name);
    TuningProblem P = makeProblem(findBenchmark(Name), /*LargeTarget=*/false);
    for (unsigned Jobs : {1u, 4u}) {
      TuneOptions O;
      O.Jobs = Jobs;
      TuneResult R = tuneStencil(P, deviceNvidiaK20c(), liftSpace(), O);
      std::string What = std::string(Name) + " jobs=" + std::to_string(Jobs);
      ASSERT_EQ(Want.Candidates.size(), R.All.size()) << What;
      for (std::size_t I = 0; I != R.All.size(); ++I) {
        const Evaluated &E = R.All[I];
        ASSERT_EQ(Want.Candidates[I].first, E.C.describe())
            << What << ", candidate " << I;
        for (const ExecCounterField &F : ExecCounterFields)
          EXPECT_EQ(Want.Candidates[I].second.*F.Field, E.Counters.*F.Field)
              << What << ", " << E.C.describe() << ": " << F.Name;
      }
      EXPECT_EQ(Want.Best, R.Best.C.describe()) << What;
      EXPECT_DOUBLE_EQ(Want.BestTotal, R.Best.T.Total) << What;
    }
  }
}

} // namespace
