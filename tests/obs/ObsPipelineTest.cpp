//===- ObsPipelineTest.cpp - End-to-end pipeline observability --------------===//
//
// Part of the liftcpp project.
//
// The observability determinism contract, end to end: a tuning sweep
// produces identical counter totals and identical flight-recorder
// records (modulo wall time and memo attribution) at jobs=1 and
// jobs=8, the metrics document has its published shape, and the span
// trace of a parallel tune nests candidate evaluations inside the
// sweep span.
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Trace.h"
#include "tuner/Tuner.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace lift;
using namespace lift::obs;
using namespace lift::ocl;
using namespace lift::stencil;
using namespace lift::tuner;

namespace {

/// Same trimmed space as ParallelTunerTest: small enough to sweep in
/// milliseconds, rich enough to exercise tiling, coarsening and
/// local-memory variants.
TuningSpace trimmedSpace() {
  TuningSpace S = liftSpace();
  S.TileOutputs = {8, 16};
  S.CoarsenFactors = {1, 2};
  S.TileCoarsenFactors = {1, 4};
  S.WorkGroupSizes = {64, 128};
  return S;
}

/// The counter prefixes the tuner guarantees are schedule-independent
/// (pure sums over per-candidate work; see DESIGN.md "Observability").
const char *DeterministicPrefixes[] = {"tuner.prune.", "tuner.candidates.",
                                       "tuner.sim.", "rewrite.rule."};

struct TuneRun {
  std::map<std::string, std::uint64_t> Counters;
  std::vector<CandidateRecord> Records;
  TuneResult Result;
};

/// Note: runs comparing LoweredHash must share one TuningProblem —
/// the problem's free size variables are created fresh per
/// makeProblem() call, and the structural hash is alpha-invariant
/// only over bound variables, so hashes are comparable within a
/// problem, not across rebuilt ones.
TuneRun runInstrumentedTune(const TuningProblem &P, unsigned Jobs) {
  Registry &Reg = Registry::global();
  Reg.reset();
  FlightRecorder &FR = FlightRecorder::global();
  FR.clear();
  FR.setEnabled(true);

  DeviceSpec Dev = deviceNvidiaK20c();
  TuneOptions O;
  O.Jobs = Jobs;

  TuneRun R;
  R.Result = tuneStencil(P, Dev, trimmedSpace(), O);

  FR.setEnabled(false);
  for (const char *Prefix : DeterministicPrefixes) {
    std::map<std::string, std::uint64_t> Vals = Reg.counterValues(Prefix);
    R.Counters.insert(Vals.begin(), Vals.end());
  }
  std::vector<FlightRecorder::TuneLog> Logs = FR.logs();
  EXPECT_EQ(Logs.size(), 1u);
  if (!Logs.empty())
    R.Records = Logs.back().Records;
  FR.clear();
  return R;
}

TEST(ObsPipeline, MetricTotalsIdenticalAtJobs1And8) {
  TuningProblem P = makeProblem(findBenchmark("Jacobi2D5pt"), false);
  TuneRun R1 = runInstrumentedTune(P, 1);
  TuneRun R8 = runInstrumentedTune(P, 8);

  // Sanity: the sweep actually counted work.
  ASSERT_GT(R1.Counters["tuner.candidates.enumerated"], 0u);
  EXPECT_GT(R1.Counters["tuner.sim.flops"], 0u);

  // The deterministic counter families agree key-for-key: same names,
  // same totals, regardless of the thread schedule and the memo.
  EXPECT_EQ(R1.Counters, R8.Counters);
}

TEST(ObsPipeline, FlightRecorderCapturesEveryCandidate) {
  TuningProblem P = makeProblem(findBenchmark("Jacobi2D5pt"), false);
  TuneRun R = runInstrumentedTune(P, 2);

  ASSERT_EQ(R.Records.size(), R.Counters["tuner.candidates.enumerated"]);
  std::size_t Valid = 0;
  for (std::size_t I = 0; I != R.Records.size(); ++I) {
    const CandidateRecord &Rec = R.Records[I];
    EXPECT_EQ(Rec.Index, I); // slot == enumeration order
    EXPECT_FALSE(Rec.Variant.empty());
    if (Rec.Valid) {
      ++Valid;
      EXPECT_TRUE(Rec.PruneReason.empty());
      EXPECT_NE(Rec.LoweredHash, 0u);
      EXPECT_GT(Rec.PredictedTime, 0.0);
      EXPECT_GT(Rec.GElemsPerSec, 0.0);
    } else {
      EXPECT_FALSE(Rec.PruneReason.empty());
      EXPECT_DOUBLE_EQ(Rec.PredictedTime, 0.0);
    }
  }
  EXPECT_EQ(Valid, R.Result.All.size());
}

TEST(ObsPipeline, FlightRecordsIdenticalAcrossJobsExceptTiming) {
  TuningProblem P = makeProblem(findBenchmark("Jacobi2D5pt"), false);
  TuneRun R1 = runInstrumentedTune(P, 1);
  TuneRun R8 = runInstrumentedTune(P, 8);

  ASSERT_EQ(R1.Records.size(), R8.Records.size());
  for (std::size_t I = 0; I != R1.Records.size(); ++I) {
    const CandidateRecord &A = R1.Records[I];
    const CandidateRecord &B = R8.Records[I];
    EXPECT_EQ(A.Index, B.Index);
    EXPECT_EQ(A.Variant, B.Variant);
    EXPECT_EQ(A.LoweredHash, B.LoweredHash);
    EXPECT_DOUBLE_EQ(A.PredictedTime, B.PredictedTime);
    EXPECT_DOUBLE_EQ(A.GElemsPerSec, B.GElemsPerSec);
    EXPECT_EQ(A.PruneReason, B.PruneReason);
    EXPECT_EQ(A.Valid, B.Valid);
    // WallMicros and FromMemo are the two fields that legitimately
    // depend on the schedule (the memo only engages at jobs != 1).
  }
}

TEST(ObsPipeline, MetricsDocumentHasPublishedShape) {
  Registry::global().reset();
  FlightRecorder &FR = FlightRecorder::global();
  FR.clear();
  FR.setEnabled(true);

  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, false);
  TuneOptions O;
  O.Jobs = 2;
  TuneResult Result = tuneStencil(P, deviceNvidiaK20c(), trimmedSpace(), O);
  FR.setEnabled(false);

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(metricsDocumentJson(), Doc, &Err)) << Err;

  const json::Value *Metrics = Doc.find("metrics");
  ASSERT_NE(Metrics, nullptr);
  const json::Value *Counters = Metrics->find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_NE(Counters->find("tuner.candidates.enumerated"), nullptr);

  const json::Value *Tunes = Doc.find("tunes");
  ASSERT_NE(Tunes, nullptr);
  ASSERT_EQ(Tunes->array().size(), 1u);
  const json::Value &Sweep = Tunes->array()[0];
  EXPECT_EQ(Sweep.find("label")->asString(), "Jacobi2D5pt");
  const json::Value *Cands = Sweep.find("candidates");
  ASSERT_NE(Cands, nullptr);
  ASSERT_FALSE(Cands->array().empty());

  // One record per enumerated candidate, each with the full field set.
  EXPECT_EQ(double(Cands->array().size()),
            Counters->find("tuner.candidates.enumerated")->asNumber());
  std::size_t ValidInDoc = 0;
  for (const json::Value &C : Cands->array()) {
    for (const char *Key : {"index", "variant", "lowered_hash",
                            "predicted_time", "gelems_per_sec",
                            "prune_reason", "from_memo", "valid", "wall_us"})
      ASSERT_NE(C.find(Key), nullptr) << Key;
    if (C.find("valid")->asBool()) {
      ++ValidInDoc;
      EXPECT_TRUE(C.find("prune_reason")->isNull());
    } else {
      EXPECT_TRUE(C.find("prune_reason")->isString());
    }
  }
  EXPECT_EQ(ValidInDoc, Result.All.size());
  FR.clear();
}

TEST(ObsPipeline, TraceOfParallelTuneNestsCandidatesInSweep) {
  Tracer &T = Tracer::global();
  T.clear();
  Registry::global().reset();
  T.enable();

  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, false);
  TuneOptions O;
  O.Jobs = 8;
  tuneStencil(P, deviceNvidiaK20c(), trimmedSpace(), O);

  T.disable();
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(T.exportChromeJson(), Doc, &Err)) << Err;
  const json::Value *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);

  double TuneTs = -1, TuneEnd = -1;
  std::vector<std::pair<double, double>> CandSpans;
  for (const json::Value &E : Events->array()) {
    if (E.find("ph")->asString() != "X")
      continue;
    const std::string &Name = E.find("name")->asString();
    double Ts = E.find("ts")->asNumber();
    double End = Ts + E.find("dur")->asNumber();
    if (Name == "tune") {
      TuneTs = Ts;
      TuneEnd = End;
    } else if (Name == "tuner.candidate") {
      CandSpans.emplace_back(Ts, End);
    }
  }
  ASSERT_GE(TuneTs, 0.0) << "no tune span recorded";
  std::uint64_t Enumerated =
      Registry::global().counterValues(
          "tuner.candidates.")["tuner.candidates.enumerated"];
  EXPECT_EQ(CandSpans.size(), Enumerated);
  for (const auto &CS : CandSpans) {
    EXPECT_GE(CS.first, TuneTs);
    EXPECT_LE(CS.second, TuneEnd);
  }
  T.clear();
}

TEST(ObsPipeline, ConcurrentSweepsAreRecordedWhole) {
  // Sweeps finishing on different threads each land as one whole log:
  // no sweep's records interleave with another's.
  FlightRecorder &FR = FlightRecorder::global();
  FR.clear();
  constexpr unsigned Threads = 4, Sweeps = 8, Records = 50;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&FR, T] {
      for (unsigned S = 0; S != Sweeps; ++S) {
        std::string Label = std::to_string(T) + "/" + std::to_string(S);
        std::vector<CandidateRecord> Recs(Records);
        for (unsigned I = 0; I != Records; ++I) {
          Recs[I].Index = I;
          Recs[I].Variant = Label;
        }
        FR.recordSweep(Label, std::move(Recs));
      }
    });
  for (std::thread &T : Pool)
    T.join();

  std::vector<FlightRecorder::TuneLog> Logs = FR.logs();
  ASSERT_EQ(Logs.size(), Threads * Sweeps);
  std::map<std::string, unsigned> Seen;
  for (const FlightRecorder::TuneLog &L : Logs) {
    ++Seen[L.Label];
    ASSERT_EQ(L.Records.size(), Records) << L.Label;
    for (unsigned I = 0; I != Records; ++I) {
      EXPECT_EQ(L.Records[I].Index, I) << L.Label;
      EXPECT_EQ(L.Records[I].Variant, L.Label);
    }
  }
  EXPECT_EQ(Seen.size(), std::size_t(Threads * Sweeps));
  FR.clear();
}

} // namespace
