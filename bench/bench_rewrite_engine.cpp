//===- bench_rewrite_engine.cpp - Rewrite engine microbenchmarks -----------===//
//
// Part of the liftcpp project.
//
// google-benchmark microbenchmarks of the rewrite machinery: rule
// application, the overlapped-tiling rule, full stencil lowering, and
// automatic rewrite-space exploration (the path most sensitive to the
// cost of program equality checks).
//
// Passing --json [path] emits a compact JSON summary (benchmark name,
// nanoseconds per iteration, iteration count) instead of the console
// table, so successive PRs can track the exploration-throughput
// trajectory; the checked-in BENCH_rewrite_engine.json snapshot at the
// repo root is produced this way.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"
#include "rewrite/Exploration.h"
#include "BenchSupport.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"
#include "stencil/StencilOps.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace lift;
using namespace lift::ir;
using namespace lift::rewrite;
using namespace lift::stencil;

namespace {

void BM_TilingRuleApplication(benchmark::State &State) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  Rule R = tiling1DRule(16);
  for (auto _ : State) {
    // 2D programs contain a 1D slide inside slideNd; rewrite each match.
    std::vector<ExprPtr> Rewrites = applyEach(R, I.P->getBody());
    benchmark::DoNotOptimize(Rewrites.data());
  }
}
BENCHMARK(BM_TilingRuleApplication);

void BM_LowerStencilGlobal(benchmark::State &State) {
  const Benchmark &B = findBenchmark("Jacobi2D9pt");
  BenchmarkInstance I = B.Build();
  LoweringOptions O;
  for (auto _ : State) {
    Program Low = lowerStencil(I.P, O);
    benchmark::DoNotOptimize(Low.get());
  }
}
BENCHMARK(BM_LowerStencilGlobal);

void BM_LowerStencilTiledLocal(benchmark::State &State) {
  const Benchmark &B = findBenchmark("Jacobi2D9pt");
  BenchmarkInstance I = B.Build();
  LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  for (auto _ : State) {
    Program Low = lowerStencil(I.P, O);
    benchmark::DoNotOptimize(Low.get());
  }
}
BENCHMARK(BM_LowerStencilTiledLocal);

void BM_MatchSlideNd3D(benchmark::State &State) {
  const Benchmark &B = findBenchmark("Jacobi3D7pt");
  BenchmarkInstance I = B.Build();
  std::optional<MapNdMatch> M = matchMapNd(I.P->getBody());
  for (auto _ : State) {
    std::optional<SlideNdMatch> S = matchSlideNd(M->Input);
    benchmark::DoNotOptimize(S.has_value());
  }
}
BENCHMARK(BM_MatchSlideNd3D);

void BM_CloneProgram3D(benchmark::State &State) {
  const Benchmark &B = findBenchmark("Poisson");
  BenchmarkInstance I = B.Build();
  for (auto _ : State) {
    Program P = cloneProgram(I.P);
    benchmark::DoNotOptimize(P.get());
  }
}
BENCHMARK(BM_CloneProgram3D);

/// The unannotated 1D Jacobi from the exploration tests: sum over a
/// 3-point clamped neighborhood.
Program jacobi1DProgram() {
  AExpr N = var("n", Range(1, 1 << 30));
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr SumNbh = lam("nbh", [](ExprPtr Nbh) {
    return theOne(reduce(etaLambda(ufAddFloat()), lit(0.0f), Nbh));
  });
  return makeProgram(
      {A}, map(SumNbh, slide(cst(3), cst(1),
                             pad(cst(1), cst(1), Boundary::clamp(), A))));
}

/// Full automatic exploration of a 1D Jacobi stencil: the workload the
/// paper's search relies on, and the one dominated by candidate-program
/// deduplication cost.
void BM_ExploreJacobi1D(benchmark::State &State) {
  Program P = jacobi1DProgram();
  ExplorationOptions O;
  O.MaxDepth = static_cast<int>(State.range(0));
  O.MaxPrograms = 256;
  for (auto _ : State) {
    std::vector<Derivation> Space = explore(P, stencilExplorationRules(), O);
    benchmark::DoNotOptimize(Space.data());
    State.counters["programs"] =
        benchmark::Counter(static_cast<double>(Space.size()));
  }
}
BENCHMARK(BM_ExploreJacobi1D)->Arg(2)->Arg(3);

/// 2D exploration: deeper expression trees per candidate, so equality
/// and type-inference costs weigh more per program.
void BM_ExploreJacobi2D(benchmark::State &State) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  ExplorationOptions O;
  O.MaxDepth = 2;
  O.MaxPrograms = 128;
  for (auto _ : State) {
    std::vector<Derivation> Space = explore(I.P, stencilExplorationRules(), O);
    benchmark::DoNotOptimize(Space.data());
    State.counters["programs"] =
        benchmark::Counter(static_cast<double>(Space.size()));
  }
}
BENCHMARK(BM_ExploreJacobi2D);

/// Captures per-benchmark results and renders the compact JSON summary
/// used for the checked-in snapshot.
class CompactJsonReporter : public benchmark::BenchmarkReporter {
public:
  explicit CompactJsonReporter(std::ostream &OS) : OS(OS) {}

  bool ReportContext(const Context &) override { return true; }

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      if (R.error_occurred)
        continue;
      Lines.push_back("  {\"name\": \"" + R.benchmark_name() +
                      "\", \"ns_per_iter\": " +
                      std::to_string(R.GetAdjustedRealTime()) +
                      ", \"iterations\": " + std::to_string(R.iterations) +
                      "}");
    }
  }

  void Finalize() override {
    OS << "{\n\"meta\": " << lift::bench::benchMetaJson() << ",\n"
       << "\"benchmarks\": [\n";
    for (std::size_t I = 0; I != Lines.size(); ++I)
      OS << Lines[I] << (I + 1 == Lines.size() ? "\n" : ",\n");
    OS << "]\n}\n";
  }

private:
  std::ostream &OS;
  std::vector<std::string> Lines;
};

} // namespace

int main(int argc, char **argv) {
  lift::obs::ObsSession Obs(lift::obs::parseObsOptions(argc, argv));
  // Extract our own --json [path] and observability flags before
  // google-benchmark sees the command line; everything else passes
  // through unchanged.
  bool Json = false;
  std::string JsonPath;
  std::vector<char *> Args;
  for (int I = 0; I != argc; ++I) {
    lift::obs::ObsOptions Sink;
    if (lift::obs::parseObsFlag(argv[I], Sink))
      continue;
    if (std::strcmp(argv[I], "--json") == 0) {
      Json = true;
      if (I + 1 < argc && argv[I + 1][0] != '-')
        JsonPath = argv[++I];
      continue;
    }
    Args.push_back(argv[I]);
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  if (!Json) {
    benchmark::RunSpecifiedBenchmarks();
  } else if (JsonPath.empty()) {
    CompactJsonReporter R(std::cout);
    benchmark::RunSpecifiedBenchmarks(&R);
  } else {
    std::ofstream OS(JsonPath);
    if (!OS) {
      std::cerr << "cannot open " << JsonPath << " for writing\n";
      return 1;
    }
    CompactJsonReporter R(OS);
    benchmark::RunSpecifiedBenchmarks(&R);
  }
  benchmark::Shutdown();
  return Obs.finish();
}
