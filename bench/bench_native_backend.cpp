//===- bench_native_backend.cpp - Native backend vs simulator model --------===//
//
// Part of the liftcpp project.
//
// Runs the paper's 2D/3D stencils through the native backend (C
// emission -> host compiler -> dlopen -> real execution) and reports
// measured wall-clock time next to the device-model prediction the
// tuner normally ranks by. Each variant is validated against the
// benchmark's independent golden implementation (max |err| < 1e-3;
// the harness exits non-zero otherwise), so the table doubles as an
// end-to-end correctness check of the emitted C.
//
// The two time columns deliberately measure different things: the
// model predicts seconds on the paper's GPU (NvidiaK20c by default)
// at the paper's target grid, while the native column is real seconds
// on this host CPU at the reduced measurement grid. The comparison is
// about *ranking agreement and availability of a measured objective*,
// not absolute agreement.
//
// Since the clamped remainder-tile lowering every tiled variant runs
// on every benchmark: tiles that do not divide a grid get shifted
// tail tiles, and a tile larger than a short extent (tiled16-local on
// Hotspot3D's 4-deep axis) is clamped to it per dimension. A variant
// that still cannot run (e.g. a step != 1 remainder) appears as a
// "skipped" row carrying the tuner's prune reason instead of being
// dropped silently.
//
// Modes:
//   --json [path]           the JSON snapshot checked in as
//                           BENCH_native_backend.json
//   --full                  run the native measurements at the paper's
//                           target grids (4096^2, 256^3, ...) instead
//                           of the reduced measurement grids
//   --boundary              compare generic vs interior-specialized
//                           native kernels (analysis/InteriorSpec.h)
//                           instead of native vs model; the backend
//                           compiles the specialized form, so the
//                           generic side compiles emitC's text directly
//   --boundary-json [path]  the boundary comparison as JSON (the
//                           checked-in BENCH_native_boundary.json is
//                           produced with --full --boundary-json)
//   --jobs N                OpenMP thread count of the native runs
//   --warmup/--repeats      timing protocol (untimed + timed runs)
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "analysis/InteriorSpec.h"
#include "codegen/Runner.h"
#include "native/NativeRunner.h"
#include "ocl/Device.h"
#include "rewrite/Lowering.h"
#include "tuner/Tuner.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace lift;
using namespace lift::stencil;
using namespace lift::tuner;
using namespace lift::bench;

namespace {

struct Row {
  std::string Name;
  std::string Variant;
  std::string MeasureGrid;
  std::string TargetGrid;
  std::string Skipped; ///< non-empty: prune reason, no measurements
  double NativeMs = 0;
  double NativeGElems = 0; ///< at measurement size, on this host
  double ModeledMs = 0;
  double ModeledGElems = 0; ///< at target size, on the device model
  double MaxErr = 0;
};

/// One generic-vs-specialized comparison (--boundary mode).
struct BoundaryRow {
  std::string Name;
  std::string Grid;
  unsigned LoopsSplit = 0;
  double GenericMs = 0;
  double SpecializedMs = 0;
  double Speedup = 0; ///< GenericMs / SpecializedMs
  double MaxErr = 0;  ///< worst of the two runs vs golden
};

unsigned parseUnsigned(int Argc, char **Argv, const char *Flag,
                       unsigned Default) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::string(Argv[I]) == Flag)
      return unsigned(std::atoi(Argv[I + 1]));
  return Default;
}

double validate(const std::vector<float> &Got,
                const std::vector<float> &Want) {
  double MaxErr = 0;
  for (std::size_t X = 0; X != Want.size(); ++X)
    MaxErr = std::max(MaxErr, double(std::abs(Got[X] - Want[X])));
  return MaxErr;
}

const char *const BenchNames[] = {"Jacobi2D5pt", "Gaussian", "Hotspot2D",
                                  "Jacobi3D7pt", "Heat", "Hotspot3D"};

} // namespace

int main(int argc, char **argv) {
  obs::ObsSession Obs = obsSessionFromArgs(argc, argv);
  unsigned Threads = parseJobs(argc, argv, /*Default=*/1);
  unsigned Warmup = parseUnsigned(argc, argv, "--warmup", 1);
  unsigned Repeats = parseUnsigned(argc, argv, "--repeats", 3);

  bool Json = false, Full = false, Boundary = false, BoundaryJson = false;
  std::string JsonPath, BoundaryJsonPath;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--json") {
      Json = true;
      if (I + 1 < argc && argv[I + 1][0] != '-')
        JsonPath = argv[I + 1];
    } else if (A == "--full") {
      Full = true;
    } else if (A == "--boundary") {
      Boundary = true;
    } else if (A == "--boundary-json") {
      Boundary = BoundaryJson = true;
      if (I + 1 < argc && argv[I + 1][0] != '-')
        BoundaryJsonPath = argv[I + 1];
    }
  }

  try {
    native::probeToolchain();
  } catch (const native::NativeError &Ex) {
    std::fprintf(stderr, "bench_native_backend: no usable toolchain: %s\n",
                 Ex.what());
    return 1;
  }

  ocl::DeviceSpec Dev = ocl::deviceNvidiaK20c();

  //===--------------------------------------------------------------------===//
  // --boundary: generic vs interior-specialized native wall clock.
  //===--------------------------------------------------------------------===//
  if (Boundary) {
    std::vector<BoundaryRow> BRows;
    bool AllValid = true;
    for (const char *Name : BenchNames) {
      const Benchmark &B = findBenchmark(Name);
      TuningProblem P = makeProblem(B, /*LargeTarget=*/false);
      const Extents &Grid = Full ? P.Target : P.Measure;
      ocl::SizeEnv Env = makeSizeEnv(P.Instance, Grid);
      std::vector<std::vector<float>> Inputs = makeBenchmarkInputs(B, Grid);
      std::vector<float> Want = B.Golden(Inputs, Grid);

      // Untiled lowering only: the specializer leaves barrier-staged
      // tiled kernels untouched by design. Lowered for the grid it runs
      // at, so both kernels fold the extents into their C.
      rewrite::LoweringOptions LO;
      LO.OutputExtents.assign(Grid.begin(), Grid.end());
      ir::Program Low = rewrite::lowerStencil(P.Instance.P, LO);
      codegen::Compiled Generic = codegen::compileProgram(Low, B.Name);
      analysis::SpecStats SS;
      codegen::Compiled Spec = Generic;
      Spec.K = analysis::specializeInterior(Generic.K, &SS);

      BoundaryRow R;
      R.Name = Name;
      R.Grid = extentsToString(Grid);
      R.LoopsSplit = SS.LoopsSplit;
      try {
        // The backend would specialize the generic kernel too; compiling
        // its printed C directly keeps what specialization buys in view.
        native::NativeKernelPtr GK = native::compileCSource(
            native::emitC(Generic.K), Generic.K.Name);
        native::NativeRunResult GR = native::runNative(
            Generic, *GK, Inputs, Env, Threads, Warmup, Repeats);
        native::NativeKernelPtr SK =
            native::KernelCache::global().getOrCompile(Spec.K);
        native::NativeRunResult SR = native::runNative(
            Spec, *SK, Inputs, Env, Threads, Warmup, Repeats);
        R.GenericMs = GR.Seconds * 1e3;
        R.SpecializedMs = SR.Seconds * 1e3;
        R.Speedup = GR.Seconds / SR.Seconds;
        R.MaxErr = std::max(validate(GR.Output, Want),
                            validate(SR.Output, Want));
      } catch (const native::NativeError &Ex) {
        std::fprintf(stderr, "%s: native backend failed: %s\n", Name,
                     Ex.what());
        AllValid = false;
        continue;
      }
      if (R.MaxErr >= 1e-3) {
        std::fprintf(stderr, "%s: VALIDATION FAILED (max err %.3g)\n", Name,
                     R.MaxErr);
        AllValid = false;
      }
      BRows.push_back(R);
    }

    if (BoundaryJson) {
      std::string Out =
          "{\n\"meta\": " + benchMetaJson() +
          ",\n\"threads\": " + std::to_string(Threads) +
          ",\n\"warmup\": " + std::to_string(Warmup) +
          ",\n\"repeats\": " + std::to_string(Repeats) +
          ",\n\"grids\": \"" + (Full ? "target" : "measure") + "\"" +
          ",\n\"benchmarks\": [\n";
      for (std::size_t I = 0; I != BRows.size(); ++I) {
        const BoundaryRow &R = BRows[I];
        char Buf[512];
        std::snprintf(
            Buf, sizeof(Buf),
            "  {\"name\": \"%s\", \"grid\": \"%s\", "
            "\"loops_split\": %u, \"generic_ms\": %.4f, "
            "\"specialized_ms\": %.4f, \"speedup\": %.4f, "
            "\"max_err\": %.3g}",
            R.Name.c_str(), R.Grid.c_str(), R.LoopsSplit, R.GenericMs,
            R.SpecializedMs, R.Speedup, R.MaxErr);
        Out += Buf;
        Out += I + 1 == BRows.size() ? "\n" : ",\n";
      }
      Out += "]\n}\n";
      if (BoundaryJsonPath.empty()) {
        std::cout << Out;
      } else {
        std::ofstream OS(BoundaryJsonPath);
        if (!OS) {
          std::cerr << "cannot open " << BoundaryJsonPath
                    << " for writing\n";
          return 1;
        }
        OS << Out;
      }
    } else {
      std::printf("Generic vs interior-specialized native kernels "
                  "(%s grids); %u thread(s), best of %u after %u warmup\n",
                  Full ? "target" : "measure", Threads, Repeats, Warmup);
      printRule(86);
      std::printf("%-12s %-14s %6s %12s %12s %9s %9s\n", "Benchmark",
                  "Grid", "split", "generic ms", "special ms", "speedup",
                  "max err");
      printRule(86);
      for (const BoundaryRow &R : BRows)
        std::printf("%-12s %-14s %6u %12.4f %12.4f %8.2fx %9.2g\n",
                    R.Name.c_str(), R.Grid.c_str(), R.LoopsSplit,
                    R.GenericMs, R.SpecializedMs, R.Speedup, R.MaxErr);
      printRule(86);
    }
    return AllValid ? 0 : 1;
  }

  //===--------------------------------------------------------------------===//
  // Default: native backend vs device model, per variant.
  //===--------------------------------------------------------------------===//

  // The two code shapes the backend emits: flat OpenMP-parallel loops
  // (untiled mapGlb) and work-group tiles staged through a private
  // local-memory array (tiled + local). Remainder and short-extent
  // grids are legal since the clamped tiling scheme; a variant the
  // tuner still prunes (genuinely unsupported shape) appears as a
  // "skipped" row with the prune reason.
  std::vector<Candidate> Variants(2);
  Variants[0].Options.Tile = false;
  Variants[1].Options.Tile = true;
  Variants[1].Options.TileOutputs = 16;
  Variants[1].Options.UseLocalMem = true;

  std::vector<Row> Rows;
  bool AllValid = true;

  for (const char *Name : BenchNames) {
    const Benchmark &B = findBenchmark(Name);
    TuningProblem P = makeProblem(B, /*LargeTarget=*/false);
    const Extents &Grid = Full ? P.Target : P.Measure;
    ocl::SizeEnv NativeEnv = makeSizeEnv(P.Instance, Grid);
    std::vector<std::vector<float>> Inputs =
        Full ? makeBenchmarkInputs(B, Grid) : P.Inputs;
    std::vector<float> Want = B.Golden(Inputs, Grid);

    for (const Candidate &C : Variants) {
      Evaluated E = evaluateCandidate(P, Dev, C, /*Jobs=*/1);
      Row R;
      R.Name = Name;
      R.Variant = C.Options.describe();
      R.MeasureGrid = extentsToString(Grid);
      R.TargetGrid = extentsToString(P.Target);
      if (!E.Valid) {
        // Constraint-pruned (e.g. tile does not divide a grid extent):
        // record why instead of dropping the row.
        R.Skipped = E.WhyNot;
        Rows.push_back(R);
        continue;
      }

      // Lower at the concrete grid so the clamped tiling scheme can
      // clamp the per-dimension tile to short extents (Hotspot3D's
      // 4-deep axis under a 16-output tile).
      rewrite::LoweringOptions LO = C.Options;
      LO.OutputExtents.assign(Grid.begin(), Grid.end());
      ir::Program Low = rewrite::lowerStencil(P.Instance.P, LO);
      codegen::Compiled CC = codegen::compileProgram(Low, B.Name);
      R.ModeledMs = E.T.Total * 1e3;
      R.ModeledGElems = E.GElemsPerSec;
      try {
        native::NativeKernelPtr Kern =
            native::KernelCache::global().getOrCompile(CC.K);
        native::NativeRunResult NR = native::runNative(
            CC, *Kern, Inputs, NativeEnv, Threads, Warmup, Repeats);
        R.NativeMs = NR.Seconds * 1e3;
        R.NativeGElems = double(totalElems(Grid)) / NR.Seconds / 1e9;
        R.MaxErr = validate(NR.Output, Want);
      } catch (const native::NativeError &Ex) {
        std::fprintf(stderr, "%s %s: native backend failed: %s\n", Name,
                     R.Variant.c_str(), Ex.what());
        AllValid = false;
        continue;
      }
      if (R.MaxErr >= 1e-3) {
        std::fprintf(stderr, "%s %s: VALIDATION FAILED (max err %.3g)\n",
                     Name, R.Variant.c_str(), R.MaxErr);
        AllValid = false;
      }
      Rows.push_back(R);
    }
  }

  if (Json) {
    std::string Out = "{\n\"meta\": " + benchMetaJson() +
                      ",\n\"device_model\": \"" + Dev.Name + "\"" +
                      ",\n\"threads\": " + std::to_string(Threads) +
                      ",\n\"warmup\": " + std::to_string(Warmup) +
                      ",\n\"repeats\": " + std::to_string(Repeats) +
                      ",\n\"benchmarks\": [\n";
    for (std::size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      char Buf[512];
      if (!R.Skipped.empty())
        std::snprintf(Buf, sizeof(Buf),
                      "  {\"name\": \"%s\", \"variant\": \"%s\", "
                      "\"measure_grid\": \"%s\", \"target_grid\": \"%s\", "
                      "\"skipped\": \"%s\"}",
                      R.Name.c_str(), R.Variant.c_str(),
                      R.MeasureGrid.c_str(), R.TargetGrid.c_str(),
                      R.Skipped.c_str());
      else
        std::snprintf(
            Buf, sizeof(Buf),
            "  {\"name\": \"%s\", \"variant\": \"%s\", "
            "\"measure_grid\": \"%s\", \"target_grid\": \"%s\", "
            "\"native_ms\": %.4f, \"native_gelems_per_sec\": %.4f, "
            "\"modeled_ms\": %.4f, \"modeled_gelems_per_sec\": %.4f, "
            "\"max_err\": %.3g}",
            R.Name.c_str(), R.Variant.c_str(), R.MeasureGrid.c_str(),
            R.TargetGrid.c_str(), R.NativeMs, R.NativeGElems, R.ModeledMs,
            R.ModeledGElems, R.MaxErr);
      Out += Buf;
      Out += I + 1 == Rows.size() ? "\n" : ",\n";
    }
    Out += "]\n}\n";
    if (JsonPath.empty()) {
      std::cout << Out;
    } else {
      std::ofstream OS(JsonPath);
      if (!OS) {
        std::cerr << "cannot open " << JsonPath << " for writing\n";
        return 1;
      }
      OS << Out;
    }
  } else {
    std::printf("Native backend vs device model (%s); native: %u "
                "thread(s), best of %u after %u warmup\n",
                Dev.Name.c_str(), Threads, Repeats, Warmup);
    printRule(104);
    std::printf("%-12s %-14s %-12s %11s %12s %12s %13s %9s\n", "Benchmark",
                "Variant", "Grid", "native ms", "nat GEl/s",
                "model ms", "model GEl/s", "max err");
    printRule(104);
    for (const Row &R : Rows) {
      if (!R.Skipped.empty()) {
        std::printf("%-12s %-14s %-12s skipped (%s)\n", R.Name.c_str(),
                    R.Variant.c_str(), R.MeasureGrid.c_str(),
                    R.Skipped.c_str());
        continue;
      }
      std::printf("%-12s %-14s %-12s %11.4f %12.3f %12.3f %13.3f %9.2g\n",
                  R.Name.c_str(), R.Variant.c_str(), R.MeasureGrid.c_str(),
                  R.NativeMs, R.NativeGElems, R.ModeledMs, R.ModeledGElems,
                  R.MaxErr);
    }
    printRule(104);
    std::printf("model times are for the %s at the paper's grid; native "
                "times are this host at the %s grid\n",
                Dev.Name.c_str(), Full ? "paper's target" : "measurement");
  }

  return AllValid ? 0 : 1;
}
