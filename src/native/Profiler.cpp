//===- Profiler.cpp - In-kernel profiling driver ----------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "native/Profiler.h"

#include "codegen/AccessAnalysis.h"

using namespace lift;
using namespace lift::native;

ProfiledKernelRun lift::native::profileKernel(
    const codegen::Compiled &C, std::uint64_t LoweredHash,
    const std::vector<std::vector<float>> &Inputs, const ocl::SizeEnv &Sizes,
    unsigned Warmup, unsigned Repeats, const NativeOptions &O,
    const MachinePeaks *Peaks) {
  NativeOptions PO = O;
  PO.Profile = true;
  NativeKernelPtr Kern =
      KernelCache::global().getOrCompile(LoweredHash, C.K, PO);
  NativeRunResult Run =
      runNative(C, *Kern, Inputs, Sizes, /*Threads=*/1, Warmup, Repeats);

  ProfiledKernelRun Out;
  Out.Output = std::move(Run.Output);
  Out.P.KernelName = C.K.Name;
  Out.P.TotalSeconds = Run.Seconds;
  if (Peaks) {
    Out.P.PeakGBPerSec = Peaks->GBPerSec;
    Out.P.PeakGFlopsPerSec = Peaks->GFlopsPerSec;
  }
  std::vector<KernelRegion> Regions = profileRegions(C.K);
  for (std::size_t I = 0; I != Regions.size(); ++I) {
    codegen::RegionWork W =
        codegen::staticRegionWork(C.K, *Regions[I].Loop, Sizes);
    obs::ProfileRegion R;
    R.Name = Regions[I].Name;
    R.Kind = Regions[I].Kind;
    R.Seconds = Run.RegionSeconds[I];
    R.Iterations = W.Iterations;
    R.BytesRead = W.BytesRead;
    R.BytesWritten = W.BytesWritten;
    R.Flops = W.Flops;
    Out.P.Regions.push_back(std::move(R));
  }
  return Out;
}
