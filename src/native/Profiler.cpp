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
    const codegen::Compiled &C,
    const std::vector<std::vector<float>> &Inputs, const ocl::SizeEnv &Sizes,
    unsigned Warmup, unsigned Repeats, const NativeOptions &O,
    const MachinePeaks *Peaks) {
  NativeOptions PO = O;
  PO.Profile = true;
  NativeKernelPtr Kern = KernelCache::global().getOrCompile(C.K, PO);
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
  // The regions and their work are those of the kernel that ran, the
  // interior-specialized form of C.K. A cache hit may hand back the
  // kernel of an alpha-equivalent lowering, whose size variables are
  // its own: bind them by position, as the entry point does.
  const ocl::Kernel &Emitted = *Kern->emitted();
  ocl::SizeEnv EmittedSizes;
  for (std::size_t I = 0; I != C.K.SizeArgs.size(); ++I)
    EmittedSizes[Emitted.SizeArgs[I].VarId] =
        Sizes.at(C.K.SizeArgs[I].VarId);
  std::vector<KernelRegion> Regions = profileRegions(Emitted);
  for (std::size_t I = 0; I != Regions.size(); ++I) {
    codegen::RegionWork W =
        codegen::staticRegionWork(Emitted, *Regions[I].Loop, EmittedSizes);
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
