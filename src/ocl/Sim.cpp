//===- Sim.cpp - Instrumented NDRange simulator -----------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ocl/Sim.h"

#include "obs/Metrics.h"

#include <algorithm>

using namespace lift;
using namespace lift::ocl;

//===----------------------------------------------------------------------===//
// NDRange analysis
//===----------------------------------------------------------------------===//

std::int64_t NDRangeInfo::totalWorkItems() const {
  if (UsesWorkGroups)
    return totalWorkGroups() * LocalSize[0] * LocalSize[1] * LocalSize[2];
  return GlobalSize[0] * GlobalSize[1] * GlobalSize[2];
}

std::int64_t NDRangeInfo::totalWorkGroups() const {
  return NumGroups[0] * NumGroups[1] * NumGroups[2];
}

NDRangeInfo lift::ocl::analyzeNDRange(const Kernel &K, const SizeEnv &Sizes) {
  NDRangeInfo Info;
  // Every count is evaluated on the sizes alone: Lift-generated loop
  // extents never depend on outer loop indices.
  walkKernel(K.Body, [&](const Stmt &S, const WalkContext &) {
    if (S.K != Stmt::Kind::Loop)
      return;
    std::int64_t Extent = S.Count->evaluate(Sizes);
    switch (S.LK) {
    case LoopKind::Glb:
      Info.GlobalSize[S.Dim] = std::max(Info.GlobalSize[S.Dim], Extent);
      break;
    case LoopKind::Wrg:
      Info.UsesWorkGroups = true;
      Info.NumGroups[S.Dim] = std::max(Info.NumGroups[S.Dim], Extent);
      break;
    case LoopKind::Lcl:
      Info.UsesWorkGroups = true;
      Info.LocalSize[S.Dim] = std::max(Info.LocalSize[S.Dim], Extent);
      break;
    case LoopKind::Seq:
      break;
    }
  });
  for (const BufferDecl &B : K.Buffers)
    if (B.Space == MemSpace::Local)
      Info.LocalMemBytes += B.NumElems->evaluate(Sizes) * 4;
  return Info;
}

void lift::ocl::exportCountersToMetrics(const ExecCounters &C,
                                        const std::string &Prefix) {
  obs::Registry &Reg = obs::Registry::global();
  for (const ExecCounterField &F : ExecCounterFields)
    Reg.counter(Prefix + F.Name).inc(C.*F.Field);
}
