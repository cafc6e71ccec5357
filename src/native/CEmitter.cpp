//===- CEmitter.cpp - Kernel AST to plain C --------------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "native/CEmitter.h"

#include "ocl/Emitter.h"

#include <unordered_set>

using namespace lift;
using namespace lift::native;
using namespace lift::ocl;

std::vector<KernelRegion> lift::native::profileRegions(const Kernel &K) {
  std::vector<KernelRegion> Out;
  std::unordered_set<std::string> UsedNames;
  auto Add = [&](const Stmt &Loop) {
    KernelRegion R;
    R.Kind = loopKindName(Loop.LK);
    std::string Base = R.Kind + "." + Loop.LoopVar->getVarName();
    R.Name = Base;
    for (unsigned N = 2; !UsedNames.insert(R.Name).second; ++N)
      R.Name = Base + "_" + std::to_string(N);
    R.Loop = &Loop;
    Out.push_back(std::move(R));
  };
  auto IsPar = [](const Stmt &S) {
    return S.LK == LoopKind::Glb || S.LK == LoopKind::Wrg;
  };

  for (const StmtPtr &Top : K.Body) {
    if (Top->K != Stmt::Kind::Loop)
      continue;
    // Walk the grid spine: consecutive Glb/Wrg loops whose body is a
    // single nested Glb/Wrg loop (the NDRange dimensions).
    const Stmt *Cur = Top.get();
    while (IsPar(*Cur) && Cur->Body.size() == 1 &&
           Cur->Body[0]->K == Stmt::Kind::Loop && IsPar(*Cur->Body[0]))
      Cur = Cur->Body[0].get();
    // A grid whose innermost spine loop carries several sub-loops
    // (tile fill / compute / reduce) gets one region per sub-loop;
    // everything else is a single whole-nest region.
    std::vector<const Stmt *> Subloops;
    if (IsPar(*Cur))
      for (const StmtPtr &C : Cur->Body)
        if (C->K == Stmt::Kind::Loop)
          Subloops.push_back(C.get());
    if (Subloops.size() >= 2)
      for (const Stmt *L : Subloops)
        Add(*L);
    else
      Add(*Top);
  }
  return Out;
}

std::string lift::native::emitC(const Kernel &K, const CEmitOptions &O) {
  if (!O.Profile)
    return printKernel(K, Dialect::C);
  ProfileTimers Timers;
  for (const KernelRegion &R : profileRegions(K))
    Timers.emplace_back(R.Loop, R.Name);
  return printKernel(K, Dialect::C, &Timers);
}
