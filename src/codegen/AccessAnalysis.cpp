//===- AccessAnalysis.cpp - Static memory-access analysis --------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "codegen/AccessAnalysis.h"

#include "support/Support.h"

#include <algorithm>

using namespace lift;
using namespace lift::ocl;
using namespace lift::codegen;

const char *lift::codegen::accessPatternName(AccessPattern P) {
  switch (P) {
  case AccessPattern::Coalesced:
    return "coalesced";
  case AccessPattern::Uniform:
    return "uniform";
  case AccessPattern::Strided:
    return "strided";
  case AccessPattern::Irregular:
    return "irregular";
  case AccessPattern::Sequential:
    return "sequential";
  }
  unreachable("covered switch");
}

int AccessReport::count(AccessPattern P) const {
  int N = 0;
  for (const AccessSite &S : Sites)
    N += S.Pattern == P;
  return N;
}

bool AccessReport::fullyCoalesced() const {
  for (const AccessSite &S : Sites)
    if (S.Pattern == AccessPattern::Strided ||
        S.Pattern == AccessPattern::Irregular)
      return false;
  return true;
}

AccessReport lift::codegen::analyzeAccesses(const Kernel &K,
                                            const SizeEnv &Sizes) {
  // A small interior sample value avoiding boundary clamps, chosen
  // below the smallest loop extent seen so far where possible.
  constexpr std::int64_t SampleBase = 5;
  SizeEnv Env = Sizes; // sizes + sample values for loop variables
  AccessReport Report;

  auto NoteSite = [&](bool IsStore, int BufferId, const AExpr &Index,
                      const WalkContext &C) {
    const BufferDecl &B = K.buffer(BufferId);
    if (B.Space != MemSpace::Global)
      return;
    // The innermost lane variable in scope (a Glb/Lcl dim-0 loop var
    // id), or 0 when none.
    unsigned LaneVar = 0;
    for (const Stmt *L : C.Loops)
      if ((L->LK == LoopKind::Glb || L->LK == LoopKind::Lcl) && L->Dim == 0)
        LaneVar = L->LoopVar->getVarId();
    AccessSite Site;
    Site.IsStore = IsStore;
    Site.BufferId = BufferId;
    Site.BufferName = B.Name;
    Site.Index = Index;

    if (LaneVar == 0 || !mentionsVar(Index, LaneVar)) {
      Site.Pattern =
          LaneVar == 0 ? AccessPattern::Sequential : AccessPattern::Uniform;
      Report.Sites.push_back(std::move(Site));
      return;
    }

    // Probe linearity: index at lane, lane+1, lane+2.
    std::int64_t Saved = Env[LaneVar];
    std::int64_t V0 = Index->evaluate(Env);
    Env[LaneVar] = Saved + 1;
    std::int64_t V1 = Index->evaluate(Env);
    Env[LaneVar] = Saved + 2;
    std::int64_t V2 = Index->evaluate(Env);
    Env[LaneVar] = Saved;

    std::int64_t D1 = V1 - V0;
    std::int64_t D2 = V2 - V1;
    if (D1 != D2) {
      Site.Pattern = AccessPattern::Irregular;
    } else {
      Site.Stride = D1;
      Site.Pattern = D1 == 0   ? AccessPattern::Uniform
                     : D1 == 1 ? AccessPattern::Coalesced
                               : AccessPattern::Strided;
    }
    Report.Sites.push_back(std::move(Site));
  };

  walkKernel(
      K.Body,
      [&](const Stmt &S, const WalkContext &C) {
        if (S.K == Stmt::Kind::Store)
          NoteSite(/*IsStore=*/true, S.BufferId, S.Index, C);
        if (S.K != Stmt::Kind::Loop)
          return;
        // Bind an interior sample value for this loop variable so index
        // probes avoid the boundary clamps. Counts may reference outer
        // loop vars, which pre-order has already bound.
        std::int64_t Extent = S.Count->evaluate(Env);
        Env[S.LoopVar->getVarId()] =
            Extent > 2 * SampleBase ? SampleBase
                                    : std::max<std::int64_t>(0, Extent / 2);
      },
      [&](const KExpr &E, const WalkContext &C) {
        if (E.K == KExpr::Kind::Load)
          NoteSite(/*IsStore=*/false, E.BufferId, E.Index, C);
      });
  return Report;
}

//===----------------------------------------------------------------------===//
// Static region work counts
//===----------------------------------------------------------------------===//

namespace {

/// Loop trip counts in generated kernels only reference size
/// variables, so evaluation normally succeeds; the fallible form keeps
/// malformed input from turning a report into a fatal error.
std::uint64_t tripCount(const Stmt &Loop, const SizeEnv &Env) {
  std::optional<std::int64_t> N = Loop.Count->tryEvaluate(Env);
  return N && *N > 0 ? std::uint64_t(*N) : 0;
}

} // namespace

RegionWork lift::codegen::staticRegionWork(const Kernel &K,
                                           const Stmt &RegionRoot,
                                           const SizeEnv &Sizes) {
  RegionWork W;
  bool Found = false;
  // Every enclosing loop's trip count multiplies in, the region's own
  // and those outside it alike.
  auto Mult = [&](const WalkContext &C) {
    std::uint64_t M = 1;
    for (const Stmt *L : C.Loops)
      M *= tripCount(*L, Sizes);
    return M;
  };
  // Only the in-bounds branch of a Select counts (see header comment).
  auto InRegion = [&](const WalkContext &C) {
    return !C.InElse && std::find(C.Loops.begin(), C.Loops.end(),
                                  &RegionRoot) != C.Loops.end();
  };
  auto Global = [&](int BufferId) {
    return K.buffer(BufferId).Space == MemSpace::Global;
  };
  walkKernel(
      K.Body,
      [&](const Stmt &S, const WalkContext &C) {
        if (&S == &RegionRoot) {
          Found = true;
          W.Iterations = tripCount(S, Sizes) * Mult(C);
        } else if (S.K == Stmt::Kind::Store && InRegion(C) &&
                   Global(S.BufferId)) {
          W.BytesWritten += 4 * Mult(C);
        }
      },
      [&](const KExpr &E, const WalkContext &C) {
        if (!InRegion(C))
          return;
        if (E.K == KExpr::Kind::Load && Global(E.BufferId))
          W.BytesRead += 4 * Mult(C);
        else if (E.K == KExpr::Kind::CallUF)
          W.Flops += std::uint64_t(E.UF->getFlopCost()) * Mult(C);
      });
  if (!Found)
    fatalError("staticRegionWork: region root is not a statement of the "
               "kernel");
  return W;
}
