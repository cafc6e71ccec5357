//===- InteriorSpec.cpp - Interior/edge kernel specialization ------------===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "analysis/InteriorSpec.h"

#include "analysis/RangeAnalysis.h"

#include <unordered_map>
#include <unordered_set>

namespace lift {
namespace analysis {

namespace {

using ocl::KExpr;
using ocl::KExprPtr;
using ocl::Stmt;
using ocl::StmtPtr;

constexpr int MaxHalo = 4;

//===----------------------------------------------------------------------===//
// Subtree scans
//===----------------------------------------------------------------------===//

/// True when \p E contains a Min/Max/Mod node whose subtree mentions
/// variable \p Id — i.e. surviving boundary arithmetic on that loop.
bool hasBoundaryOpOn(const AExpr &E, unsigned Id) {
  if (!E)
    return false;
  switch (E->getKind()) {
  case ArithExpr::Kind::Min:
  case ArithExpr::Kind::Max:
  case ArithExpr::Kind::Mod:
    if (mentionsVar(E, Id))
      return true;
    break;
  default:
    break;
  }
  for (const AExpr &Op : E->getOperands())
    if (hasBoundaryOpOn(Op, Id))
      return true;
  return false;
}

/// Eligibility scan over one loop body: the split duplicates the body
/// into three clones, which is only safe when the body is a pure
/// per-iteration computation over global memory — no barriers, no
/// work-group/local-id loops, no local/private buffers, and every
/// register read after a write within the same body.
bool splittable(const ocl::Kernel &K, const std::vector<StmtPtr> &Body) {
  bool Ok = true;
  auto Global = [&](int BufferId) {
    return K.buffer(BufferId).Space == ocl::MemSpace::Global;
  };
  std::unordered_set<int> Assigned;
  // An assignment's own right-hand side, visited after it, reads the
  // register's old value: the write lands at the next statement.
  int Pending = -1;
  ocl::walkKernel(
      Body,
      [&](const Stmt &S, const ocl::WalkContext &) {
        if (Pending >= 0)
          Assigned.insert(Pending);
        Pending = S.K == Stmt::Kind::AssignVar ? S.VarId : -1;
        if (S.K == Stmt::Kind::Store)
          Ok &= Global(S.BufferId);
        else if (S.K == Stmt::Kind::Barrier)
          Ok = false;
        else if (S.K == Stmt::Kind::Loop)
          Ok &= S.LK != ocl::LoopKind::Wrg && S.LK != ocl::LoopKind::Lcl;
      },
      [&](const KExpr &E, const ocl::WalkContext &) {
        // A read before any write here takes a value from outside.
        if (E.K == KExpr::Kind::ReadVar)
          Ok &= Assigned.count(E.VarId) != 0;
        else if (E.K == KExpr::Kind::Load)
          Ok &= Global(E.BufferId);
      });
  return Ok;
}

/// Counts register occurrences (reads + writes) under \p Body.
std::unordered_map<int, unsigned>
countRegUses(const std::vector<StmtPtr> &Body) {
  std::unordered_map<int, unsigned> Uses;
  ocl::walkKernel(
      Body,
      [&](const Stmt &S, const ocl::WalkContext &) {
        if (S.K == Stmt::Kind::AssignVar)
          ++Uses[S.VarId];
      },
      [&](const KExpr &E, const ocl::WalkContext &) {
        if (E.K == KExpr::Kind::ReadVar)
          ++Uses[E.VarId];
      });
  return Uses;
}

//===----------------------------------------------------------------------===//
// Cloning with substitution / simplification / register remapping
//===----------------------------------------------------------------------===//

struct CloneCtx {
  const std::unordered_map<unsigned, AExpr> &Subst;
  const std::unordered_map<int, int> *RegMap = nullptr;
  bool Simplify = false; ///< interior mode: simplify + resolve Selects
  SpecStats *Stats = nullptr;

  AExpr index(const AExpr &E, const Facts &F) const {
    if (!E)
      return E;
    AExpr Out = Subst.empty() ? E : substitute(E, Subst);
    if (Simplify)
      Out = simplifyWithFacts(Out, F);
    return Out;
  }

  int reg(int Id) const {
    if (!RegMap)
      return Id;
    auto It = RegMap->find(Id);
    return It == RegMap->end() ? Id : It->second;
  }
};

KExprPtr cloneExpr(const KExprPtr &E, const CloneCtx &C, const Facts &F) {
  if (!E)
    return E;
  switch (E->K) {
  case KExpr::Kind::ConstScalar:
    return E;
  case KExpr::Kind::IndexVal:
    return ocl::kIndexVal(C.index(E->Index, F));
  case KExpr::Kind::ReadVar:
    return C.RegMap ? ocl::kReadVar(C.reg(E->VarId)) : E;
  case KExpr::Kind::Load:
    return ocl::kLoad(E->BufferId, C.index(E->Index, F));
  case KExpr::Kind::CallUF: {
    std::vector<KExprPtr> Args;
    Args.reserve(E->Args.size());
    for (const KExprPtr &A : E->Args)
      Args.push_back(cloneExpr(A, C, F));
    return ocl::kCallUF(E->UF, std::move(Args));
  }
  case KExpr::Kind::Select: {
    std::vector<ocl::BoundsCheck> Checks;
    Checks.reserve(E->Checks.size());
    bool AllProved = C.Simplify;
    for (const ocl::BoundsCheck &B : E->Checks) {
      ocl::BoundsCheck NB{C.index(B.Idx, F), C.index(B.Lo, F),
                          C.index(B.Hi, F)};
      if (AllProved && !provablyInBounds(NB.Idx, NB.Lo, NB.Hi, F))
        AllProved = false;
      Checks.push_back(std::move(NB));
    }
    if (AllProved) {
      // Every lane of this branch is provably in bounds: the guard and
      // the constant fallback vanish.
      if (C.Stats)
        ++C.Stats->SelectsResolved;
      return cloneExpr(E->Then, C, F);
    }
    return ocl::kSelect(std::move(Checks), cloneExpr(E->Then, C, F),
                        cloneExpr(E->Else, C, F));
  }
  }
  return E;
}

StmtPtr cloneStmt(const StmtPtr &S, const CloneCtx &C, const Facts &F) {
  switch (S->K) {
  case Stmt::Kind::Store:
    return ocl::sStore(S->BufferId, C.index(S->Index, F),
                       cloneExpr(S->Value, C, F));
  case Stmt::Kind::AssignVar:
    return ocl::sAssign(C.reg(S->VarId), cloneExpr(S->Value, C, F));
  case Stmt::Kind::Barrier:
    return S;
  case Stmt::Kind::Loop: {
    AExpr Count = C.index(S->Count, F);
    Facts Inner = F.withLoopVar(S->LoopVar, Count);
    std::vector<StmtPtr> Body;
    Body.reserve(S->Body.size());
    for (const StmtPtr &B : S->Body)
      Body.push_back(cloneStmt(B, C, Inner));
    return ocl::sLoop(S->LK, S->Dim, S->LoopVar, std::move(Count),
                      std::move(Body), S->Unroll);
  }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Interior verification
//===----------------------------------------------------------------------===//

/// True when the transformed interior body is fully clamp-free with
/// respect to the interior variable \p Id: no surviving Min/Max/Mod
/// mentioning it in any index/count expression, and no surviving
/// Select guard mentioning it.
bool clampFree(const std::vector<StmtPtr> &Body, unsigned Id) {
  bool Clean = true;
  ocl::walkKernel(
      Body,
      [&](const Stmt &S, const ocl::WalkContext &) {
        Clean = Clean && !hasBoundaryOpOn(S.Index, Id) &&
                !hasBoundaryOpOn(S.Count, Id);
      },
      [&](const KExpr &E, const ocl::WalkContext &) {
        Clean = Clean && !hasBoundaryOpOn(E.Index, Id);
        for (const ocl::BoundsCheck &B : E.Checks)
          Clean = Clean && !mentionsVar(B.Idx, Id) &&
                  !mentionsVar(B.Lo, Id) && !mentionsVar(B.Hi, Id);
      });
  return Clean;
}

//===----------------------------------------------------------------------===//
// The splitter
//===----------------------------------------------------------------------===//

/// \p Loop marked as an edge slab (ocl::Stmt::EdgeSlab).
StmtPtr edgeSlab(const StmtPtr &Loop) {
  auto S = std::make_shared<Stmt>(*Loop);
  S->EdgeSlab = true;
  return S;
}

struct Splitter {
  ocl::Kernel &K;
  SpecStats &Stats;
  /// Occurrences of every register across the whole kernel; updated as
  /// clones introduce fresh registers so nested splits stay checkable.
  std::unordered_map<int, unsigned> GlobalRegUses;

  std::vector<StmtPtr> processBody(const std::vector<StmtPtr> &Body,
                                   const Facts &F) {
    std::vector<StmtPtr> Out;
    Out.reserve(Body.size());
    for (const StmtPtr &S : Body) {
      // Edge slabs of an earlier split keep their general path.
      if (S->K == Stmt::Kind::Loop && !S->EdgeSlab) {
        if (S->LK == ocl::LoopKind::Glb) {
          trySplit(S, F, Out);
          continue;
        }
        if (S->LK == ocl::LoopKind::Seq) {
          Facts Inner = F.withLoopVar(S->LoopVar, S->Count);
          Out.push_back(ocl::sLoop(S->LK, S->Dim, S->LoopVar, S->Count,
                                   processBody(S->Body, Inner), S->Unroll));
          continue;
        }
        // Wrg/Lcl subtrees (tiled/local-memory kernels) are left alone.
      }
      Out.push_back(S);
    }
    return Out;
  }

  /// Duplicates every register of \p Uses with a suffixed name,
  /// recording the mapping and keeping the global use counts current.
  std::unordered_map<int, int>
  duplicateRegs(const std::unordered_map<int, unsigned> &Uses,
                const char *Suffix) {
    std::unordered_map<int, int> Map;
    for (const auto &[Id, N] : Uses) {
      int NewId = int(K.Registers.size());
      const ocl::RegisterDecl &Old = K.Registers[std::size_t(Id)];
      K.Registers.push_back({NewId, Old.Name + Suffix, Old.Kind});
      Map[Id] = NewId;
      GlobalRegUses[NewId] = N;
    }
    return Map;
  }

  void trySplit(const StmtPtr &Loop, const Facts &F,
                std::vector<StmtPtr> &Out) {
    // Keep the loop (with recursively processed body) when no split
    // applies.
    auto Keep = [&]() {
      Facts Inner = F.withLoopVar(Loop->LoopVar, Loop->Count);
      Out.push_back(ocl::sLoop(Loop->LK, Loop->Dim, Loop->LoopVar,
                               Loop->Count, processBody(Loop->Body, Inner),
                               Loop->Unroll));
    };

    unsigned VId = Loop->LoopVar->getVarId();
    // A body without boundary operations on this loop (an interior of
    // an earlier split, or a dimension without padding) gains nothing.
    if (clampFree(Loop->Body, VId) || !splittable(K, Loop->Body)) {
      Keep();
      return;
    }
    // Registers written here must not be visible elsewhere: clones get
    // fresh copies, so any outside read would see the wrong one.
    const std::unordered_map<int, unsigned> RegUses =
        countRegUses(Loop->Body);
    for (const auto &[Id, N] : RegUses) {
      auto It = GlobalRegUses.find(Id);
      if (It == GlobalRegUses.end() || It->second != N) {
        Keep();
        return;
      }
    }

    const std::string &VName = Loop->LoopVar->getVarName();

    for (int H = 1; H <= MaxHalo; ++H) {
      Range VR;
      VR.Min = 0;
      AExpr VI = var(VName + "_i", VR);
      std::unordered_map<unsigned, AExpr> Subst{
          {VId, add(VI, cst(H))}};
      // When the interior loop runs at all, VI <= Count - 2H - 1.
      Facts IF = F.withBound(VI->getVarId(), cst(0),
                             sub(sub(Loop->Count, cst(2 * H)), cst(1)));

      // Probe: transform without committing registers or stats, then
      // verify every boundary operation on this loop evaporated.
      CloneCtx Probe{Subst, nullptr, /*Simplify=*/true, nullptr};
      std::vector<StmtPtr> Probed;
      Probed.reserve(Loop->Body.size());
      for (const StmtPtr &S : Loop->Body)
        Probed.push_back(cloneStmt(S, Probe, IF));
      if (!clampFree(Probed, VI->getVarId()))
        continue;

      // Commit. Left edge [0, min(H, count)) keeps the original body
      // and registers.
      AExpr LeftCount = amin(cst(H), Loop->Count);
      Out.push_back(edgeSlab(ocl::sLoop(Loop->LK, Loop->Dim, Loop->LoopVar,
                                        std::move(LeftCount), Loop->Body,
                                        Loop->Unroll)));

      // Interior [H, count - H): fresh registers, simplified body,
      // then recurse so nested grid loops split too.
      auto RegMapI = duplicateRegs(RegUses, "_i");
      CloneCtx CI{Subst, &RegMapI, /*Simplify=*/true, &Stats};
      std::vector<StmtPtr> InteriorBody;
      InteriorBody.reserve(Loop->Body.size());
      for (const StmtPtr &S : Loop->Body)
        InteriorBody.push_back(cloneStmt(S, CI, IF));
      InteriorBody = processBody(InteriorBody, IF);
      AExpr InteriorCount = amax(cst(0), sub(Loop->Count, cst(2 * H)));
      Out.push_back(ocl::sLoop(Loop->LK, Loop->Dim, VI,
                               std::move(InteriorCount),
                               std::move(InteriorBody), Loop->Unroll));

      // Right edge [max(H, count - H), count): fresh registers, the
      // general body shifted to the tail, no simplification.
      AExpr VRight = var(VName + "_r", VR);
      AExpr RightStart = amax(cst(H), sub(Loop->Count, cst(H)));
      std::unordered_map<unsigned, AExpr> SubstR{
          {VId, add(VRight, RightStart)}};
      auto RegMapR = duplicateRegs(RegUses, "_r");
      CloneCtx CR{SubstR, &RegMapR, /*Simplify=*/false, nullptr};
      std::vector<StmtPtr> RightBody;
      RightBody.reserve(Loop->Body.size());
      for (const StmtPtr &S : Loop->Body)
        RightBody.push_back(cloneStmt(S, CR, Facts()));
      AExpr RightCount = amax(cst(0), sub(Loop->Count, RightStart));
      Out.push_back(edgeSlab(ocl::sLoop(Loop->LK, Loop->Dim, VRight,
                                        std::move(RightCount),
                                        std::move(RightBody),
                                        Loop->Unroll)));

      ++Stats.LoopsSplit;
      return;
    }
    Keep();
  }
};

} // namespace

ocl::Kernel specializeInterior(const ocl::Kernel &K, SpecStats *Stats) {
  ocl::Kernel Out = K;
  SpecStats Local;
  Splitter S{Out, Stats ? *Stats : Local, countRegUses(Out.Body)};
  Out.Body = S.processBody(Out.Body, Facts{});
  return Out;
}

} // namespace analysis
} // namespace lift
