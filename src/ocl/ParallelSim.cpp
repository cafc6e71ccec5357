//===- ParallelSim.cpp - Compiled, multi-threaded NDRange simulator ---------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ocl/ParallelSim.h"

#include "obs/Trace.h"
#include "support/Support.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <limits>

using namespace lift;
using namespace lift::ir;
using namespace lift::ocl;

/// Sentinel for a loop-variable slot that is not currently bound (a
/// loop variable read outside its loop).
static constexpr std::int64_t UnboundSlot =
    std::numeric_limits<std::int64_t>::min();

/// SlotDepths entries for a slot no loop binds, and for one bound by
/// loops at two different nesting depths.
static constexpr int NoDepth = -1;
static constexpr int MixedDepth = -2;

//===----------------------------------------------------------------------===//
// Plan compilation
//===----------------------------------------------------------------------===//

int ParallelExecutor::slotFor(unsigned VarId) {
  auto It = SlotIds.find(VarId);
  if (It != SlotIds.end())
    return It->second;
  int Id = int(SlotNames.size());
  SlotIds.emplace(VarId, Id);
  SlotNames.push_back(std::string());
  SlotDepths.push_back(NoDepth);
  return Id;
}

/// Makes \p Prog a Binary operand: a constant program folds into the
/// node, so evaluation makes no call for it.
void ParallelExecutor::setOperand(int Prog, int &Ref,
                                  std::int64_t &Val) const {
  const IndexProgram &P = Progs[std::size_t(Prog)];
  Ref = P.IsConst ? -1 : Prog;
  Val = P.IsConst ? P.ConstVal : 0;
}

int ParallelExecutor::compileBinary(IndexProgram::BinOp Op, const AExpr &A,
                                    const AExpr &B) {
  int PA = compileIndex(A);
  int PB = compileIndex(B);
  // Fold when both operands reduced to constants.
  const IndexProgram &IA = Progs[std::size_t(PA)];
  const IndexProgram &IB = Progs[std::size_t(PB)];
  IndexProgram P;
  if (IA.IsConst && IB.IsConst) {
    std::int64_t VA = IA.ConstVal, VB = IB.ConstVal;
    std::int64_t V = 0;
    switch (Op) {
    case IndexProgram::BinOp::Div:
      if (VB == 0)
        fatalError("division by zero in evaluate");
      V = floorDivInt(VA, VB);
      break;
    case IndexProgram::BinOp::Mod:
      if (VB == 0)
        fatalError("modulo by zero in evaluate");
      V = floorModInt(VA, VB);
      break;
    case IndexProgram::BinOp::Min:
      V = std::min(VA, VB);
      break;
    case IndexProgram::BinOp::Max:
      V = std::max(VA, VB);
      break;
    case IndexProgram::BinOp::Mul:
      V = VA * VB;
      break;
    }
    P.F = IndexProgram::Form::Const;
    P.IsConst = true;
    P.ConstVal = V;
  } else {
    P.F = IndexProgram::Form::Binary;
    P.Op = Op;
    setOperand(PA, P.A, P.AVal);
    setOperand(PB, P.B, P.BVal);
  }
  int Id = int(Progs.size());
  Progs.push_back(std::move(P));
  return Id;
}

/// Accumulates Scale * E into an affine form Base + sum(Coeff * slot) +
/// sum(Coeff * sub-program). Non-affine subtrees (floor div/mod,
/// min/max, products of symbolic factors) compile into their own
/// programs and join as SubTerms, so this never fails.
void ParallelExecutor::toAffine(
    const AExpr &E, std::int64_t Scale, std::int64_t &Base,
    std::unordered_map<int, std::int64_t> &Coeffs,
    std::vector<std::pair<std::int64_t, int>> &SubTerms) {
  using Kind = ArithExpr::Kind;
  switch (E->getKind()) {
  case Kind::Cst:
    Base += Scale * E->getCst();
    return;
  case Kind::Var: {
    auto SizeIt = SizeConsts.find(E->getVarId());
    if (SizeIt != SizeConsts.end()) {
      Base += Scale * SizeIt->second;
      return;
    }
    int Slot = slotFor(E->getVarId());
    SlotNames[std::size_t(Slot)] = E->getVarName();
    Coeffs[Slot] += Scale;
    return;
  }
  case Kind::Add:
    for (const AExpr &Op : E->getOperands())
      toAffine(Op, Scale, Base, Coeffs, SubTerms);
    return;
  case Kind::Mul: {
    // Fold constant factors into the scale; a single remaining symbolic
    // factor keeps the term affine, two or more become a product chain.
    std::int64_t Factor = Scale;
    std::vector<const AExpr *> Symbolic;
    for (const AExpr &Op : E->getOperands()) {
      if (Op->getKind() == Kind::Cst) {
        Factor *= Op->getCst();
        continue;
      }
      if (Op->getKind() == Kind::Var) {
        auto SizeIt = SizeConsts.find(Op->getVarId());
        if (SizeIt != SizeConsts.end()) {
          Factor *= SizeIt->second;
          continue;
        }
      }
      Symbolic.push_back(&Op);
    }
    if (Symbolic.empty()) {
      Base += Factor;
      return;
    }
    if (Symbolic.size() == 1) {
      toAffine(*Symbolic[0], Factor, Base, Coeffs, SubTerms);
      return;
    }
    int Prog = compileBinary(IndexProgram::BinOp::Mul, *Symbolic[0],
                             *Symbolic[1]);
    for (std::size_t I = 2; I != Symbolic.size(); ++I) {
      IndexProgram P;
      P.F = IndexProgram::Form::Binary;
      P.Op = IndexProgram::BinOp::Mul;
      setOperand(Prog, P.A, P.AVal);
      setOperand(compileIndex(*Symbolic[I]), P.B, P.BVal);
      Prog = int(Progs.size());
      Progs.push_back(std::move(P));
    }
    SubTerms.emplace_back(Factor, Prog);
    return;
  }
  case Kind::Div:
  case Kind::Mod:
  case Kind::Min:
  case Kind::Max: {
    IndexProgram::BinOp Op = E->getKind() == Kind::Div ? IndexProgram::BinOp::Div
                             : E->getKind() == Kind::Mod
                                 ? IndexProgram::BinOp::Mod
                             : E->getKind() == Kind::Min
                                 ? IndexProgram::BinOp::Min
                                 : IndexProgram::BinOp::Max;
    int Prog = compileBinary(Op, E->getOperands()[0], E->getOperands()[1]);
    if (Progs[std::size_t(Prog)].IsConst) {
      Base += Scale * Progs[std::size_t(Prog)].ConstVal;
      return;
    }
    SubTerms.emplace_back(Scale, Prog);
    return;
  }
  }
  unreachable("covered switch");
}

int ParallelExecutor::compileIndex(const AExpr &E) {
  auto It = ProgIds.find(E.get());
  if (It != ProgIds.end())
    return It->second;

  std::int64_t Base = 0;
  std::unordered_map<int, std::int64_t> Coeffs;
  std::vector<std::pair<std::int64_t, int>> SubTerms;
  toAffine(E, 1, Base, Coeffs, SubTerms);
  for (auto KV = Coeffs.begin(); KV != Coeffs.end();)
    KV = KV->second == 0 ? Coeffs.erase(KV) : std::next(KV);

  int Id;
  if (Coeffs.empty() && SubTerms.empty()) {
    IndexProgram P;
    P.F = IndexProgram::Form::Const;
    P.IsConst = true;
    P.ConstVal = Base;
    Id = int(Progs.size());
    Progs.push_back(std::move(P));
  } else if (Base == 0 && Coeffs.empty() && SubTerms.size() == 1 &&
             SubTerms[0].first == 1) {
    // The whole expression is a single sub-program; no wrapper needed.
    Id = SubTerms[0].second;
  } else {
    IndexProgram P;
    P.F = IndexProgram::Form::Affine;
    P.Base = Base;
    for (const auto &KV : Coeffs)
      P.SlotTerms.emplace_back(KV.second, KV.first); // (coeff, slot)
    // Deterministic term order (unordered_map iteration is not).
    std::sort(P.SlotTerms.begin(), P.SlotTerms.end(),
              [](const auto &A, const auto &B) { return A.second < B.second; });
    P.SubTerms = std::move(SubTerms);
    Id = int(Progs.size());
    Progs.push_back(std::move(P));
  }
  ProgIds.emplace(E.get(), Id);
  return Id;
}

int ParallelExecutor::compileExpr(const KExpr &E) {
  PExpr P;
  P.Kind = E.K;
  switch (E.K) {
  case KExpr::Kind::ConstScalar:
    P.Const = E.Const;
    break;
  case KExpr::Kind::IndexVal:
    P.Prog = compileIndex(E.Index);
    break;
  case KExpr::Kind::ReadVar:
    P.VarId = E.VarId;
    break;
  case KExpr::Kind::Load:
    P.Buf = bufRef(E.BufferId);
    P.Prog = compileIndex(E.Index);
    break;
  case KExpr::Kind::CallUF:
    P.UF = E.UF.get();
    P.FlopCost = std::uint64_t(E.UF->getFlopCost());
    for (const KExprPtr &A : E.Args)
      P.Args.push_back(compileExpr(*A));
    break;
  case KExpr::Kind::Select:
    for (const BoundsCheck &C : E.Checks)
      P.Checks.push_back(
          {compileIndex(C.Idx), compileIndex(C.Lo), compileIndex(C.Hi)});
    P.Then = compileExpr(*E.Then);
    P.Else = compileExpr(*E.Else);
    break;
  }
  int Id = int(Exprs.size());
  Exprs.push_back(std::move(P));
  return Id;
}

void ParallelExecutor::noteSlotDepth(int Slot, int Depth) {
  int &D = SlotDepths[std::size_t(Slot)];
  D = D == NoDepth || D == Depth ? Depth : MixedDepth;
}

/// Compiles \p S, which runs inside \p Depth enclosing loops.
ParallelExecutor::PStmt ParallelExecutor::compileStmt(const Stmt &S,
                                                      int Depth) {
  PStmt P;
  P.Kind = S.K;
  switch (S.K) {
  case Stmt::Kind::Store:
    P.Buf = bufRef(S.BufferId);
    P.Prog = compileIndex(S.Index);
    P.Value = compileExpr(*S.Value);
    break;
  case Stmt::Kind::AssignVar:
    P.VarId = S.VarId;
    P.Value = compileExpr(*S.Value);
    break;
  case Stmt::Kind::Barrier:
    break;
  case Stmt::Kind::Loop: {
    int Slot = slotFor(S.LoopVar->getVarId());
    SlotNames[std::size_t(Slot)] = S.LoopVar->getVarName();
    noteSlotDepth(Slot, Depth);
    P.Slot = Slot;
    P.CountProg = compileIndex(S.Count);
    P.Unroll = S.Unroll;
    for (const StmtPtr &C : S.Body)
      P.Body.push_back(compileStmt(*C, Depth + 1));
    break;
  }
  }
  return P;
}

void ParallelExecutor::compileTopLevel(const std::vector<StmtPtr> &Stmts) {
  for (const StmtPtr &SP : Stmts) {
    const Stmt &S = *SP;
    bool Parallel = S.K == Stmt::Kind::Loop &&
                    (S.LK == LoopKind::Wrg || S.LK == LoopKind::Glb);
    if (!Parallel) {
      TopStmt T;
      T.S = compileStmt(S, 0);
      TopLevel.push_back(std::move(T));
      continue;
    }
    // Flatten a perfectly nested chain of parallel loops into one
    // region (loop counts must be size-constant, which they are for
    // top-level Wrg/Glb nests: only size variables are in scope).
    TopStmt T;
    T.IsRegion = true;
    const Stmt *Cur = &S;
    while (true) {
      int CountProg = compileIndex(Cur->Count);
      if (!Progs[std::size_t(CountProg)].IsConst)
        break; // only possible at the first level (outer counts checked)
      int Slot = slotFor(Cur->LoopVar->getVarId());
      SlotNames[std::size_t(Slot)] = Cur->LoopVar->getVarName();
      noteSlotDepth(Slot, int(T.Levels.size()));
      T.Levels.push_back(
          {Slot, Progs[std::size_t(CountProg)].ConstVal, Cur->Unroll});
      const Stmt *Next =
          Cur->Body.size() == 1 && Cur->Body[0]->K == Stmt::Kind::Loop &&
                  (Cur->Body[0]->LK == LoopKind::Wrg ||
                   Cur->Body[0]->LK == LoopKind::Glb)
              ? Cur->Body[0].get()
              : nullptr;
      // Descend only when the next level's extent is size-constant;
      // otherwise the next loop becomes part of the sequential body.
      if (!Next ||
          !Progs[std::size_t(compileIndex(Next->Count))].IsConst)
        break;
      Cur = Next;
    }
    if (T.Levels.empty()) {
      // Symbolic top-level parallel count (not produced by our code
      // generator); fall back to sequential execution.
      T.IsRegion = false;
      T.S = compileStmt(S, 0);
      TopLevel.push_back(std::move(T));
      continue;
    }
    for (const StmtPtr &C : Cur->Body)
      T.Inner.push_back(compileStmt(*C, int(T.Levels.size())));
    TopLevel.push_back(std::move(T));
  }
}

/// Sets each program's DepSlot: the deepest slot among its slot terms
/// and its sub-programs' DepSlots. A program stays unmemoized (-1) when
/// it is constant, or when one of its slots is bound at no depth or at
/// two, or two of its slots share the deepest depth: its value could
/// then change without that slot being stamped.
void ParallelExecutor::assignDepSlots() {
  for (IndexProgram &P : Progs) {
    if (P.IsConst)
      continue;
    int Best = -1;
    bool Ok = true;
    auto Use = [&](int Slot) {
      int D = Slot < 0 ? NoDepth : SlotDepths[std::size_t(Slot)];
      if (D < 0)
        Ok = false;
      else if (Best < 0 || D > SlotDepths[std::size_t(Best)])
        Best = Slot;
      else if (Slot != Best && D == SlotDepths[std::size_t(Best)])
        Ok = false;
    };
    // Sub-programs precede their users in Progs, so theirs are set.
    auto UseProg = [&](int Sub) {
      if (Sub >= 0 && !Progs[std::size_t(Sub)].IsConst)
        Use(Progs[std::size_t(Sub)].DepSlot);
    };
    for (const auto &T : P.SlotTerms)
      Use(T.second);
    for (const auto &T : P.SubTerms)
      UseProg(T.second);
    UseProg(P.A);
    UseProg(P.B);
    P.DepSlot = Ok ? Best : -1;
  }
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

ParallelExecutor::ParallelExecutor(const Kernel &K, const SizeEnv &Sizes,
                                   const CacheConfig &Cache, unsigned Jobs)
    : K(K), Cache(Cache), Jobs(Jobs) {
  if (Cache.LineBytes <= 0 || !std::has_single_bit(unsigned(Cache.LineBytes)))
    fatalError("cache line of " + std::to_string(Cache.LineBytes) +
               " bytes is not a power of two");
  for (const auto &KV : Sizes)
    SizeConsts.emplace(KV.first, KV.second);
  for (const SizeArg &SA : K.SizeArgs) {
    auto It = Sizes.find(SA.VarId);
    if (It == Sizes.end())
      continue;
    std::string Why = SA.refusal(K.Name, It->second);
    if (!Why.empty())
      fatalError(Why);
  }

  // Buffer layout: every buffer, whatever its space, advances the same
  // virtual address cursor, and gets a disjoint line-aligned range so
  // the cache model never aliases two buffers.
  Buffers.resize(K.Buffers.size());
  Main.PrivBufs.resize(K.Buffers.size());
  std::int64_t NextBase = 0;
  for (const BufferDecl &Decl : K.Buffers) {
    BufferStorage &B = Buffers[std::size_t(Decl.Id)];
    std::int64_t N = Decl.NumElems->evaluate(Sizes);
    if (N < 0)
      fatalError("negative buffer size for " + Decl.Name);
    B.VirtualBase = NextBase;
    std::int64_t Bytes = N * 4;
    NextBase += (Bytes + Cache.LineBytes - 1) / Cache.LineBytes *
                    Cache.LineBytes +
                Cache.LineBytes;
    BufferStorage &Store = storageFor(bufRef(Decl.Id), Main);
    if (Decl.ElemKind == ScalarKind::Float)
      Store.F.assign(std::size_t(N), 0.0f);
    else
      Store.I.assign(std::size_t(N), 0);
  }

  Main.Registers.resize(K.Registers.size());
  for (const RegisterDecl &R : K.Registers)
    Main.Registers[std::size_t(R.Id)] =
        R.Kind == ScalarKind::Float ? Scalar(0.0f) : Scalar(std::int32_t(0));

  CacheSets = std::max<std::int64_t>(
      1, Cache.TotalBytes / (Cache.LineBytes * Cache.Ways));
  CacheTags.assign(std::size_t(CacheSets * Cache.Ways), -1);
  LineShift = std::countr_zero(unsigned(Cache.LineBytes));

  compileTopLevel(K.Body);
  assignDepSlots();
  Main.Slots.assign(SlotNames.size(), UnboundSlot);
  Main.Memo.assign(Progs.size(), MemoEntry());
  Main.SlotStamp.assign(SlotNames.size(), 1);
  Main.CacheLive = true;
}

void ParallelExecutor::bindInput(int BufferId, const std::vector<float> &Data) {
  BufRef Ref = bufRef(BufferId);
  BufferStorage &B = storageFor(Ref, Main);
  if (Ref.Kind == ScalarKind::Float) {
    if (Data.size() != B.F.size())
      fatalError("bindInput: size mismatch for buffer " +
                 K.buffer(BufferId).Name + " (got " +
                 std::to_string(Data.size()) + ", want " +
                 std::to_string(B.F.size()) + ")");
    B.F = Data;
    return;
  }
  if (Data.size() != B.I.size())
    fatalError("bindInput: size mismatch for int buffer");
  for (std::size_t I = 0; I != Data.size(); ++I)
    B.I[I] = std::int32_t(Data[I]);
}

std::vector<float> ParallelExecutor::bufferContents(int BufferId) const {
  BufRef Ref = bufRef(BufferId);
  const BufferStorage &B = Ref.Space == MemSpace::Global
                               ? Buffers[std::size_t(BufferId)]
                               : Main.PrivBufs[std::size_t(BufferId)];
  if (Ref.Kind == ScalarKind::Float)
    return B.F;
  std::vector<float> Out(B.I.size());
  for (std::size_t I = 0; I != B.I.size(); ++I)
    Out[I] = float(B.I[I]);
  return Out;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

/// The value of program \p ProgId in \p S's current binding: the
/// memoized value when the program's DepSlot has not been stamped
/// since it was computed, else a fresh evaluation.
std::int64_t ParallelExecutor::evalProgram(int ProgId, ShardState &S) {
  const IndexProgram &P = Progs[std::size_t(ProgId)];
  if (P.DepSlot < 0)
    return P.IsConst ? P.ConstVal : computeProgram(P, S);
  MemoEntry &M = S.Memo[std::size_t(ProgId)];
  if (M.At >= S.SlotStamp[std::size_t(P.DepSlot)])
    return M.Val;
  std::int64_t V = computeProgram(P, S);
  M = {V, S.Clock};
  return V;
}

std::int64_t ParallelExecutor::computeProgram(const IndexProgram &P,
                                              ShardState &S) {
  switch (P.F) {
  case IndexProgram::Form::Const:
    return P.ConstVal;
  case IndexProgram::Form::Affine: {
    std::int64_t V = P.Base;
    for (const auto &T : P.SlotTerms) {
      std::int64_t SlotVal = S.Slots[std::size_t(T.second)];
      if (SlotVal == UnboundSlot)
        fatalError("unbound variable '" + SlotNames[std::size_t(T.second)] +
                   "' in evaluate");
      V += T.first * SlotVal;
    }
    for (const auto &T : P.SubTerms)
      V += T.first * evalProgram(T.second, S);
    return V;
  }
  case IndexProgram::Form::Binary: {
    std::int64_t VA = P.A < 0 ? P.AVal : evalProgram(P.A, S);
    std::int64_t VB = P.B < 0 ? P.BVal : evalProgram(P.B, S);
    switch (P.Op) {
    case IndexProgram::BinOp::Div:
      if (VB == 0)
        fatalError("division by zero in evaluate");
      return floorDivInt(VA, VB);
    case IndexProgram::BinOp::Mod:
      if (VB == 0)
        fatalError("modulo by zero in evaluate");
      return floorModInt(VA, VB);
    case IndexProgram::BinOp::Min:
      return std::min(VA, VB);
    case IndexProgram::BinOp::Max:
      return std::max(VA, VB);
    case IndexProgram::BinOp::Mul:
      return VA * VB;
    }
    unreachable("covered switch");
  }
  }
  unreachable("covered switch");
}

/// Binds (or, with UnboundSlot, unbinds) a loop slot and stamps it, so
/// every memoized program depending on it is evaluated afresh.
void ParallelExecutor::bindSlot(ShardState &S, int Slot, std::int64_t V) {
  S.Slots[std::size_t(Slot)] = V;
  S.SlotStamp[std::size_t(Slot)] = ++S.Clock;
}

ParallelExecutor::BufRef ParallelExecutor::bufRef(int BufferId) const {
  const BufferDecl &D = K.buffer(BufferId);
  return {BufferId, D.Space, D.ElemKind};
}

ParallelExecutor::BufferStorage &
ParallelExecutor::storageFor(const BufRef &Buf, ShardState &S) {
  return Buf.Space == MemSpace::Global ? Buffers[std::size_t(Buf.Id)]
                                       : S.PrivBufs[std::size_t(Buf.Id)];
}

void ParallelExecutor::touchLine(std::int64_t Line, ShardState &S) {
  if (Line == S.LastLine)
    return;
  S.LastLine = Line;
  if (!S.CacheLive) {
    S.Trace.push_back(Line);
    return;
  }
  std::int64_t Set = Line % CacheSets;
  std::int64_t *Ways = &CacheTags[std::size_t(Set * Cache.Ways)];
  // LRU within the set: front is most recently used.
  for (int W = 0; W != Cache.Ways; ++W) {
    if (Ways[W] != Line)
      continue;
    for (int X = W; X > 0; --X)
      Ways[X] = Ways[X - 1];
    Ways[0] = Line;
    return;
  }
  ++S.Counters.GlobalLoadLineMisses;
  for (int X = Cache.Ways - 1; X > 0; --X)
    Ways[X] = Ways[X - 1];
  Ways[0] = Line;
}

Scalar ParallelExecutor::loadFrom(const BufRef &Buf, std::int64_t Index,
                                  ShardState &S) {
  BufferStorage &B = storageFor(Buf, S);
  std::size_t N = Buf.Kind == ScalarKind::Float ? B.F.size() : B.I.size();
  if (Index < 0 || std::size_t(Index) >= N)
    fatalError("simulated load out of bounds: " + K.buffer(Buf.Id).Name +
               "[" + std::to_string(Index) + "] of " + std::to_string(N));
  switch (Buf.Space) {
  case MemSpace::Global: {
    ++S.Counters.GlobalLoads;
    std::int64_t Addr = B.VirtualBase + Index * 4;
    touchLine(Addr >> LineShift, S);
    break;
  }
  case MemSpace::Local:
    ++S.Counters.LocalLoads;
    break;
  case MemSpace::Private:
    ++S.Counters.PrivateAccesses;
    break;
  }
  if (Buf.Kind == ScalarKind::Float)
    return Scalar(B.F[std::size_t(Index)]);
  return Scalar(B.I[std::size_t(Index)]);
}

void ParallelExecutor::storeTo(const BufRef &Buf, std::int64_t Index,
                               Scalar V, ShardState &S) {
  BufferStorage &B = storageFor(Buf, S);
  std::size_t N = Buf.Kind == ScalarKind::Float ? B.F.size() : B.I.size();
  if (Index < 0 || std::size_t(Index) >= N)
    fatalError("simulated store out of bounds: " + K.buffer(Buf.Id).Name +
               "[" + std::to_string(Index) + "] of " + std::to_string(N));
  switch (Buf.Space) {
  case MemSpace::Global:
    ++S.Counters.GlobalStores;
    break;
  case MemSpace::Local:
    ++S.Counters.LocalStores;
    break;
  case MemSpace::Private:
    ++S.Counters.PrivateAccesses;
    break;
  }
  if (Buf.Space == MemSpace::Global) {
    // Global buffers are shared across shards. Clamped (remainder)
    // tilings store overlap positions from two adjacent work-groups —
    // with identical values by construction — so the write-write race
    // is benign; relaxed atomics keep it defined behavior.
    if (Buf.Kind == ScalarKind::Float) {
      std::atomic_ref<float>(B.F[std::size_t(Index)])
          .store(V.asFloat(), std::memory_order_relaxed);
      return;
    }
    std::atomic_ref<std::int32_t>(B.I[std::size_t(Index)])
        .store(V.asInt(), std::memory_order_relaxed);
    return;
  }
  if (Buf.Kind == ScalarKind::Float) {
    B.F[std::size_t(Index)] = V.asFloat();
    return;
  }
  B.I[std::size_t(Index)] = V.asInt();
}

Scalar ParallelExecutor::evalExpr(int ExprId, ShardState &S, unsigned Depth) {
  const PExpr &E = Exprs[std::size_t(ExprId)];
  switch (E.Kind) {
  case KExpr::Kind::ConstScalar:
    return E.Const;
  case KExpr::Kind::IndexVal:
    return Scalar(std::int32_t(evalProgram(E.Prog, S)));
  case KExpr::Kind::ReadVar:
    return S.Registers[std::size_t(E.VarId)];
  case KExpr::Kind::Load:
    return loadFrom(E.Buf, evalProgram(E.Prog, S), S);
  case KExpr::Kind::CallUF: {
    if (S.ArgScratch.size() <= Depth)
      S.ArgScratch.resize(Depth + 1);
    // Re-index ArgScratch on every access: evaluating an argument can
    // recurse into a deeper CallUF, and the resize above then moves the
    // inner vectors, invalidating any reference held across the call.
    S.ArgScratch[Depth].clear();
    for (int A : E.Args) {
      Scalar V = evalExpr(A, S, Depth + 1);
      S.ArgScratch[Depth].push_back(V);
    }
    ++S.Counters.UserFunCalls;
    S.Counters.Flops += E.FlopCost;
    return E.UF->evaluate(S.ArgScratch[Depth]);
  }
  case KExpr::Kind::Select: {
    ++S.Counters.SelectEvals;
    for (const PExpr::PCheck &C : E.Checks) {
      std::int64_t I = evalProgram(C.Idx, S);
      if (I < evalProgram(C.Lo, S) || I >= evalProgram(C.Hi, S))
        return evalExpr(E.Else, S, Depth);
    }
    return evalExpr(E.Then, S, Depth);
  }
  }
  unreachable("covered switch");
}

void ParallelExecutor::execStmts(const std::vector<PStmt> &Stmts,
                                 ShardState &S) {
  for (const PStmt &St : Stmts)
    execStmt(St, S);
}

void ParallelExecutor::execStmt(const PStmt &St, ShardState &S) {
  switch (St.Kind) {
  case Stmt::Kind::Store: {
    Scalar V = evalExpr(St.Value, S, 0);
    storeTo(St.Buf, evalProgram(St.Prog, S), V, S);
    return;
  }
  case Stmt::Kind::AssignVar:
    S.Registers[std::size_t(St.VarId)] = evalExpr(St.Value, S, 0);
    return;
  case Stmt::Kind::Barrier:
    ++S.Counters.Barriers;
    return;
  case Stmt::Kind::Loop: {
    std::int64_t Extent = evalProgram(St.CountProg, S);
    for (std::int64_t I = 0; I != Extent; ++I) {
      bindSlot(S, St.Slot, I);
      execStmts(St.Body, S);
    }
    bindSlot(S, St.Slot, UnboundSlot);
    S.Counters.LoopIterations += St.Unroll ? 1 : std::uint64_t(Extent);
    return;
  }
  }
  unreachable("covered switch");
}

ParallelExecutor::ShardState ParallelExecutor::makeShard() const {
  ShardState S;
  S.Slots = Main.Slots;
  S.Registers = Main.Registers;
  S.PrivBufs = Main.PrivBufs;
  S.CacheLive = false;
  S.Memo.assign(Progs.size(), MemoEntry());
  S.SlotStamp.assign(SlotNames.size(), 1);
  return S;
}

void ParallelExecutor::runRegion(const TopStmt &Region) {
  std::int64_t Total = 1;
  for (const RegionLevel &L : Region.Levels)
    Total *= L.Extent;

  // Loop-iteration counts of the region levels are added analytically:
  // level k executes once per combination of the outer levels and adds
  // its extent (or 1 when unrolled), exactly as the sequential nest.
  std::uint64_t RegionIters = 0;
  std::uint64_t OuterExec = 1;
  for (const RegionLevel &L : Region.Levels) {
    RegionIters += OuterExec * (L.Unroll ? 1 : std::uint64_t(L.Extent));
    OuterExec *= std::uint64_t(L.Extent);
  }

  if (Total > 0) {
    ThreadPool &Pool = ThreadPool::shared();
    unsigned Par = Jobs == 0 ? Pool.workers()
                             : std::min(Jobs, Pool.workers());
    std::size_t NumChunks =
        std::size_t(std::min<std::int64_t>(Total, std::int64_t(Par) * 4));
    std::vector<ShardState> Shards;
    Shards.reserve(NumChunks);
    for (std::size_t C = 0; C != NumChunks; ++C)
      Shards.push_back(makeShard());

    // Precompute row-major strides for index decomposition.
    std::vector<std::int64_t> Strides(Region.Levels.size(), 1);
    for (std::size_t L = Region.Levels.size(); L-- > 1;)
      Strides[L - 1] = Strides[L] * Region.Levels[L].Extent;

    std::int64_t Chunk = Total / std::int64_t(NumChunks);
    std::int64_t Extra = Total % std::int64_t(NumChunks);
    auto ChunkLo = [&](std::size_t C) {
      std::int64_t SC = std::int64_t(C);
      return SC * Chunk + std::min(SC, Extra);
    };

    Pool.parallelFor(
        NumChunks,
        [&](std::size_t C) {
          obs::Span ChunkSpan("sim.chunk", "sim");
          ChunkSpan.arg("chunk", std::int64_t(C));
          ShardState &S = Shards[C];
          std::int64_t Lo = ChunkLo(C), Hi = ChunkLo(C + 1);
          ChunkSpan.arg("items", Hi - Lo);
          for (std::int64_t I = Lo; I != Hi; ++I) {
            // Rebind from the outermost level whose value changed: an
            // inner level is stamped whenever an outer one is, which
            // is what keeps the index-program memo exact.
            bool Moved = false;
            for (std::size_t L = 0; L != Region.Levels.size(); ++L) {
              int Slot = Region.Levels[L].Slot;
              std::int64_t V = (I / Strides[L]) % Region.Levels[L].Extent;
              if (Moved || S.Slots[std::size_t(Slot)] != V) {
                bindSlot(S, Slot, V);
                Moved = true;
              }
            }
            execStmts(Region.Inner, S);
          }
        },
        Par);

    // Merge deterministically: counters by summation, the global-load
    // traces replayed through the shared cache in ascending chunk order
    // (their concatenation is exactly the sequential access stream),
    // and the last chunk's registers + local/private buffers adopted
    // (sequential last-iteration-wins).
    for (ShardState &S : Shards) {
      for (const ExecCounterField &F : ExecCounterFields)
        Main.Counters.*F.Field += S.Counters.*F.Field;
      for (std::int64_t Line : S.Trace)
        touchLine(Line, Main);
    }
    Main.Registers = std::move(Shards.back().Registers);
    Main.PrivBufs = std::move(Shards.back().PrivBufs);
  }
  Main.Counters.LoopIterations += RegionIters;
}

void ParallelExecutor::run() {
  obs::Span RunSpan("sim.run", "sim");
  RunSpan.arg("kernel", K.Name);
  RunSpan.arg("jobs", std::int64_t(Jobs));
  for (const TopStmt &T : TopLevel) {
    if (T.IsRegion)
      runRegion(T);
    else
      execStmt(T.S, Main);
  }
  RunSpan.arg("flops", std::int64_t(Main.Counters.Flops));
}
