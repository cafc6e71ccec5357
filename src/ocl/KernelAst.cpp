//===- KernelAst.cpp - Imperative kernel AST --------------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ocl/KernelAst.h"

#include "support/Support.h"

#include <cassert>

using namespace lift;
using namespace lift::ocl;

const char *lift::ocl::memSpaceName(MemSpace S) {
  switch (S) {
  case MemSpace::Global:
    return "global";
  case MemSpace::Local:
    return "local";
  case MemSpace::Private:
    return "private";
  }
  unreachable("covered switch");
}

const char *lift::ocl::loopKindName(LoopKind K) {
  switch (K) {
  case LoopKind::Seq:
    return "seq";
  case LoopKind::Glb:
    return "glb";
  case LoopKind::Wrg:
    return "wrg";
  case LoopKind::Lcl:
    return "lcl";
  }
  unreachable("covered switch");
}

std::optional<std::int64_t> SizeArg::bound() const {
  if (Valid && Valid->Min && Valid->Max && *Valid->Min == *Valid->Max)
    return Valid->Min;
  return std::nullopt;
}

std::string SizeArg::refusal(const std::string &KernelName,
                             std::int64_t Value) const {
  std::string Head = "kernel " + KernelName;
  std::string Tail = ", not " + std::to_string(Value);
  if (std::optional<std::int64_t> B = bound())
    return *B == Value ? "" : Head + " was built for " + Name + " = " +
                                  std::to_string(*B) + Tail;
  if (Valid && Valid->Min && Value < *Valid->Min)
    return Head + " needs " + Name + " >= " + std::to_string(*Valid->Min) +
           Tail;
  if (Valid && Valid->Max && Value > *Valid->Max)
    return Head + " needs " + Name + " <= " + std::to_string(*Valid->Max) +
           Tail;
  return "";
}

KExprPtr lift::ocl::kConst(ir::Scalar V) {
  auto E = std::make_shared<KExpr>();
  E->K = KExpr::Kind::ConstScalar;
  E->Const = V;
  return E;
}

KExprPtr lift::ocl::kIndexVal(AExpr Ex) {
  auto E = std::make_shared<KExpr>();
  E->K = KExpr::Kind::IndexVal;
  E->Index = std::move(Ex);
  return E;
}

KExprPtr lift::ocl::kReadVar(int VarId) {
  auto E = std::make_shared<KExpr>();
  E->K = KExpr::Kind::ReadVar;
  E->VarId = VarId;
  return E;
}

KExprPtr lift::ocl::kLoad(int BufferId, AExpr Index) {
  auto E = std::make_shared<KExpr>();
  E->K = KExpr::Kind::Load;
  E->BufferId = BufferId;
  E->Index = std::move(Index);
  return E;
}

KExprPtr lift::ocl::kCallUF(ir::UserFunPtr UF, std::vector<KExprPtr> Args) {
  assert(UF && Args.size() == UF->arity() && "kCallUF arity mismatch");
  auto E = std::make_shared<KExpr>();
  E->K = KExpr::Kind::CallUF;
  E->UF = std::move(UF);
  E->Args = std::move(Args);
  return E;
}

KExprPtr lift::ocl::kSelect(std::vector<BoundsCheck> Checks, KExprPtr Then,
                            KExprPtr Else) {
  assert(!Checks.empty() && Then && Else && "malformed select");
  auto E = std::make_shared<KExpr>();
  E->K = KExpr::Kind::Select;
  E->Checks = std::move(Checks);
  E->Then = std::move(Then);
  E->Else = std::move(Else);
  return E;
}

StmtPtr lift::ocl::sStore(int BufferId, AExpr Index, KExprPtr Value) {
  auto S = std::make_shared<Stmt>();
  S->K = Stmt::Kind::Store;
  S->BufferId = BufferId;
  S->Index = std::move(Index);
  S->Value = std::move(Value);
  return S;
}

StmtPtr lift::ocl::sAssign(int VarId, KExprPtr Value) {
  auto S = std::make_shared<Stmt>();
  S->K = Stmt::Kind::AssignVar;
  S->VarId = VarId;
  S->Value = std::move(Value);
  return S;
}

StmtPtr lift::ocl::sLoop(LoopKind LK, int Dim, AExpr LoopVar, AExpr Count,
                         std::vector<StmtPtr> Body, bool Unroll) {
  assert(LoopVar->getKind() == ArithExpr::Kind::Var &&
         "loop variable must be an ArithExpr variable");
  auto S = std::make_shared<Stmt>();
  S->K = Stmt::Kind::Loop;
  S->LK = LK;
  S->Dim = Dim;
  S->LoopVar = std::move(LoopVar);
  S->Count = std::move(Count);
  S->Body = std::move(Body);
  S->Unroll = Unroll;
  return S;
}

StmtPtr lift::ocl::sBarrier() {
  auto S = std::make_shared<Stmt>();
  S->K = Stmt::Kind::Barrier;
  return S;
}

int Kernel::outputBufferId() const {
  for (const BufferDecl &B : Buffers)
    if (B.IsOutput)
      return B.Id;
  fatalError("kernel has no output buffer");
}

void Kernel::noteUserFun(const ir::UserFunPtr &UF) {
  for (const ir::UserFunPtr &Existing : UserFuns)
    if (Existing.get() == UF.get())
      return;
  UserFuns.push_back(UF);
}

namespace {

struct Walker {
  const StmtVisitor &OnStmt;
  const ExprVisitor &OnExpr;
  WalkContext Ctx;

  void stmts(const std::vector<StmtPtr> &Body) {
    for (const StmtPtr &S : Body)
      stmt(*S);
  }

  void stmt(const Stmt &S) {
    if (OnStmt)
      OnStmt(S, Ctx);
    if (S.K == Stmt::Kind::Loop) {
      Ctx.Loops.push_back(&S);
      stmts(S.Body);
      Ctx.Loops.pop_back();
    } else if (S.Value && OnExpr) {
      expr(*S.Value);
    }
  }

  void expr(const KExpr &E) {
    OnExpr(E, Ctx);
    for (const KExprPtr &A : E.Args)
      expr(*A);
    if (E.K != KExpr::Kind::Select)
      return;
    for (const BoundsCheck &C : E.Checks)
      Ctx.Guards.push_back(&C);
    expr(*E.Then);
    Ctx.Guards.resize(Ctx.Guards.size() - E.Checks.size());
    bool OuterElse = Ctx.InElse;
    Ctx.InElse = true;
    expr(*E.Else);
    Ctx.InElse = OuterElse;
  }
};

} // namespace

void lift::ocl::walkKernel(const std::vector<StmtPtr> &Body,
                           const StmtVisitor &OnStmt,
                           const ExprVisitor &OnExpr) {
  Walker{OnStmt, OnExpr, {}}.stmts(Body);
}
