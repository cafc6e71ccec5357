//===- Expr.cpp - Lift IR expressions ---------------------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"

#include "support/Support.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <sstream>
#include <type_traits>

using namespace lift;
using namespace lift::ir;

Expr::~Expr() = default;

namespace {

enum class PrimFamily { None, Map, Reduce, Layout };

/// One row of the primitive table.
struct PrimInfo {
  Prim P;
  const char *Name;
  PrimFamily Family;
};

/// The primitive table: one row per Prim, in enumerator order.
constexpr PrimInfo PrimTable[] = {
    {Prim::UserFunCall, "userFun", PrimFamily::None},
    {Prim::Map, "map", PrimFamily::Map},
    {Prim::Reduce, "reduce", PrimFamily::Reduce},
    {Prim::Iterate, "iterate", PrimFamily::None},
    {Prim::Zip, "zip", PrimFamily::Layout},
    {Prim::Split, "split", PrimFamily::Layout},
    {Prim::Join, "join", PrimFamily::Layout},
    {Prim::Transpose, "transpose", PrimFamily::Layout},
    {Prim::At, "at", PrimFamily::Layout},
    {Prim::Get, "get", PrimFamily::Layout},
    {Prim::Generate, "generate", PrimFamily::Layout},
    {Prim::SizeVal, "sizeVal", PrimFamily::None},
    {Prim::Slide, "slide", PrimFamily::Layout},
    {Prim::Pad, "pad", PrimFamily::Layout},
    {Prim::SlideClamp, "slideClamp", PrimFamily::Layout},
    {Prim::JoinClamp, "joinClamp", PrimFamily::Layout},
    {Prim::MapGlb, "mapGlb", PrimFamily::Map},
    {Prim::MapWrg, "mapWrg", PrimFamily::Map},
    {Prim::MapLcl, "mapLcl", PrimFamily::Map},
    {Prim::MapSeq, "mapSeq", PrimFamily::Map},
    {Prim::ReduceSeq, "reduceSeq", PrimFamily::Reduce},
    {Prim::ReduceSeqUnroll, "reduceSeqUnroll", PrimFamily::Reduce},
};

static_assert(std::size(PrimTable) == NumPrims, "one table row per Prim");

constexpr bool rowsInEnumOrder() {
  for (std::size_t I = 0; I != NumPrims; ++I)
    if (PrimTable[I].P != Prim(I))
      return false;
  return true;
}
static_assert(rowsInEnumOrder(), "table rows follow the Prim enumerators");

const PrimInfo &primInfo(Prim P) { return PrimTable[std::size_t(P)]; }

} // namespace

const char *lift::ir::primName(Prim P) { return primInfo(P).Name; }

bool lift::ir::isMapPrim(Prim P) {
  return primInfo(P).Family == PrimFamily::Map;
}

bool lift::ir::isReducePrim(Prim P) {
  return primInfo(P).Family == PrimFamily::Reduce;
}

bool lift::ir::isLayoutPrim(Prim P) {
  return primInfo(P).Family == PrimFamily::Layout;
}

std::string lift::ir::toString(const Boundary &B) {
  switch (B.K) {
  case Boundary::Kind::Clamp:
    return "clamp";
  case Boundary::Kind::Mirror:
    return "mirror";
  case Boundary::Kind::Wrap:
    return "wrap";
  case Boundary::Kind::Constant: {
    std::ostringstream OS;
    OS << "constant(" << B.ConstVal << ")";
    return OS.str();
  }
  }
  unreachable("covered switch");
}

std::int64_t lift::ir::resolveBoundaryIndex(Boundary::Kind K, std::int64_t I,
                                            std::int64_t N) {
  assert(N > 0 && "boundary resolution needs a non-empty array");
  switch (K) {
  case Boundary::Kind::Clamp:
    return std::max<std::int64_t>(0, std::min(I, N - 1));
  case Boundary::Kind::Mirror: {
    // Symmetric reflection with edge duplication: -1 -> 0, n -> n-1.
    std::int64_t J = floorModInt(I, 2 * N);
    return std::min(J, 2 * N - 1 - J);
  }
  case Boundary::Kind::Wrap:
    return floorModInt(I, N);
  case Boundary::Kind::Constant:
    break;
  }
  unreachable("constant boundary does not reindex");
}

std::shared_ptr<CallExpr>
CallExpr::withArgs(std::vector<ExprPtr> NewArgs) const {
  auto NC = std::make_shared<CallExpr>(P, std::move(NewArgs));
  NC->UF = UF;
  NC->Dim = Dim;
  NC->Factor = Factor;
  NC->Size = Size;
  NC->Step = Step;
  NC->PadL = PadL;
  NC->PadR = PadR;
  NC->Bdy = Bdy;
  NC->Index = Index;
  NC->IterCount = IterCount;
  NC->GenSizes = GenSizes;
  return NC;
}

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

ExprPtr lift::ir::lit(float V) {
  return std::make_shared<LiteralExpr>(Scalar(V));
}

ExprPtr lift::ir::litInt(std::int32_t V) {
  return std::make_shared<LiteralExpr>(Scalar(V));
}

ParamPtr lift::ir::param(std::string Name, TypePtr DeclaredTy) {
  return std::make_shared<ParamExpr>(std::move(Name), std::move(DeclaredTy));
}

LambdaPtr lift::ir::lambda(std::vector<ParamPtr> Params, ExprPtr Body,
                           AddrSpace Space) {
  assert(Body && "lambda requires a body");
  return std::make_shared<LambdaExpr>(std::move(Params), std::move(Body),
                                      Space);
}

LambdaPtr lift::ir::lam(const std::string &ParamName,
                        const std::function<ExprPtr(ExprPtr)> &BuildBody) {
  ParamPtr P = param(ParamName);
  ExprPtr Body = BuildBody(P);
  return lambda({P}, std::move(Body));
}

LambdaPtr
lift::ir::lam2(const std::string &P0, const std::string &P1,
               const std::function<ExprPtr(ExprPtr, ExprPtr)> &BuildBody) {
  ParamPtr A = param(P0);
  ParamPtr B = param(P1);
  ExprPtr Body = BuildBody(A, B);
  return lambda({A, B}, std::move(Body));
}

LambdaPtr lift::ir::etaLambda(const UserFunPtr &UF) {
  std::vector<ParamPtr> Params;
  std::vector<ExprPtr> Args;
  for (std::size_t I = 0, E = UF->arity(); I != E; ++I) {
    ParamPtr P = param("x" + std::to_string(I));
    Params.push_back(P);
    Args.push_back(P);
  }
  return lambda(std::move(Params), apply(UF, std::move(Args)));
}

ExprPtr lift::ir::apply(const UserFunPtr &UF, std::vector<ExprPtr> Args) {
  assert(UF && Args.size() == UF->arity() && "userFun arity mismatch");
  auto C = std::make_shared<CallExpr>(Prim::UserFunCall, std::move(Args));
  C->UF = UF;
  return C;
}

ExprPtr lift::ir::makeMapLike(Prim P, int Dim, LambdaPtr F, ExprPtr In) {
  assert(isMapPrim(P) && "makeMapLike requires a map primitive");
  assert(F->getParams().size() == 1 && "map function takes one argument");
  auto C = std::make_shared<CallExpr>(
      P, std::vector<ExprPtr>{std::move(F), std::move(In)});
  C->Dim = Dim;
  return C;
}

ExprPtr lift::ir::map(LambdaPtr F, ExprPtr In) {
  return makeMapLike(Prim::Map, 0, std::move(F), std::move(In));
}

ExprPtr lift::ir::mapGlb(int Dim, LambdaPtr F, ExprPtr In) {
  assert(Dim >= 0 && Dim < 3 && "OpenCL has three NDRange dimensions");
  return makeMapLike(Prim::MapGlb, Dim, std::move(F), std::move(In));
}

ExprPtr lift::ir::mapWrg(int Dim, LambdaPtr F, ExprPtr In) {
  assert(Dim >= 0 && Dim < 3 && "OpenCL has three NDRange dimensions");
  return makeMapLike(Prim::MapWrg, Dim, std::move(F), std::move(In));
}

ExprPtr lift::ir::mapLcl(int Dim, LambdaPtr F, ExprPtr In) {
  assert(Dim >= 0 && Dim < 3 && "OpenCL has three NDRange dimensions");
  return makeMapLike(Prim::MapLcl, Dim, std::move(F), std::move(In));
}

ExprPtr lift::ir::mapSeq(LambdaPtr F, ExprPtr In) {
  return makeMapLike(Prim::MapSeq, 0, std::move(F), std::move(In));
}

ExprPtr lift::ir::makeReduceLike(Prim P, LambdaPtr F, ExprPtr Init,
                                 ExprPtr In) {
  assert(isReducePrim(P) && "makeReduceLike requires a reduce primitive");
  assert(F->getParams().size() == 2 &&
         "reduce operator takes accumulator and element");
  return std::make_shared<CallExpr>(
      P, std::vector<ExprPtr>{std::move(F), std::move(Init), std::move(In)});
}

ExprPtr lift::ir::reduce(LambdaPtr F, ExprPtr Init, ExprPtr In) {
  return makeReduceLike(Prim::Reduce, std::move(F), std::move(Init),
                        std::move(In));
}

ExprPtr lift::ir::reduceSeq(LambdaPtr F, ExprPtr Init, ExprPtr In) {
  return makeReduceLike(Prim::ReduceSeq, std::move(F), std::move(Init),
                        std::move(In));
}

ExprPtr lift::ir::reduceSeqUnroll(LambdaPtr F, ExprPtr Init, ExprPtr In) {
  return makeReduceLike(Prim::ReduceSeqUnroll, std::move(F), std::move(Init),
                        std::move(In));
}

ExprPtr lift::ir::iterate(int Count, LambdaPtr F, ExprPtr In) {
  assert(Count >= 0 && "iterate count must be non-negative");
  auto C = std::make_shared<CallExpr>(
      Prim::Iterate, std::vector<ExprPtr>{std::move(F), std::move(In)});
  C->IterCount = Count;
  return C;
}

ExprPtr lift::ir::zip(std::vector<ExprPtr> Ins) {
  assert(Ins.size() >= 2 && Ins.size() <= 4 && "zip takes 2..4 arrays");
  return std::make_shared<CallExpr>(Prim::Zip, std::move(Ins));
}

ExprPtr lift::ir::zip(ExprPtr A, ExprPtr B) {
  return zip(std::vector<ExprPtr>{std::move(A), std::move(B)});
}

ExprPtr lift::ir::zip3(ExprPtr A, ExprPtr B, ExprPtr C) {
  return zip(std::vector<ExprPtr>{std::move(A), std::move(B), std::move(C)});
}

ExprPtr lift::ir::split(AExpr ChunkSize, ExprPtr In) {
  auto C = std::make_shared<CallExpr>(Prim::Split,
                                      std::vector<ExprPtr>{std::move(In)});
  C->Factor = std::move(ChunkSize);
  return C;
}

ExprPtr lift::ir::join(ExprPtr In) {
  return std::make_shared<CallExpr>(Prim::Join,
                                    std::vector<ExprPtr>{std::move(In)});
}

ExprPtr lift::ir::transpose(ExprPtr In) {
  return std::make_shared<CallExpr>(Prim::Transpose,
                                    std::vector<ExprPtr>{std::move(In)});
}

ExprPtr lift::ir::slide(AExpr Size, AExpr Step, ExprPtr In) {
  auto C = std::make_shared<CallExpr>(Prim::Slide,
                                      std::vector<ExprPtr>{std::move(In)});
  C->Size = std::move(Size);
  C->Step = std::move(Step);
  return C;
}

ExprPtr lift::ir::slideClamp(AExpr Size, AExpr Step, ExprPtr In) {
  auto C = std::make_shared<CallExpr>(Prim::SlideClamp,
                                      std::vector<ExprPtr>{std::move(In)});
  C->Size = std::move(Size);
  C->Step = std::move(Step);
  return C;
}

ExprPtr lift::ir::joinClamp(AExpr OutLen, ExprPtr In) {
  auto C = std::make_shared<CallExpr>(Prim::JoinClamp,
                                      std::vector<ExprPtr>{std::move(In)});
  C->Size = std::move(OutLen);
  return C;
}

ExprPtr lift::ir::pad(AExpr L, AExpr R, Boundary B, ExprPtr In) {
  auto C = std::make_shared<CallExpr>(Prim::Pad,
                                      std::vector<ExprPtr>{std::move(In)});
  C->PadL = std::move(L);
  C->PadR = std::move(R);
  C->Bdy = B;
  return C;
}

ExprPtr lift::ir::at(int Index, ExprPtr In) {
  assert(Index >= 0 && "array index must be non-negative");
  auto C = std::make_shared<CallExpr>(Prim::At,
                                      std::vector<ExprPtr>{std::move(In)});
  C->Index = Index;
  return C;
}

ExprPtr lift::ir::get(int Index, ExprPtr In) {
  assert(Index >= 0 && "tuple index must be non-negative");
  auto C = std::make_shared<CallExpr>(Prim::Get,
                                      std::vector<ExprPtr>{std::move(In)});
  C->Index = Index;
  return C;
}

ExprPtr lift::ir::sizeVal(AExpr Size) {
  auto C = std::make_shared<CallExpr>(Prim::SizeVal, std::vector<ExprPtr>{});
  C->Size = std::move(Size);
  return C;
}

ExprPtr lift::ir::generate(std::vector<AExpr> Sizes, LambdaPtr F) {
  assert(!Sizes.empty() && Sizes.size() <= 3 && "generate is 1D..3D");
  assert(F->getParams().size() == Sizes.size() &&
         "generator takes one index per dimension");
  auto C = std::make_shared<CallExpr>(Prim::Generate,
                                      std::vector<ExprPtr>{std::move(F)});
  C->GenSizes = std::move(Sizes);
  return C;
}

/// Rebuilds \p F with a different address space.
static LambdaPtr withAddrSpace(const LambdaPtr &F, AddrSpace Space) {
  return std::make_shared<LambdaExpr>(F->getParams(), F->getBody(), Space);
}

LambdaPtr lift::ir::toLocal(const LambdaPtr &F) {
  return withAddrSpace(F, AddrSpace::Local);
}

LambdaPtr lift::ir::toGlobal(const LambdaPtr &F) {
  return withAddrSpace(F, AddrSpace::Global);
}

LambdaPtr lift::ir::toPrivate(const LambdaPtr &F) {
  return withAddrSpace(F, AddrSpace::Private);
}

Program lift::ir::makeProgram(std::vector<ParamPtr> Inputs, ExprPtr Body) {
#ifndef NDEBUG
  for (const ParamPtr &P : Inputs)
    assert(P->getDeclaredType() && "program inputs must declare types");
#endif
  return lambda(std::move(Inputs), std::move(Body));
}

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

namespace {
using ParamMap = std::unordered_map<const ParamExpr *, ExprPtr>;
} // namespace

static ExprPtr cloneRec(const ExprPtr &E, ParamMap &PM) {
  switch (E->getKind()) {
  case Expr::Kind::Literal:
    return std::make_shared<LiteralExpr>(
        dynCast<LiteralExpr>(E)->getValue());
  case Expr::Kind::Param: {
    auto It = PM.find(static_cast<const ParamExpr *>(E.get()));
    // Free parameters (program inputs) are shared, bound ones remapped.
    if (It == PM.end())
      return E;
    return It->second;
  }
  case Expr::Kind::Lambda: {
    const auto *L = dynCast<LambdaExpr>(E);
    std::vector<ParamPtr> NewParams;
    for (const ParamPtr &P : L->getParams()) {
      ParamPtr NP = param(P->getName(), P->getDeclaredType());
      PM[P.get()] = NP;
      NewParams.push_back(std::move(NP));
    }
    ExprPtr NewBody = cloneRec(L->getBody(), PM);
    return lambda(std::move(NewParams), std::move(NewBody),
                  L->getAddrSpace());
  }
  case Expr::Kind::Call: {
    const auto *C = dynCast<CallExpr>(E);
    std::vector<ExprPtr> NewArgs;
    NewArgs.reserve(C->getArgs().size());
    for (const ExprPtr &A : C->getArgs())
      NewArgs.push_back(cloneRec(A, PM));
    return C->withArgs(std::move(NewArgs));
  }
  }
  unreachable("covered switch");
}

ExprPtr lift::ir::deepClone(const ExprPtr &E) {
  ParamMap PM;
  return cloneRec(E, PM);
}

ExprPtr lift::ir::substituteParams(
    const ExprPtr &E,
    const std::unordered_map<const ParamExpr *, ExprPtr> &Subst) {
  ParamMap PM(Subst.begin(), Subst.end());
  return cloneRec(E, PM);
}

ExprPtr lift::ir::betaReduce(const LambdaPtr &F,
                             const std::vector<ExprPtr> &Args) {
  assert(F->getParams().size() == Args.size() && "betaReduce arity");
  std::unordered_map<const ParamExpr *, ExprPtr> Subst;
  for (std::size_t I = 0, E = Args.size(); I != E; ++I)
    Subst[F->getParams()[I].get()] = Args[I];
  return substituteParams(F->getBody(), Subst);
}

bool lift::ir::isLayoutOnly(const ExprPtr &E) {
  if (E->getKind() == Expr::Kind::Param)
    return true;
  const auto *C = dynCast<CallExpr>(E);
  if (!C)
    return false;
  if (C->getPrim() == Prim::Map) {
    const auto *F = dynCast<LambdaExpr>(C->getArgs()[0]);
    return isLayoutOnly(F->getBody()) && isLayoutOnly(C->getArgs()[1]);
  }
  // A generator's lambda computes lazily, per element the view reads.
  if (C->getPrim() == Prim::Generate)
    return true;
  return isLayoutPrim(C->getPrim()) &&
         std::all_of(C->getArgs().begin(), C->getArgs().end(),
                     [](const ExprPtr &A) { return isLayoutOnly(A); });
}

Program lift::ir::cloneProgram(const Program &P) {
  ParamMap PM;
  std::vector<ParamPtr> NewInputs;
  for (const ParamPtr &In : P->getParams()) {
    ParamPtr NP = param(In->getName(), In->getDeclaredType());
    PM[In.get()] = NP;
    NewInputs.push_back(std::move(NP));
  }
  ExprPtr NewBody = cloneRec(P->getBody(), PM);
  Program Copy = makeProgram(std::move(NewInputs), std::move(NewBody));
  Copy->SizeRanges = P->SizeRanges;
  return Copy;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

static std::string scalarToString(Scalar V) {
  if (V.K == ScalarKind::Float) {
    std::string S = std::to_string(V.F);
    // Trim trailing zeros for readability; keep one decimal digit.
    while (S.size() > 1 && S.back() == '0' &&
           S[S.size() - 2] != '.')
      S.pop_back();
    return S;
  }
  return std::to_string(V.I);
}

static std::string payloadToString(int V) { return std::to_string(V); }
static std::string payloadToString(const AExpr &V) { return V->toString(); }
static std::string payloadToString(const Boundary &B) { return toString(B); }
static std::string payloadToString(const std::vector<AExpr> &Sizes) {
  std::string S;
  for (std::size_t I = 0, N = Sizes.size(); I != N; ++I)
    S += (I != 0 ? ", " : "") + Sizes[I]->toString();
  return S;
}

static std::string printRec(const ExprPtr &E) {
  switch (E->getKind()) {
  case Expr::Kind::Literal:
    return scalarToString(dynCast<LiteralExpr>(E)->getValue());
  case Expr::Kind::Param:
    return dynCast<ParamExpr>(E)->getName();
  case Expr::Kind::Lambda: {
    const auto *L = dynCast<LambdaExpr>(E);
    std::string S = "\\";
    for (std::size_t I = 0, N = L->getParams().size(); I != N; ++I) {
      if (I != 0)
        S += ", ";
      S += L->getParams()[I]->getName();
    }
    S += ". " + printRec(L->getBody());
    switch (L->getAddrSpace()) {
    case AddrSpace::Default:
      return S;
    case AddrSpace::Global:
      return "toGlobal(" + S + ")";
    case AddrSpace::Local:
      return "toLocal(" + S + ")";
    case AddrSpace::Private:
      return "toPrivate(" + S + ")";
    }
    unreachable("covered switch");
  }
  case Expr::Kind::Call: {
    const auto *C = dynCast<CallExpr>(E);
    std::string S;
    if (C->getPrim() == Prim::UserFunCall)
      S = C->UF->getName() + "(";
    else
      S = std::string(primName(C->getPrim())) + "(";
    bool First = true;
    auto Append = [&](const std::string &Part) {
      S += (First ? "" : ", ") + Part;
      First = false;
    };
    forEachPayload(C->getPrim(), [&](auto Field) {
      // The user function's name is the call's head, printed above.
      if constexpr (!std::is_same_v<decltype(Field), UserFunPtr CallExpr::*>)
        Append(payloadToString(C->*Field));
    });
    for (const ExprPtr &A : C->getArgs())
      Append(printRec(A));
    return S + ")";
  }
  }
  unreachable("covered switch");
}

std::string lift::ir::toString(const ExprPtr &E) { return printRec(E); }

std::string lift::ir::toString(const Program &P) {
  std::string S = "fun(";
  for (std::size_t I = 0, N = P->getParams().size(); I != N; ++I) {
    if (I != 0)
      S += ", ";
    S += P->getParams()[I]->getName();
    if (const TypePtr &T = P->getParams()[I]->getDeclaredType())
      S += ": " + T->toString();
  }
  return S + " => " + printRec(P->getBody()) + ")";
}
