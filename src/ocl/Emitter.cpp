//===- Emitter.cpp - OpenCL C source emission --------------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ocl/Emitter.h"

#include "support/Support.h"

#include <sstream>

using namespace lift;
using namespace lift::ir;
using namespace lift::ocl;

namespace {

const char *scalarCType(ScalarKind K) {
  return K == ScalarKind::Float ? "float" : "int";
}

std::string varName(const ArithExpr &V) { return V.getVarName(); }

std::string printIndex(const AExpr &E) { return renderIndex(E, varName); }

class Printer {
public:
  explicit Printer(const Kernel &K) : K(K) {}

  std::string print() {
    OS << "// Generated by liftcpp (CGO'18 Lift stencil reproduction)\n\n";
    OS << indexHelpers("", "int") << "\n";
    for (const UserFunPtr &UF : K.UserFuns)
      OS << UF->toOpenCL() << "\n";
    if (!K.UserFuns.empty())
      OS << "\n";

    OS << "kernel void " << K.Name << "(";
    bool First = true;
    for (const BufferDecl &B : K.Buffers) {
      if (B.Space != MemSpace::Global)
        continue;
      if (!First)
        OS << ", ";
      First = false;
      OS << "global " << scalarCType(B.ElemKind) << "* restrict " << B.Name;
    }
    for (const auto &[Id, Name] : K.SizeArgs) {
      (void)Id;
      if (!First)
        OS << ", ";
      First = false;
      OS << "int " << Name;
    }
    OS << ") {\n";
    Indent = 1;

    for (const BufferDecl &B : K.Buffers) {
      if (B.Space == MemSpace::Local)
        line("local " + std::string(scalarCType(B.ElemKind)) + " " + B.Name +
             "[" + printIndex(B.NumElems) + "];");
      else if (B.Space == MemSpace::Private)
        line(std::string(scalarCType(B.ElemKind)) + " " + B.Name + "[" +
             printIndex(B.NumElems) + "];");
    }
    for (const RegisterDecl &R : K.Registers)
      line(std::string(scalarCType(R.Kind)) + " " + R.Name + ";");

    printStmts(K.Body);
    Indent = 0;
    OS << "}\n";
    return OS.str();
  }

private:
  const Kernel &K;
  std::ostringstream OS;
  int Indent = 0;

  void line(const std::string &S) {
    for (int I = 0; I != Indent; ++I)
      OS << "  ";
    OS << S << "\n";
  }

  void printStmts(const std::vector<StmtPtr> &Stmts) {
    for (const StmtPtr &S : Stmts)
      printStmt(*S);
  }

  void printStmt(const Stmt &S) {
    switch (S.K) {
    case Stmt::Kind::Store:
      line(K.buffer(S.BufferId).Name + "[" + printIndex(S.Index) + "] = " +
           printExpr(*S.Value) + ";");
      return;
    case Stmt::Kind::AssignVar:
      line(K.Registers[std::size_t(S.VarId)].Name + " = " +
           printExpr(*S.Value) + ";");
      return;
    case Stmt::Kind::Barrier:
      line("barrier(CLK_LOCAL_MEM_FENCE);");
      return;
    case Stmt::Kind::Loop: {
      std::string V = S.LoopVar->getVarName();
      std::string N = printIndex(S.Count);
      std::string Init, Stride;
      switch (S.LK) {
      case LoopKind::Seq:
        Init = "0";
        Stride = "1";
        break;
      case LoopKind::Glb:
        Init = "get_global_id(" + std::to_string(S.Dim) + ")";
        Stride = "get_global_size(" + std::to_string(S.Dim) + ")";
        break;
      case LoopKind::Wrg:
        Init = "get_group_id(" + std::to_string(S.Dim) + ")";
        Stride = "get_num_groups(" + std::to_string(S.Dim) + ")";
        break;
      case LoopKind::Lcl:
        Init = "get_local_id(" + std::to_string(S.Dim) + ")";
        Stride = "get_local_size(" + std::to_string(S.Dim) + ")";
        break;
      }
      if (S.Unroll)
        line("#pragma unroll");
      line("for (int " + V + " = " + Init + "; " + V + " < " + N + "; " + V +
           " += " + Stride + ") {");
      ++Indent;
      printStmts(S.Body);
      --Indent;
      line("}");
      return;
    }
    }
    unreachable("covered switch");
  }

  std::string printExpr(const KExpr &E) {
    switch (E.K) {
    case KExpr::Kind::ConstScalar:
      if (E.Const.K == ScalarKind::Float) {
        std::ostringstream SS;
        SS << E.Const.F;
        std::string S = SS.str();
        if (S.find('.') == std::string::npos &&
            S.find('e') == std::string::npos)
          S += ".0";
        return S + "f";
      }
      return std::to_string(E.Const.I);
    case KExpr::Kind::IndexVal:
      return printIndex(E.Index);
    case KExpr::Kind::ReadVar:
      return K.Registers[std::size_t(E.VarId)].Name;
    case KExpr::Kind::Load:
      return K.buffer(E.BufferId).Name + "[" + printIndex(E.Index) + "]";
    case KExpr::Kind::CallUF: {
      std::string S = E.UF->getName() + "(";
      for (std::size_t I = 0, N = E.Args.size(); I != N; ++I) {
        if (I != 0)
          S += ", ";
        S += printExpr(*E.Args[I]);
      }
      return S + ")";
    }
    case KExpr::Kind::Select: {
      std::string Cond;
      for (std::size_t I = 0, N = E.Checks.size(); I != N; ++I) {
        const BoundsCheck &C = E.Checks[I];
        if (I != 0)
          Cond += " && ";
        std::string Idx = printIndex(C.Idx);
        Cond += "(" + Idx + " >= " + printIndex(C.Lo) + " && " + Idx + " < " +
                printIndex(C.Hi) + ")";
      }
      return "((" + Cond + ") ? " + printExpr(*E.Then) + " : " +
             printExpr(*E.Else) + ")";
    }
    }
    unreachable("covered switch");
  }
};

} // namespace

std::string lift::ocl::renderIndex(
    const AExpr &E,
    const std::function<std::string(const ArithExpr &Var)> &VarName) {
  switch (E->getKind()) {
  case ArithExpr::Kind::Cst:
    return std::to_string(E->getCst());
  case ArithExpr::Kind::Var:
    return VarName(*E);
  case ArithExpr::Kind::Add:
  case ArithExpr::Kind::Mul: {
    const char *Op = E->getKind() == ArithExpr::Kind::Add ? " + " : " * ";
    std::string S = "(";
    const std::vector<AExpr> &Ops = E->getOperands();
    for (std::size_t I = 0; I != Ops.size(); ++I) {
      if (I)
        S += Op;
      S += renderIndex(Ops[I], VarName);
    }
    return S + ")";
  }
  case ArithExpr::Kind::Div:
  case ArithExpr::Kind::Mod:
  case ArithExpr::Kind::Min:
  case ArithExpr::Kind::Max: {
    const char *Fn = E->getKind() == ArithExpr::Kind::Div   ? "lift_fdiv"
                     : E->getKind() == ArithExpr::Kind::Mod ? "lift_fmod"
                     : E->getKind() == ArithExpr::Kind::Min ? "lift_min"
                                                            : "lift_max";
    return std::string(Fn) + "(" + renderIndex(E->getOperands()[0], VarName) +
           ", " + renderIndex(E->getOperands()[1], VarName) + ")";
  }
  }
  unreachable("covered switch");
}

std::string lift::ocl::indexHelpers(const std::string &Qualifiers,
                                    const std::string &IntType) {
  std::string Out;
  auto Helper = [&](const char *Name, const std::string &Body) {
    Out += Qualifiers + IntType + " " + Name + "(" + IntType + " a, " +
           IntType + " b) {\n" + Body + "}\n";
  };
  Helper("lift_fdiv", "  " + IntType + " q = a / b;\n"
                      "  if ((a % b != 0) && ((a < 0) != (b < 0)))\n"
                      "    --q;\n"
                      "  return q;\n");
  Helper("lift_fmod", "  return a - lift_fdiv(a, b) * b;\n");
  Helper("lift_min", "  return a < b ? a : b;\n");
  Helper("lift_max", "  return a > b ? a : b;\n");
  return Out;
}

std::string lift::ocl::emitOpenCL(const Kernel &K) {
  Printer P(K);
  return P.print();
}
