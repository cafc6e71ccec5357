//===- KernelWalkTest.cpp - The kernel-AST traversal ----------------------===//
//
// Part of the liftcpp project.
//
// Checks walkKernel on a hand-built kernel that holds every node kind:
// the pre-order visit order (a statement before its value, a loop
// before its body, a Select's then-branch before its else-branch) and
// the context handed to each visit (enclosing loops, the guards of
// enclosing then-branches, whether the node is under an else-branch).
//
//===----------------------------------------------------------------------===//

#include "ocl/KernelAst.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

using namespace lift;
using namespace lift::ocl;

namespace {

/// One visit, flattened: what was visited and the context it saw.
struct Visit {
  std::string Node;   ///< node kind plus a distinguishing detail
  std::string Loops;  ///< enclosing loop variable names, outermost first
  std::string Guards; ///< guard index expressions, outermost first
  bool InElse = false;

  bool operator==(const Visit &O) const {
    return Node == O.Node && Loops == O.Loops && Guards == O.Guards &&
           InElse == O.InElse;
  }
};

std::ostream &operator<<(std::ostream &OS, const Visit &V) {
  return OS << V.Node << " loops[" << V.Loops << "] guards[" << V.Guards
            << "]" << (V.InElse ? " else" : "");
}

Visit flatten(std::string Node, const WalkContext &C) {
  Visit V{std::move(Node), "", "", C.InElse};
  for (const Stmt *L : C.Loops)
    V.Loops += (V.Loops.empty() ? "" : " ") + L->LoopVar->getVarName();
  for (const BoundsCheck *G : C.Guards)
    V.Guards += (V.Guards.empty() ? "" : " ") + G->Idx->toString();
  return V;
}

std::string stmtName(const Stmt &S) {
  switch (S.K) {
  case Stmt::Kind::Store:
    return "store";
  case Stmt::Kind::AssignVar:
    return "assign";
  case Stmt::Kind::Loop:
    return "loop " + S.LoopVar->getVarName();
  case Stmt::Kind::Barrier:
    return "barrier";
  }
  return "?";
}

std::string exprName(const KExpr &E) {
  switch (E.K) {
  case KExpr::Kind::ConstScalar:
    return "const";
  case KExpr::Kind::IndexVal:
    return "index";
  case KExpr::Kind::ReadVar:
    return "read";
  case KExpr::Kind::Load:
    return "load " + E.Index->toString();
  case KExpr::Kind::CallUF:
    return "call";
  case KExpr::Kind::Select:
    return "select " + E.Checks.front().Idx->toString();
  }
  return "?";
}

/// for i < n (Glb):
///   r = 0
///   for j < 3 (Seq):
///     out[i] = add(in[j], i in bounds ? in[i]
///                                     : (j in bounds ? in[j] : 0))
///   barrier
std::vector<StmtPtr> sampleBody() {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i");
  AExpr J = var("j");
  KExprPtr Inner =
      kSelect({{J, cst(0), N}}, kLoad(0, J), kConst(ir::Scalar(0.0f)));
  KExprPtr Outer = kSelect({{I, cst(0), N}}, kLoad(0, I), Inner);
  KExprPtr Value = kCallUF(ir::ufAddFloat(), {kLoad(0, J), Outer});
  return {sLoop(LoopKind::Glb, 0, I, N,
                {sAssign(0, kConst(ir::Scalar(0.0f))),
                 sLoop(LoopKind::Seq, 0, J, cst(3), {sStore(1, I, Value)}),
                 sBarrier()})};
}

TEST(KernelWalk, PreOrderWithContext) {
  std::vector<StmtPtr> Body = sampleBody();
  std::vector<Visit> Got;
  walkKernel(
      Body,
      [&](const Stmt &S, const WalkContext &C) {
        Got.push_back(flatten(stmtName(S), C));
      },
      [&](const KExpr &E, const WalkContext &C) {
        Got.push_back(flatten(exprName(E), C));
      });
  const std::vector<Visit> Want = {
      {"loop i", "", "", false},
      {"assign", "i", "", false},
      {"const", "i", "", false},
      {"loop j", "i", "", false},
      {"store", "i j", "", false},
      {"call", "i j", "", false},
      {"load j", "i j", "", false},
      {"select i", "i j", "", false},
      {"load i", "i j", "i", false},
      {"select j", "i j", "", true},
      {"load j", "i j", "j", true},
      {"const", "i j", "", true},
      {"barrier", "i", "", false},
  };
  ASSERT_EQ(Got.size(), Want.size());
  for (std::size_t K = 0; K != Want.size(); ++K)
    EXPECT_EQ(Got[K], Want[K]) << "visit " << K;
}

TEST(KernelWalk, StatementsOnlyWithoutExprVisitor) {
  std::vector<StmtPtr> Body = sampleBody();
  std::vector<std::string> Got;
  walkKernel(Body, [&](const Stmt &S, const WalkContext &C) {
    EXPECT_TRUE(C.Guards.empty());
    EXPECT_FALSE(C.InElse);
    Got.push_back(stmtName(S));
  });
  EXPECT_EQ(Got, (std::vector<std::string>{"loop i", "assign", "loop j",
                                           "store", "barrier"}));
}

} // namespace
