//===- KernelAst.h - Imperative kernel AST ---------------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The imperative kernel AST produced by the code generator. It plays
/// the role of Lift's OpenCL AST: one Kernel is (a) pretty-printed to
/// OpenCL C source by the Emitter and (b) executed by the NDRange
/// simulator. Index arithmetic is carried as symbolic ArithExprs over
/// loop variables and size parameters, which the simulator evaluates
/// per iteration and the coalescing analysis differentiates per lane.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_OCL_KERNELAST_H
#define LIFT_OCL_KERNELAST_H

#include "arith/ArithExpr.h"
#include "ir/UserFun.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace lift {
namespace ocl {

/// OpenCL memory spaces for buffers.
enum class MemSpace { Global, Local, Private };

const char *memSpaceName(MemSpace S);

/// A linear buffer of scalars, identified by index into
/// Kernel::Buffers.
struct BufferDecl {
  int Id = -1;
  std::string Name;
  ir::ScalarKind ElemKind = ir::ScalarKind::Float;
  MemSpace Space = MemSpace::Global;
  AExpr NumElems;        ///< symbolic element count
  bool IsInput = false;  ///< bound to a program input
  bool IsOutput = false; ///< the kernel result
};

/// A scalar register (OpenCL: a private variable), identified by index
/// into Kernel::Registers.
struct RegisterDecl {
  int Id = -1;
  std::string Name;
  ir::ScalarKind Kind = ir::ScalarKind::Float;
};

class KExpr;
using KExprPtr = std::shared_ptr<const KExpr>;

/// A conjunction of half-open bounds checks Lo <= Idx < Hi, used by
/// Select for constant-padding: out-of-bounds lanes read the constant
/// instead of memory.
struct BoundsCheck {
  AExpr Idx;
  AExpr Lo;
  AExpr Hi;
};

/// A scalar kernel expression.
class KExpr {
public:
  enum class Kind {
    ConstScalar, ///< literal float/int
    IndexVal,    ///< value of an index expression as an int scalar
    ReadVar,     ///< read a register
    Load,        ///< buf[idx]
    CallUF,      ///< user function application
    Select,      ///< bounds-checked choice (constant pad)
  };

  Kind K = Kind::ConstScalar;
  ir::Scalar Const;                ///< ConstScalar
  AExpr Index;                     ///< IndexVal / Load index
  int VarId = -1;                  ///< ReadVar
  int BufferId = -1;               ///< Load
  ir::UserFunPtr UF;               ///< CallUF
  std::vector<KExprPtr> Args;      ///< CallUF arguments
  std::vector<BoundsCheck> Checks; ///< Select condition (conjunction)
  KExprPtr Then, Else;             ///< Select branches
};

KExprPtr kConst(ir::Scalar V);
KExprPtr kIndexVal(AExpr E);
KExprPtr kReadVar(int VarId);
KExprPtr kLoad(int BufferId, AExpr Index);
KExprPtr kCallUF(ir::UserFunPtr UF, std::vector<KExprPtr> Args);
KExprPtr kSelect(std::vector<BoundsCheck> Checks, KExprPtr Then,
                 KExprPtr Else);

class Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;

/// How a loop's iteration space maps onto the NDRange.
enum class LoopKind {
  Seq, ///< plain sequential loop inside one work-item
  Glb, ///< iterations distributed over global work-item ids (dim Dim)
  Wrg, ///< iterations distributed over work-group ids (dim Dim)
  Lcl, ///< iterations distributed over local work-item ids (dim Dim)
};

const char *loopKindName(LoopKind K);

/// A kernel statement.
class Stmt {
public:
  enum class Kind {
    Store,     ///< buf[idx] = value
    AssignVar, ///< reg = value
    Loop,      ///< for-loop (sequential or NDRange-mapped)
    Barrier,   ///< work-group barrier
  };

  Kind K = Kind::Store;

  // Store / AssignVar
  int BufferId = -1;
  AExpr Index;
  int VarId = -1;
  KExprPtr Value;

  // Loop
  LoopKind LK = LoopKind::Seq;
  int Dim = 0;            ///< NDRange dimension for Glb/Wrg/Lcl
  AExpr LoopVar;          ///< the ArithExpr Var bound per iteration
  AExpr Count;            ///< iteration count (loop runs 0..Count-1)
  bool Unroll = false;    ///< unrolled by the emitter (reduceSeqUnroll)
  /// An edge slab of an interior/edge split (analysis/InteriorSpec.h):
  /// the general path over a loop's first or last halo iterations. The
  /// splitter leaves such a loop and its body as they are, so a second
  /// pass over a specialized kernel changes nothing. Printers ignore it.
  bool EdgeSlab = false;
  std::vector<StmtPtr> Body;
};

StmtPtr sStore(int BufferId, AExpr Index, KExprPtr Value);
StmtPtr sAssign(int VarId, KExprPtr Value);
StmtPtr sLoop(LoopKind LK, int Dim, AExpr LoopVar, AExpr Count,
              std::vector<StmtPtr> Body, bool Unroll = false);
StmtPtr sBarrier();

/// A size variable the kernel reads: emitted as an int kernel argument
/// in OpenCL and read from `lift_sizes` by the native entry.
struct SizeArg {
  unsigned VarId = 0;
  std::string Name;
  /// The values the kernel is valid for, when the lowering narrowed
  /// them (ir::LambdaExpr::SizeRanges). The symbolic bounds checker
  /// assumes it, and the simulator and the native runner refuse a
  /// value outside it. The C dialect prints a single value as a
  /// constant; the OpenCL text does not change.
  std::optional<Range> Valid = std::nullopt;

  /// The one value Valid allows, if it allows exactly one.
  std::optional<std::int64_t> bound() const;
  /// Why kernel \p KernelName cannot run with this size at \p Value;
  /// empty when it can.
  std::string refusal(const std::string &KernelName,
                      std::int64_t Value) const;
};

/// A complete kernel: declarations plus a statement list. The NDRange
/// shape is implicit in the loop structure (Glb/Wrg/Lcl loop counts);
/// the launch configuration (work-group sizes) is supplied separately
/// at execution time and only affects the device timing model.
struct Kernel {
  std::string Name = "kernel_fn";
  std::vector<BufferDecl> Buffers;
  std::vector<RegisterDecl> Registers;
  std::vector<StmtPtr> Body;
  /// Size variables that must be bound at launch, in argument order.
  std::vector<SizeArg> SizeArgs;
  /// User functions referenced by the body (for emission).
  std::vector<ir::UserFunPtr> UserFuns;

  int outputBufferId() const;
  const BufferDecl &buffer(int Id) const { return Buffers[std::size_t(Id)]; }

  /// Registers a user function (dedup by pointer identity).
  void noteUserFun(const ir::UserFunPtr &UF);
};

/// Where a visited node sits in its kernel. Valid only during the
/// visit.
struct WalkContext {
  /// The loops enclosing the node, outermost first. A loop is not in
  /// its own context.
  std::vector<const Stmt *> Loops;
  /// The bounds checks of every Select whose then-branch encloses the
  /// node: outermost Select first, each Select's checks in order.
  std::vector<const BoundsCheck *> Guards;
  /// True when the node lies under some Select's else-branch.
  bool InElse = false;
};

using StmtVisitor = std::function<void(const Stmt &, const WalkContext &)>;
using ExprVisitor = std::function<void(const KExpr &, const WalkContext &)>;

/// The read-only traversal of the kernel AST, in pre-order: a
/// statement before the value it stores or assigns, a loop before its
/// body, a call before its arguments (in order), a Select before its
/// then-branch and the then-branch before the else-branch. Either
/// visitor may be null; without \p OnExpr no expression is entered.
/// Passes that rebuild the tree (the printer, the simulator's plan
/// compiler, the interior specializer) keep their own recursion.
void walkKernel(const std::vector<StmtPtr> &Body, const StmtVisitor &OnStmt,
                const ExprVisitor &OnExpr = nullptr);

} // namespace ocl
} // namespace lift

#endif // LIFT_OCL_KERNELAST_H
