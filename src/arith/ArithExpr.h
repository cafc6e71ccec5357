//===- ArithExpr.h - Symbolic integer arithmetic ---------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic integer arithmetic expressions.
///
/// Lift array types carry their sizes symbolically (e.g. an array of
/// length (n - size + step) / step after `slide`), and the view system
/// compiles data-layout primitives into index expressions over loop
/// variables. Both are represented by ArithExpr: an immutable,
/// simplifying-on-construction expression DAG over 64-bit integers with
/// variables, +, *, floor-division, floor-modulo, min and max.
///
/// All division/modulo uses *floor* semantics (rounding toward negative
/// infinity) so that the rewriting identities used by the simplifier,
/// e.g. (a*c + b) / c == a + b/c for c > 0, hold for all operand signs.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_ARITH_ARITHEXPR_H
#define LIFT_ARITH_ARITHEXPR_H

#include "support/Support.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace lift {

class ArithExpr;

/// Shared handle to an immutable arithmetic expression node.
using AExpr = std::shared_ptr<const ArithExpr>;

/// An (optionally unbounded) inclusive integer interval used for range
/// analysis on arithmetic expressions. Unknown endpoints are nullopt.
struct Range {
  std::optional<std::int64_t> Min;
  std::optional<std::int64_t> Max;

  Range() = default;
  Range(std::int64_t MinVal, std::int64_t MaxVal) : Min(MinVal), Max(MaxVal) {}

  /// Returns true when both endpoints are known.
  bool isBounded() const { return Min.has_value() && Max.has_value(); }

  /// Returns true when the whole interval is >= \p V.
  bool atLeast(std::int64_t V) const { return Min && *Min >= V; }

  /// Returns true when the whole interval is <= \p V.
  bool atMost(std::int64_t V) const { return Max && *Max <= V; }

  bool operator==(const Range &) const = default;
};

/// An immutable symbolic integer expression.
///
/// Nodes are created through the simplifying factory functions (cst, var,
/// add, mul, floorDiv, floorMod, amin, amax) which maintain a canonical
/// sum-of-products normal form: Add nodes are flat sums of non-Add terms
/// with like terms merged; Mul nodes are flat products with a leading
/// constant and deterministically ordered symbolic factors.
///
/// Canonical nodes are hash-consed in an ArithCtx arena (ArithCtx.h):
/// structurally equal expressions built through the factories are
/// pointer-equal, structural hashes are precomputed at construction,
/// and range analysis memoizes per node.
class ArithExpr {
public:
  enum class Kind {
    Cst, ///< Integer literal.
    Var, ///< Named variable with a unique id and optional range.
    Add, ///< N-ary sum.
    Mul, ///< N-ary product.
    Div, ///< Binary floor division.
    Mod, ///< Binary floor modulo.
    Min, ///< Binary minimum.
    Max, ///< Binary maximum.
  };

  Kind getKind() const { return K; }

  /// Literal value; only valid on Cst nodes.
  std::int64_t getCst() const;

  /// Variable name; only valid on Var nodes.
  const std::string &getVarName() const;

  /// Unique variable id; only valid on Var nodes.
  unsigned getVarId() const;

  /// Declared range of a Var node; only valid on Var nodes.
  const Range &getVarRange() const;

  /// Operand list; empty for Cst/Var.
  const std::vector<AExpr> &getOperands() const { return Operands; }

  /// Returns true if this is the literal \p V.
  bool isCst(std::int64_t V) const {
    return K == Kind::Cst && CstVal == V;
  }

  /// Computes a conservative value interval via interval analysis.
  /// The result is memoized on the node (nodes are immutable, so the
  /// interval is a pure function of identity).
  Range getRange() const;

  /// Concrete variable bindings keyed by variable id.
  using Env = std::unordered_map<unsigned, std::int64_t>;

  /// Evaluates with concrete variable bindings (floor semantics for
  /// division and modulo); nullopt when a variable is unbound or a
  /// divisor is zero.
  std::optional<std::int64_t> tryEvaluate(const Env &Bindings) const;

  /// tryEvaluate for callers that know every variable is bound: an
  /// unbound variable or a zero divisor is a fatal error.
  std::int64_t evaluate(const Env &Bindings) const;

  /// Renders a human-readable form, also valid as C/OpenCL source for
  /// expressions whose division operands are non-negative.
  std::string toString() const;

  /// Structural hash, consistent with compareExprs equality. Computed
  /// once at construction and cached, so this is O(1).
  std::size_t hash() const { return HashVal; }

  // Factories are friends so the constructor can stay private and all
  // nodes are guaranteed to be simplified.
  friend AExpr makeNode(Kind K, std::int64_t CstVal, std::string VarName,
                        unsigned VarId, Range VarRange,
                        std::vector<AExpr> Operands);

  // The hash-consing arena allocates nodes and fills in the cached
  // structural hash before publishing them.
  friend class ArithCtx;

private:
  ArithExpr() = default;

  /// The uncached interval computation behind getRange().
  Range computeRange() const;

  Kind K = Kind::Cst;
  std::int64_t CstVal = 0;
  std::string VarName;
  unsigned VarId = 0;
  Range VarRange;
  std::vector<AExpr> Operands;
  std::size_t HashVal = 0;

  // Range-analysis memo (see getRange). Thread-safe publication: the
  // flag is set with release ordering after CachedRange is written
  // under a striped mutex (see ArithExpr.cpp); readers acquire-load the
  // flag before touching CachedRange.
  mutable Range CachedRange;
  mutable std::atomic<bool> RangeCached{false};
};

/// Total structural order over expressions; returns <0, 0, >0.
/// Equal expressions (0) are semantically identical.
int compareExprs(const AExpr &A, const AExpr &B);

/// Structural equality (compareExprs == 0). O(1) for interned nodes:
/// hash-consing makes structural equality coincide with pointer
/// equality, and a hash mismatch settles inequality without a walk.
bool exprEquals(const AExpr &A, const AExpr &B);

//===----------------------------------------------------------------------===//
// Simplifying factory functions
//===----------------------------------------------------------------------===//

/// Creates an integer literal.
AExpr cst(std::int64_t V);

/// Creates a fresh variable with a process-unique id.
/// \p R declares the values the variable may take; size variables are
/// typically given Range(1, HUGE) and index variables [0, n-1].
AExpr var(std::string Name, Range R = Range());

/// Sum; flattens, folds constants and merges like terms.
AExpr add(AExpr A, AExpr B);

/// Difference (A + (-1) * B).
AExpr sub(AExpr A, AExpr B);

/// Product; flattens, folds constants and distributes over sums.
AExpr mul(AExpr A, AExpr B);

/// Floor division. Simplifies exactly-divisible sums term-wise.
AExpr floorDiv(AExpr A, AExpr B);

/// Floor modulo; the result lies in [0, B) for positive B.
AExpr floorMod(AExpr A, AExpr B);

/// Minimum of two expressions.
AExpr amin(AExpr A, AExpr B);

/// Maximum of two expressions.
AExpr amax(AExpr A, AExpr B);

/// max(0, min(I, N-1)): the `clamp` boundary index function from the
/// paper (Section 3.2).
AExpr clampIndex(AExpr I, AExpr N);

/// A fresh node of kind \p K (not Cst or Var) over \p Ops, built
/// through the simplifying factories: Add and Mul fold \p Ops in order
/// from cst(0) and cst(1), Div/Mod/Min/Max call floorDiv, floorMod,
/// amin and amax.
AExpr rebuildNode(ArithExpr::Kind K, const std::vector<AExpr> &Ops);

/// The one bottom-up rebuild of \p E. Each distinct node is visited
/// once (memoized on node identity, so subtrees shared via interning
/// are rewritten once), operands first. \p Hook(Node, Ops) sees the
/// original node with its rebuilt operands (none for Cst/Var) and may
/// return a replacement; a null result keeps the default, which is the
/// leaf itself or rebuildNode(Node's kind, Ops).
template <typename HookFn> AExpr rebuild(const AExpr &E, HookFn &&Hook) {
  std::unordered_map<const ArithExpr *, AExpr> Memo;
  auto Rec = [&](auto &Self, const AExpr &N) -> AExpr {
    if (N->getOperands().empty()) {
      AExpr Out = Hook(N, N->getOperands());
      return Out ? Out : N;
    }
    auto It = Memo.find(N.get());
    if (It != Memo.end())
      return It->second;
    std::vector<AExpr> Ops;
    Ops.reserve(N->getOperands().size());
    for (const AExpr &Op : N->getOperands())
      Ops.push_back(Self(Self, Op));
    AExpr Out = Hook(N, Ops);
    if (!Out)
      Out = rebuildNode(N->getKind(), Ops);
    Memo.emplace(N.get(), Out);
    return Out;
  };
  return Rec(Rec, E);
}

/// Replaces variables (by id) with expressions, re-simplifying (a
/// rebuild whose hook looks up Var nodes).
AExpr substitute(const AExpr &E,
                 const std::unordered_map<unsigned, AExpr> &Subst);

/// Collects the ids of all variables occurring in \p E into \p Out.
void collectVars(const AExpr &E, std::vector<unsigned> &Out);

/// True when variable \p VarId occurs in \p E (false for a null \p E).
bool mentionsVar(const AExpr &E, unsigned VarId);

} // namespace lift

#endif // LIFT_ARITH_ARITHEXPR_H
