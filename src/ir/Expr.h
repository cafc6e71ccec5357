//===- Expr.h - Lift IR expressions ----------------------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Lift IR: a small functional language of data-parallel primitives.
///
/// A program is a lambda whose parameters are the input arrays and whose
/// body composes primitives (paper §3.1) plus the two stencil additions
/// `slide` and `pad` (paper §3.2). Higher-order primitives take their
/// function arguments as LambdaExpr nodes; partial applications like
/// `map(f)` are eta-expanded by the builders so every function position
/// holds a lambda. OpenCL-specific low-level primitives (mapGlb, mapWrg,
/// mapLcl, mapSeq, reduceSeq, reduceSeqUnroll, and the address-space
/// wrappers toLocal/toGlobal/toPrivate — represented as an address-space
/// attribute on lambdas) encode implementation choices introduced by the
/// rewrite engine.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_IR_EXPR_H
#define LIFT_IR_EXPR_H

#include "ir/Types.h"
#include "ir/UserFun.h"

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace lift {
namespace ir {

class Expr;
class ParamExpr;
class LambdaExpr;

using ExprPtr = std::shared_ptr<Expr>;
using ParamPtr = std::shared_ptr<ParamExpr>;
using LambdaPtr = std::shared_ptr<LambdaExpr>;

/// Primitive operations callable in the IR.
enum class Prim {
  UserFunCall, ///< scalar computation (paper: userFun)
  // High-level data parallelism (paper §3.1).
  Map,     ///< apply f to each element
  Reduce,  ///< fold with operator and init; result [U]1
  Iterate, ///< apply f m times
  Zip,     ///< n-ary elementwise tupling
  Split,   ///< [T]n -> [[T]m]{n/m}
  Join,    ///< [[T]m]n -> [T]{m*n}
  Transpose,
  At,       ///< constant index into an array
  Get,      ///< constant index into a tuple
  Generate, ///< lazily built array from an index function (paper: array)
  SizeVal,  ///< a symbolic size expression as an int scalar value
  // Stencil extensions (paper §3.2).
  Slide, ///< sliding window: size, step
  Pad,   ///< boundary handling: l, r, boundary function
  // Remainder-tile extensions: the clamped duals of slide/join used by
  // the tiling rule when the tile does not divide the extent. A
  // slideClamp window w starts at min(w*step, n-size), so the last
  // window is a full-width tile shifted left into bounds; joinClamp
  // reassembles the resulting overlapping tile grid, overlap positions
  // being rewritten with identical values (last writer wins).
  SlideClamp, ///< clamped sliding window: size, step
  JoinClamp,  ///< [[T]k]t -> [T]m with clamped tile offsets
  // OpenCL-specific low-level primitives (paper §4, §5).
  MapGlb, ///< map over global work-item ids in dimension Dim
  MapWrg, ///< map over work-group ids in dimension Dim
  MapLcl, ///< map over local work-item ids in dimension Dim
  MapSeq, ///< sequential loop
  ReduceSeq,
  ReduceSeqUnroll, ///< unrolled sequential reduction (paper §4.3)
};

/// Number of primitives: ReduceSeqUnroll must stay the last enumerator.
/// The primitive table (Expr.cpp) holds one row per primitive, in
/// enumerator order; a missing row fails to compile.
constexpr std::size_t NumPrims = std::size_t(Prim::ReduceSeqUnroll) + 1;

/// Returns the printable name of a primitive (e.g. "mapGlb").
const char *primName(Prim P);

/// True for the map family (any of Map, MapGlb, MapWrg, MapLcl, MapSeq).
bool isMapPrim(Prim P);

/// True for Reduce, ReduceSeq and ReduceSeqUnroll.
bool isReducePrim(Prim P);

/// True for the layout family: zip, split, join, transpose, slide,
/// slideClamp, joinClamp, pad, at, get and generate only rearrange (or
/// lazily produce) data, so the view system resolves them without
/// computing anything.
bool isLayoutPrim(Prim P);

/// Boundary handling strategies for `pad` (paper §3.2). Clamp/Mirror/
/// Wrap reindex into the array; Constant appends a fixed value.
struct Boundary {
  enum class Kind { Clamp, Mirror, Wrap, Constant };
  Kind K = Kind::Clamp;
  float ConstVal = 0.0f;

  static Boundary clamp() { return Boundary{Kind::Clamp, 0.0f}; }
  static Boundary mirror() { return Boundary{Kind::Mirror, 0.0f}; }
  static Boundary wrap() { return Boundary{Kind::Wrap, 0.0f}; }
  static Boundary constant(float V) { return Boundary{Kind::Constant, V}; }
};

/// The printed form of a boundary: "clamp", "mirror", "wrap" or
/// "constant(<value>)".
std::string toString(const Boundary &B);

/// Resolves an out-of-range index \p I into [0, N) for a reindexing
/// boundary (Clamp/Mirror/Wrap). This is the single source of truth for
/// boundary semantics: the interpreter and the NDRange simulator call it
/// directly and the view system emits the equivalent symbolic formula
/// (property-tested against this function). Constant boundaries do not
/// reindex and must not be passed here.
std::int64_t resolveBoundaryIndex(Boundary::Kind K, std::int64_t I,
                                  std::int64_t N);

/// OpenCL address spaces; attached to lambdas by toLocal/toGlobal/
/// toPrivate to direct where the lambda's result is written (paper §4.2).
enum class AddrSpace { Default, Global, Local, Private };

/// Base class of all IR expressions. The type field is filled in by
/// TypeInference and is null before inference ran.
class Expr {
public:
  enum class Kind { Literal, Param, Lambda, Call };

  virtual ~Expr();

  Kind getKind() const { return EK; }

  /// The inferred type; null before inference.
  const TypePtr &getType() const { return Ty; }
  void setType(TypePtr T) { Ty = std::move(T); }

protected:
  explicit Expr(Kind K) : EK(K) {}

private:
  Kind EK;
  TypePtr Ty;
};

/// A scalar literal.
class LiteralExpr : public Expr {
public:
  explicit LiteralExpr(Scalar V) : Expr(Kind::Literal), Val(V) {}

  Scalar getValue() const { return Val; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Literal; }

private:
  Scalar Val;
};

/// A lambda parameter / program input. Identity (the node address)
/// distinguishes parameters; the name is only for printing.
class ParamExpr : public Expr {
public:
  explicit ParamExpr(std::string Name, TypePtr DeclaredTy = nullptr)
      : Expr(Kind::Param), Name(std::move(Name)),
        DeclaredTy(std::move(DeclaredTy)) {}

  const std::string &getName() const { return Name; }

  /// Declared type for program inputs; null for lambda-bound params
  /// whose type comes from the call site.
  const TypePtr &getDeclaredType() const { return DeclaredTy; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Param; }

private:
  std::string Name;
  TypePtr DeclaredTy;
};

/// An anonymous function. Carries the address-space attribute set by
/// toLocal/toGlobal/toPrivate.
class LambdaExpr : public Expr {
public:
  LambdaExpr(std::vector<ParamPtr> Params, ExprPtr Body,
             AddrSpace Space = AddrSpace::Default)
      : Expr(Kind::Lambda), Params(std::move(Params)), Body(std::move(Body)),
        Space(Space) {}

  const std::vector<ParamPtr> &getParams() const { return Params; }
  const ExprPtr &getBody() const { return Body; }
  AddrSpace getAddrSpace() const { return Space; }

  /// Program roots only: the values of each size variable (by
  /// ArithExpr var id) the program is valid for, within its declared
  /// range, where rewrite::lowerStencil narrowed them. Lowered for a
  /// grid, a size its output extents determine is that single value;
  /// a clamped tiling that keeps an output dimension `v + c` symbolic
  /// needs the dimension to hold a whole tile, so v >= TileOutputs - c.
  /// Code generation copies it into the kernel's size arguments
  /// (ocl::SizeArg::Valid).
  std::unordered_map<unsigned, Range> SizeRanges;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Lambda; }

private:
  std::vector<ParamPtr> Params;
  ExprPtr Body;
  AddrSpace Space;
};

/// A primitive application. Numeric/structural payloads (split factor,
/// slide size/step, pad amounts, tuple index, ...) live in the node;
/// expression arguments (function lambdas first, then data) in Args.
class CallExpr : public Expr {
public:
  CallExpr(Prim P, std::vector<ExprPtr> Args)
      : Expr(Kind::Call), P(P), Args(std::move(Args)) {}

  Prim getPrim() const { return P; }
  const std::vector<ExprPtr> &getArgs() const { return Args; }
  void setArg(std::size_t I, ExprPtr E) { Args[I] = std::move(E); }

  /// A fresh call of the same primitive and payload over \p NewArgs.
  /// The one place the payload is copied: every tree rebuild (cloning,
  /// rule application, lowering) goes through it.
  std::shared_ptr<CallExpr> withArgs(std::vector<ExprPtr> NewArgs) const;

  // Payload accessors; validity depends on the primitive.
  UserFunPtr UF;             ///< UserFunCall
  int Dim = 0;               ///< MapGlb/MapWrg/MapLcl dimension (0..2)
  AExpr Factor;              ///< Split chunk size
  AExpr Size, Step;          ///< Slide window size and step
  AExpr PadL, PadR;          ///< Pad amounts
  Boundary Bdy;              ///< Pad boundary handling
  int Index = 0;             ///< At / Get constant index
  int IterCount = 1;         ///< Iterate repetition count
  std::vector<AExpr> GenSizes; ///< Generate dimension sizes

  static bool classof(const Expr *E) { return E->getKind() == Kind::Call; }

private:
  Prim P;
  std::vector<ExprPtr> Args;
};

/// The payload walk: calls \p F with a pointer to each payload member a
/// call of \p P carries, in printing order. Structural hashing, structural
/// equality and the printer are its visitors, so a primitive's payload is
/// listed here once.
template <typename Fn> void forEachPayload(Prim P, Fn &&F) {
  switch (P) {
  case Prim::UserFunCall:
    F(&CallExpr::UF);
    return;
  case Prim::MapGlb:
  case Prim::MapWrg:
  case Prim::MapLcl:
    F(&CallExpr::Dim);
    return;
  case Prim::Split:
    F(&CallExpr::Factor);
    return;
  case Prim::Slide:
  case Prim::SlideClamp:
    F(&CallExpr::Size);
    F(&CallExpr::Step);
    return;
  case Prim::JoinClamp:
  case Prim::SizeVal:
    F(&CallExpr::Size);
    return;
  case Prim::Pad:
    F(&CallExpr::PadL);
    F(&CallExpr::PadR);
    F(&CallExpr::Bdy);
    return;
  case Prim::At:
  case Prim::Get:
    F(&CallExpr::Index);
    return;
  case Prim::Iterate:
    F(&CallExpr::IterCount);
    return;
  case Prim::Generate:
    F(&CallExpr::GenSizes);
    return;
  case Prim::Map:
  case Prim::Reduce:
  case Prim::Zip:
  case Prim::Join:
  case Prim::Transpose:
  case Prim::MapSeq:
  case Prim::ReduceSeq:
  case Prim::ReduceSeqUnroll:
    return;
  }
}

/// dyn_cast-style helpers (LLVM-style kind dispatch, no RTTI).
template <typename T> T *dynCast(Expr *E) {
  return (E && T::classof(E)) ? static_cast<T *>(E) : nullptr;
}
template <typename T> const T *dynCast(const Expr *E) {
  return (E && T::classof(E)) ? static_cast<const T *>(E) : nullptr;
}
template <typename T> T *dynCast(const ExprPtr &E) { return dynCast<T>(E.get()); }

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

/// Float literal.
ExprPtr lit(float V);
/// Int literal.
ExprPtr litInt(std::int32_t V);
/// Fresh parameter.
ParamPtr param(std::string Name, TypePtr DeclaredTy = nullptr);

/// Lambda from explicit parameter list and body.
LambdaPtr lambda(std::vector<ParamPtr> Params, ExprPtr Body,
                 AddrSpace Space = AddrSpace::Default);

/// One-parameter lambda built from a C++ body builder.
LambdaPtr lam(const std::string &ParamName,
              const std::function<ExprPtr(ExprPtr)> &BuildBody);

/// Two-parameter lambda built from a C++ body builder.
LambdaPtr lam2(const std::string &P0, const std::string &P1,
               const std::function<ExprPtr(ExprPtr, ExprPtr)> &BuildBody);

/// Eta-expands a user function into a lambda: \x0..xk -> uf(x0..xk).
LambdaPtr etaLambda(const UserFunPtr &UF);

/// Scalar user-function application.
ExprPtr apply(const UserFunPtr &UF, std::vector<ExprPtr> Args);

/// map(f, in) — data-parallel application (paper §3.1).
ExprPtr map(LambdaPtr F, ExprPtr In);
/// OpenCL-mapped variants over global / work-group / local ids.
ExprPtr mapGlb(int Dim, LambdaPtr F, ExprPtr In);
ExprPtr mapWrg(int Dim, LambdaPtr F, ExprPtr In);
ExprPtr mapLcl(int Dim, LambdaPtr F, ExprPtr In);
/// Sequential map (a loop inside one work-item).
ExprPtr mapSeq(LambdaPtr F, ExprPtr In);
/// Rebuilds a map-family call with the same lowering but new operands.
ExprPtr makeMapLike(Prim P, int Dim, LambdaPtr F, ExprPtr In);

/// reduce(f, init, in) — result is the singleton array [U]1.
ExprPtr reduce(LambdaPtr F, ExprPtr Init, ExprPtr In);
ExprPtr reduceSeq(LambdaPtr F, ExprPtr Init, ExprPtr In);
ExprPtr reduceSeqUnroll(LambdaPtr F, ExprPtr Init, ExprPtr In);
/// Rebuilds a reduce-family call with new operands.
ExprPtr makeReduceLike(Prim P, LambdaPtr F, ExprPtr Init, ExprPtr In);

/// iterate(m, f, in) — applies f m times (paper §3.1).
ExprPtr iterate(int Count, LambdaPtr F, ExprPtr In);

/// zip of 2..4 equal-length arrays into an array of tuples.
ExprPtr zip(std::vector<ExprPtr> Ins);
ExprPtr zip(ExprPtr A, ExprPtr B);
ExprPtr zip3(ExprPtr A, ExprPtr B, ExprPtr C);

ExprPtr split(AExpr ChunkSize, ExprPtr In);
ExprPtr join(ExprPtr In);
ExprPtr transpose(ExprPtr In);

/// slide(size, step, in) — neighborhood creation (paper §3.2).
ExprPtr slide(AExpr Size, AExpr Step, ExprPtr In);
/// slideClamp(size, step, in) — like slide, but covers the whole input:
/// produces ceil((n - size) / step) + 1 windows whose starts are
/// clamped to min(w * step, n - size). Identical to slide when step
/// divides n - size. Used by the tiling rule for remainder tiles.
ExprPtr slideClamp(AExpr Size, AExpr Step, ExprPtr In);
/// joinClamp(m, in) — merges [[T]k]t into [T]m, tile w's element j
/// landing at min(w * k, m - k) + j. The inverse of slideClamp(k, k)
/// over an array of length m; requires t = ceil(m / k) and k <= m.
/// Overlapping positions are written more than once with equal values.
ExprPtr joinClamp(AExpr OutLen, ExprPtr In);
/// pad(l, r, boundary, in) — boundary handling (paper §3.2).
ExprPtr pad(AExpr L, AExpr R, Boundary B, ExprPtr In);

/// in[i] with constant i (paper: at; written in[3]).
ExprPtr at(int Index, ExprPtr In);
/// tuple component access (paper: get; written in.2).
ExprPtr get(int Index, ExprPtr In);

/// generate(sizes, f) — lazily built array; f takes one int index per
/// dimension (paper: array constructor, used e.g. for the acoustic mask).
ExprPtr generate(std::vector<AExpr> Sizes, LambdaPtr F);

/// The value of a symbolic size expression as an int scalar (used by
/// generators that need grid extents, e.g. the acoustic benchmark's
/// neighbor-count mask).
ExprPtr sizeVal(AExpr Size);

/// Address-space wrappers: return a copy of \p F writing its result to
/// the given space (paper §4.2).
LambdaPtr toLocal(const LambdaPtr &F);
LambdaPtr toGlobal(const LambdaPtr &F);
LambdaPtr toPrivate(const LambdaPtr &F);

//===----------------------------------------------------------------------===//
// Programs and utilities
//===----------------------------------------------------------------------===//

/// A whole program: a top-level lambda whose parameters carry declared
/// types (the input arrays).
using Program = LambdaPtr;

/// Builds a program; all parameters must have declared types.
Program makeProgram(std::vector<ParamPtr> Inputs, ExprPtr Body);

/// Deep-copies an expression tree. Lambda parameters are replaced by
/// fresh ParamExprs and references remapped, so the clone shares no
/// mutable state with the original. Free parameter references (program
/// inputs) are preserved.
ExprPtr deepClone(const ExprPtr &E);

/// Deep-copies a program including its input parameters and size
/// bindings.
Program cloneProgram(const Program &P);

/// Deep-copies \p E replacing occurrences of the given parameters by
/// the corresponding expressions (beta reduction). Replacement
/// expressions are inserted as-is (shared), other lambda parameters are
/// freshened as in deepClone.
ExprPtr substituteParams(
    const ExprPtr &E,
    const std::unordered_map<const ParamExpr *, ExprPtr> &Subst);

/// Applies \p F to \p Args by substituting parameters into a clone of
/// the body.
ExprPtr betaReduce(const LambdaPtr &F, const std::vector<ExprPtr> &Args);

/// True when \p E consists only of parameters, layout primitives and
/// maps whose body is itself layout-only (the map(slide) /
/// map(transpose) compositions of slideNd/padNd, paper §3.4), i.e. it
/// can live entirely in the view system.
bool isLayoutOnly(const ExprPtr &E);

/// Renders a compact single-line textual form, e.g.
/// "map(\x0. addF(x0, 1), slide(3, 1, pad(1, 1, clamp, A)))".
std::string toString(const ExprPtr &E);
std::string toString(const Program &P);

} // namespace ir
} // namespace lift

#endif // LIFT_IR_EXPR_H
