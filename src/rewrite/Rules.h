//===- Rules.h - Rewrite rules over the Lift IR ----------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rewrite-rule engine: semantics-preserving transformations that
/// define Lift's optimization space (paper §4). Every rule is a partial
/// function on expressions; the engine applies rules at arbitrary
/// positions. The stencil-specific addition is the overlapped-tiling
/// rule (§4.1):
///
///   map(f, slide(size, step, in)) |->
///     join(map(tile => map(f, slide(size, step, tile)),
///              slide(u, v, in)))        with  size - step == u - v
///
/// together with its multi-dimensional generalization, the local-memory
/// rule map(id) -> toLocal(map(id)) (§4.2), loop unrolling via
/// reduceSeqUnroll (§4.3), and Lift's pre-existing rules (map fusion,
/// split-join, sequential lowering) that stencils inherit.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_REWRITE_RULES_H
#define LIFT_REWRITE_RULES_H

#include "ir/Expr.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace lift {
namespace rewrite {

/// A named, semantics-preserving rewrite. Apply returns the rewritten
/// expression when the rule matches at this node, nullptr otherwise.
struct Rule {
  std::string Name;
  std::function<ir::ExprPtr(const ir::ExprPtr &)> Apply;
};

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

/// Applies \p R at each matching position in turn: entry k is \p E with
/// its k-th pre-order match rewritten (a node before its children,
/// children left to right, and a match's own subtree searched too).
/// Unchanged subtrees are shared with \p E, which is not mutated; an
/// empty result means the rule matched nowhere. This one walk is the
/// only source of occurrence numbering: exploration's deterministic
/// order and the fuzzer's (rule, occurrence) replay both index it.
std::vector<ir::ExprPtr> applyEach(const Rule &R, const ir::ExprPtr &E);

/// Applies \p R at every matching position in one bottom-up pass.
/// Returns the (possibly unchanged) rebuilt tree and reports the number
/// of applications through \p Applications.
ir::ExprPtr applyEverywhere(const Rule &R, const ir::ExprPtr &E,
                            int &Applications);

/// Bumps the per-rule "rewrite.rule.apply.<name>" counter in the
/// metrics registry (obs/Metrics.h) by \p N. applyEach already counts
/// its matches under "rewrite.rule.match.<name>"; its callers note an
/// application for each entry they actually use.
void noteRuleApplications(const Rule &R, int N);

/// Rewrites a program body at the first match (entry 0 of applyEach);
/// returns a fresh program (inputs shared) or nullptr if the rule
/// matched nowhere. The result has types re-inferred.
ir::Program rewriteProgram(const Rule &R, const ir::Program &P);

//===----------------------------------------------------------------------===//
// Lift's pre-existing rules (paper §3.1 machinery)
//===----------------------------------------------------------------------===//

/// map(f, map(g, in)) -> map(\x. f(g(x)), in)
Rule mapFusionRule();

/// map(f, in) -> join(map(map(f), split(m, in)))
Rule splitJoinRule(AExpr ChunkSize);

/// map -> mapSeq on compute maps (leaves layout-only maps to the view
/// system).
Rule mapToSeqRule();

/// reduce -> reduceSeq
Rule reduceToSeqRule();

/// iterate(k, f, in) -> f(f(...f(in)...)) by beta reduction.
Rule iterateExpandRule();

//===----------------------------------------------------------------------===//
// Simplification rules (Lift's algebraic identities)
//===----------------------------------------------------------------------===//

/// transpose(transpose(e)) -> e
Rule transposeTransposeRule();

/// join(split(m, e)) -> e
Rule joinSplitRule();

/// split(m, join(e)) -> e when e's inner dimension has size m.
/// Requires inferred types.
Rule splitJoinEliminationRule();

/// pad(l1, r1, B, pad(l2, r2, B, e)) -> pad(l1+l2, r1+r2, B, e) for
/// boundaries where padding twice equals padding once (Clamp, and
/// Constant with equal values). Mirror/Wrap re-reflect and are not
/// merged.
Rule padPadMergeRule();

/// map(\x. id(x), e) -> e
Rule mapIdEliminationRule();

/// Applies all simplification rules bottom-up until a fixed point.
ir::ExprPtr simplify(const ir::ExprPtr &E);

//===----------------------------------------------------------------------===//
// Stencil-specific rules (paper §4)
//===----------------------------------------------------------------------===//

/// The 1D overlapped-tiling rule (§4.1). \p TileOutputs is v, the
/// number of outputs each tile produces; the tile width is
/// u = v + size - step, satisfying the rule's validity constraint.
Rule tiling1DRule(std::int64_t TileOutputs);

/// First half of the paper's correctness decomposition of the tiling
/// rule (§4.1): map(f, join(in)) -> join(map(map(f), in)).
Rule mapJoinRule();

/// Second half of the decomposition (§4.1):
/// slide(size, step, in) -> join(map(slide(size, step), slide(u, v, in)))
/// with u - v == size - step. Composing mapJoinRule with this rule
/// yields exactly tiling1DRule — tested in SimplifyTest.
Rule slideTilingDecompositionRule(std::int64_t TileOutputs);

/// reduceSeq -> reduceSeqUnroll (§4.3); legal when the reduced array
/// has a compile-time constant length.
Rule reduceUnrollRule();

/// map(id-function, x) -> toLocal(map(id))(x): marks an identity copy
/// to be placed in local memory (§4.2). Matches map-family calls whose
/// function is the eta-expanded identity with default address space.
Rule toLocalRule();

//===----------------------------------------------------------------------===//
// Structural matchers for canonical stencil shapes
//===----------------------------------------------------------------------===//

/// Match result for the slideNd-produced neighborhood expression.
struct SlideNdMatch {
  unsigned Dims = 0;
  AExpr Size, Step;
  ir::ExprPtr Inner; ///< the (padded) input underneath
};

/// Recognizes the expression trees produced by stencil::slideNd.
std::optional<SlideNdMatch> matchSlideNd(const ir::ExprPtr &E);

/// Match result for a mapNd nest.
struct MapNdMatch {
  unsigned Dims = 0;
  ir::LambdaPtr F;   ///< innermost (stencil) function
  ir::ExprPtr Input; ///< the mapped data expression
};

/// Recognizes map nests produced by stencil::mapNd: n nested maps where
/// each intermediate lambda body is a single map over its parameter.
std::optional<MapNdMatch> matchMapNd(const ir::ExprPtr &E);

/// Match result for zipNd-produced multi-grid inputs.
struct ZipNdMatch {
  std::vector<ir::ExprPtr> Comps; ///< the zipped n-dimensional arrays
};

/// Recognizes the trees produced by stencil::zipNd over \p Dims
/// dimensions and returns the component arrays.
std::optional<ZipNdMatch> matchZipNd(const ir::ExprPtr &E, unsigned Dims);

} // namespace rewrite
} // namespace lift

#endif // LIFT_REWRITE_RULES_H
