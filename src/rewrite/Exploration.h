//===- Exploration.h - Automatic rewrite-space exploration -----*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Automatic exploration of the rewrite space (paper §1: "optimizations
/// are all encoded as formal, semantics-preserving rewrite rules. These
/// rules define an optimization space which is automatically searched").
///
/// Starting from one high-level program, exploration repeatedly applies
/// every rule of a rule set at every matching position, collecting the
/// distinct programs reachable within a depth bound. Each reachable
/// program is a semantically equal implementation candidate; the
/// deterministic lowering strategies (Lowering.h) are the
/// production-path shortcut through this same space, and the test suite
/// checks that exploration rediscovers their shapes (tiled and untiled)
/// from the unannotated program.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_REWRITE_EXPLORATION_H
#define LIFT_REWRITE_EXPLORATION_H

#include "rewrite/Rules.h"

namespace lift {
namespace rewrite {

/// Exploration limits.
struct ExplorationOptions {
  int MaxDepth = 3;       ///< rule applications per derivation
  int MaxPrograms = 256;  ///< total distinct programs to keep
};

/// One point in the explored space.
struct Derivation {
  ir::Program P;
  std::vector<std::string> RulesApplied; ///< names, in application order
};

/// Explores the space reachable from \p Start by the given rules.
/// Rules are applied one position at a time (every matching position
/// spawns a new derivation). Programs are deduplicated by
/// alpha-invariant structural hash and equality (ir/StructuralHash.h);
/// no candidate is ever printed. The result always contains \p Start
/// itself as the first derivation.
///
/// Determinism contract: derivations are discovered breadth-first and
/// appended in a fixed total order — lexicographic by (depth, discovery
/// order of the parent derivation, index of the rule in \p Rules,
/// occurrence position of the match, i.e. its index in applyEach's
/// pre-order result). When MaxPrograms cuts the search off, exactly
/// the first MaxPrograms derivations of that order are returned:
/// explore() with a smaller budget yields a prefix of explore() with a
/// larger one, independent of the dedup set's internal iteration order
/// (which is never observed).
std::vector<Derivation> explore(const ir::Program &Start,
                                const std::vector<Rule> &Rules,
                                const ExplorationOptions &O);

/// The stencil exploration rule set used by the paper: map fusion,
/// overlapped tiling with a few tile sizes, split-join with a few
/// chunk sizes, plus the simplification rules keeping the space small.
std::vector<Rule> stencilExplorationRules();

/// One legal rewrite step on a specific program: rule \p RuleIndex of
/// a rule set applied at pre-order match position \p Occurrence (the
/// index into applyEach's result).
struct ApplicableRewrite {
  std::size_t RuleIndex;
  int Occurrence;
};

/// Enumerates every (rule, occurrence) pair of \p Rules that applies
/// to \p P and yields a well-typed program of the *same result type* —
/// candidates whose rewritten body fails type inference (a rule fired
/// on a shape it cannot legally transform) or changes the program type
/// are filtered out. The order is deterministic: by rule index, then
/// occurrence. This is the fuzzer's source of random-but-legal rewrite
/// sequences.
std::vector<ApplicableRewrite>
enumerateApplicableRewrites(const ir::Program &P,
                            const std::vector<Rule> &Rules);

/// Applies one enumerated step, returning a fresh type-checked program
/// (the input is never mutated). Fatal if \p Step does not come from
/// enumerateApplicableRewrites on this same program and rule set.
ir::Program applyRewrite(const ir::Program &P, const std::vector<Rule> &Rules,
                         const ApplicableRewrite &Step);

} // namespace rewrite
} // namespace lift

#endif // LIFT_REWRITE_EXPLORATION_H
