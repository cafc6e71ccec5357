//===- Exploration.cpp - Automatic rewrite-space exploration ------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "rewrite/Exploration.h"

#include "ir/StructuralHash.h"
#include "ir/TypeInference.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <deque>
#include <unordered_set>

using namespace lift;
using namespace lift::ir;
using namespace lift::rewrite;

std::vector<ApplicableRewrite>
lift::rewrite::enumerateApplicableRewrites(const Program &P,
                                           const std::vector<Rule> &Rules) {
  // The original result type is the preservation contract: a rewrite
  // that changes it (or breaks typing altogether) is not legal here,
  // even if the rule matched syntactically.
  Program Reference = cloneProgram(P);
  TypePtr WantedT = tryInferTypes(Reference);
  if (!WantedT)
    return {};

  std::vector<ApplicableRewrite> Out;
  for (std::size_t RI = 0, RN = Rules.size(); RI != RN; ++RI) {
    std::vector<ExprPtr> Rewrites = applyEach(Rules[RI], Reference->getBody());
    for (int Occ = 0, N = int(Rewrites.size()); Occ != N; ++Occ) {
      noteRuleApplications(Rules[RI], 1);
      Program Candidate =
          cloneProgram(makeProgram(Reference->getParams(), Rewrites[Occ]));
      TypePtr GotT = tryInferTypes(Candidate);
      if (!GotT || !typeEquals(GotT, WantedT))
        continue;
      Out.push_back(ApplicableRewrite{RI, Occ});
    }
  }
  return Out;
}

Program lift::rewrite::applyRewrite(const Program &P,
                                    const std::vector<Rule> &Rules,
                                    const ApplicableRewrite &Step) {
  if (Step.RuleIndex >= Rules.size())
    fatalError("applyRewrite: rule index out of range");
  Program Copy = cloneProgram(P);
  inferTypes(Copy);
  const Rule &R = Rules[Step.RuleIndex];
  std::vector<ExprPtr> Rewrites = applyEach(R, Copy->getBody());
  if (Step.Occurrence < 0 || std::size_t(Step.Occurrence) >= Rewrites.size())
    fatalError("applyRewrite: step does not apply to this program");
  noteRuleApplications(R, 1);
  Program Result = cloneProgram(
      makeProgram(Copy->getParams(), std::move(Rewrites[Step.Occurrence])));
  inferTypes(Result);
  return Result;
}

std::vector<Rule> lift::rewrite::stencilExplorationRules() {
  std::vector<Rule> Rules;
  Rules.push_back(mapFusionRule());
  for (std::int64_t V : {4, 8})
    Rules.push_back(tiling1DRule(V));
  for (std::int64_t M : {2, 4})
    Rules.push_back(splitJoinRule(cst(M)));
  Rules.push_back(joinSplitRule());
  Rules.push_back(mapIdEliminationRule());
  Rules.push_back(padPadMergeRule());
  return Rules;
}

std::vector<Derivation> lift::rewrite::explore(const Program &Start,
                                               const std::vector<Rule> &Rules,
                                               const ExplorationOptions &O) {
  obs::Span ExploreSpan("explore", "rewrite");
  ExploreSpan.arg("rules", std::int64_t(Rules.size()));
  ExploreSpan.arg("max_depth", std::int64_t(O.MaxDepth));
  ExploreSpan.arg("max_programs", std::int64_t(O.MaxPrograms));
  obs::Registry &Reg = obs::Registry::global();
  obs::Counter &ProgramCount = Reg.counter("rewrite.explore.programs");
  // Structural-hash dedup hits: candidates rediscovered through a
  // different derivation and rejected by the Seen probe.
  obs::Counter &DedupHits = Reg.counter("rewrite.explore.dedup_hits");
  obs::Gauge &Frontier = Reg.gauge("rewrite.explore.frontier");
  obs::Gauge &MaxFrontier = Reg.gauge("rewrite.explore.frontier_peak");
  double FrontierPeak = 0;

  std::vector<Derivation> Result;
  // Candidate programs are deduplicated by alpha-invariant structural
  // hash and equality (ir/StructuralHash.h): no program is ever printed
  // on this path. The set is only probed for membership, never
  // iterated, so its (hash-dependent) internal order cannot influence
  // the result.
  std::unordered_set<ExprPtr, StructuralExprHash, StructuralExprEq> Seen;

  struct WorkItem {
    Program P;
    std::vector<std::string> Applied;
    int Depth;
  };
  std::deque<WorkItem> Queue;

  Program First = cloneProgram(Start);
  inferTypes(First);
  Seen.insert(First);
  Result.push_back(Derivation{First, {}});
  Queue.push_back(WorkItem{First, {}, 0});
  ProgramCount.inc();

  auto FinishSpan = [&] {
    MaxFrontier.set(FrontierPeak);
    Frontier.set(0);
    ExploreSpan.arg("programs", std::int64_t(Result.size()));
  };

  while (!Queue.empty() && int(Result.size()) < O.MaxPrograms) {
    FrontierPeak = std::max(FrontierPeak, double(Queue.size()));
    Frontier.set(double(Queue.size()));
    WorkItem Item = std::move(Queue.front());
    Queue.pop_front();
    if (Item.Depth >= O.MaxDepth)
      continue;

    for (const Rule &R : Rules) {
      for (ExprPtr &NewBody : applyEach(R, Item.P->getBody())) {
        noteRuleApplications(R, 1);
        Program Candidate =
            makeProgram(Item.P->getParams(), std::move(NewBody));
        // Probe the dedup set before paying for a deep clone and type
        // inference: structural equality is alpha-invariant, so the
        // raw candidate (still sharing subtrees with its parent) is an
        // equivalent key, and duplicates — the common case in a
        // saturating search — cost only a hash and a comparison.
        if (Seen.find(Candidate) != Seen.end()) {
          DedupHits.inc();
          continue;
        }
        // Clone so derivations never share mutable type state.
        Candidate = cloneProgram(Candidate);
        // Types let rules check static validity constraints (e.g. the
        // tiling rule's exact-fit requirement on constant lengths). A
        // rule that fired on a shape it cannot legally transform
        // produces an ill-typed candidate; drop it instead of dying.
        if (!tryInferTypes(Candidate))
          continue;
        Seen.insert(Candidate);
        std::vector<std::string> Applied = Item.Applied;
        Applied.push_back(R.Name);
        Result.push_back(Derivation{Candidate, Applied});
        ProgramCount.inc();
        Queue.push_back(
            WorkItem{Candidate, std::move(Applied), Item.Depth + 1});
        if (int(Result.size()) >= O.MaxPrograms) {
          FinishSpan();
          return Result;
        }
      }
    }
  }
  FinishSpan();
  return Result;
}
