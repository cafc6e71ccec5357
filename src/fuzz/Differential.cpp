//===- Differential.cpp - Cross-oracle checking and campaigns -------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "analysis/RangeAnalysis.h"
#include "codegen/Runner.h"
#include "ir/StructuralHash.h"
#include "ir/TypeInference.h"
#include "native/NativeRunner.h"
#include "obs/Metrics.h"
#include "rewrite/Exploration.h"
#include "rewrite/Lowering.h"

#include <cstdio>
#include <cstring>
#include <sstream>

using namespace lift;
using namespace lift::ir;
using namespace lift::fuzz;
using namespace lift::rewrite;
using namespace lift::codegen;

namespace {

/// OpenMP threads the native oracle runs every kernel with.
constexpr unsigned NativeOracleThreads = 2;

/// Bitwise float equality: stricter than ==, so -0.0f vs 0.0f or NaN
/// payload drift between oracles is still a reportable divergence.
bool bitEqual(float A, float B) {
  std::uint32_t UA, UB;
  std::memcpy(&UA, &A, sizeof(UA));
  std::memcpy(&UB, &B, sizeof(UB));
  return UA == UB;
}

/// First index where the outputs differ, or -1 when bit-identical
/// (including equal lengths).
std::int64_t firstDivergence(const std::vector<float> &A,
                             const std::vector<float> &B) {
  if (A.size() != B.size())
    return std::int64_t(std::min(A.size(), B.size()));
  for (std::size_t I = 0; I != A.size(); ++I)
    if (!bitEqual(A[I], B[I]))
      return std::int64_t(I);
  return -1;
}

std::string renderOutputs(const std::vector<float> &V, std::size_t Around) {
  std::ostringstream OS;
  std::size_t Begin = Around >= 4 ? Around - 4 : 0;
  std::size_t End = std::min(V.size(), Around + 5);
  if (Begin > 0)
    OS << "... ";
  for (std::size_t I = Begin; I != End; ++I)
    OS << "[" << I << "]=" << V[I] << " ";
  if (End < V.size())
    OS << "...";
  return OS.str();
}

/// A full mismatch report for one diverging oracle pair.
std::string mismatchReport(const std::string &Oracle,
                           const std::vector<float> &Expected,
                           const std::vector<float> &Got) {
  std::int64_t At = firstDivergence(Expected, Got);
  std::ostringstream OS;
  OS << "oracle mismatch: " << Oracle << "\n";
  OS << "expected " << Expected.size() << " elements, got " << Got.size()
     << "; first divergence at index " << At << "\n";
  std::size_t Around = At >= 0 ? std::size_t(At) : 0;
  OS << "reference: " << renderOutputs(Expected, Around) << "\n";
  OS << "observed:  " << renderOutputs(Got, Around) << "\n";
  return OS.str();
}

/// The rows where two counter sets differ, or "" when they agree.
std::string counterDiff(const ocl::ExecCounters &A,
                        const ocl::ExecCounters &B) {
  std::ostringstream OS;
  for (const ocl::ExecCounterField &F : ocl::ExecCounterFields)
    if (A.*F.Field != B.*F.Field)
      OS << "  " << F.Name << ": " << A.*F.Field << " vs " << B.*F.Field
         << "\n";
  return OS.str();
}

/// The deliberately broken pad-merge for the harness self-test:
/// structurally identical to padPadMergeRule but the left/right
/// contributions of the two pads are crossed. Total length (and thus
/// the program type) is preserved, so only value-level differential
/// checking can catch it.
Rule buggyPadMergeRule() {
  Rule R;
  R.Name = "padPadMerge(buggy)";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    if (E->getKind() != Expr::Kind::Call)
      return nullptr;
    const auto *Outer = dynCast<CallExpr>(E);
    if (Outer->getPrim() != Prim::Pad)
      return nullptr;
    const ExprPtr &InnerE = Outer->getArgs()[0];
    if (InnerE->getKind() != Expr::Kind::Call)
      return nullptr;
    const auto *Inner = dynCast<CallExpr>(InnerE);
    if (Inner->getPrim() != Prim::Pad)
      return nullptr;
    bool SameKind = Outer->Bdy.K == Inner->Bdy.K;
    bool Mergeable =
        SameKind && (Outer->Bdy.K == Boundary::Kind::Clamp ||
                     (Outer->Bdy.K == Boundary::Kind::Constant &&
                      Outer->Bdy.ConstVal == Inner->Bdy.ConstVal));
    if (!Mergeable)
      return nullptr;
    // BUG (intentional): swaps the inner pad's sides in the merge.
    return pad(add(Outer->PadL, Inner->PadR), add(Outer->PadR, Inner->PadL),
               Outer->Bdy, Inner->getArgs()[0]);
  };
  return R;
}

/// Per-dimension output extents at the concrete sizes; the layout
/// chain only affects the outermost dimension and only Pad ops change
/// its length. Each dimension is a slide's window count, (n - size +
/// step) / step as TypeInference states it. Empty when the spec is not
/// a stencil (the shapes tiling applies to), whose lowerings then stay
/// symbolic.
std::vector<std::int64_t> outputExtents(const ProgramSpec &S) {
  if (S.Tmpl != Template::Stencil && S.Tmpl != Template::ZipStencil)
    return {};
  std::vector<std::int64_t> Out;
  for (unsigned D = 0; D != S.Dims; ++D) {
    std::int64_t Len = S.Extents[D];
    if (D == 0)
      for (const LayoutOp &Op : S.Layout)
        if (Op.K == LayoutOp::Kind::Pad)
          Len += Op.A + Op.B;
    Len += S.PadL + S.PadR;
    if (Len < S.WinSize)
      return {};
    std::int64_t OutD = (Len - S.WinSize + S.WinStep) / S.WinStep;
    Out.push_back(OutD);
  }
  return Out;
}

/// Picks the tile size for the tiled oracle. At window step 1: the
/// largest v <= 8 that *fits* every output dimension (v <= extent).
/// Exact fits are not required — the clamped remainder-tile lowering
/// handles any fitting v — so the picker prefers a v that leaves a
/// remainder in some dimension, exercising the tail-tile path whenever
/// the spec's extents allow it. At step s != 1 only the exact-fit
/// scheme applies: v = k * s with k <= 8 the largest tile of outputs
/// that divides every output dimension. Returns 0 when tiling is not
/// applicable.
std::int64_t pickTileOutputs(const std::vector<std::int64_t> &Out,
                             std::int64_t Step) {
  if (Out.empty())
    return 0;
  if (Step != 1) {
    for (std::int64_t K = 8;; --K) {
      bool Divides = true;
      for (std::int64_t O : Out)
        Divides &= O % K == 0;
      if (Divides)
        return K * Step;
    }
  }
  std::int64_t Fallback = 0;
  for (std::int64_t V = 8; V >= 2; --V) {
    bool Fits = true;
    bool Remainder = false;
    for (std::int64_t O : Out) {
      Fits &= V <= O;
      Remainder |= O % V != 0;
    }
    if (!Fits)
      continue;
    if (Remainder)
      return V;
    if (!Fallback)
      Fallback = V;
  }
  return Fallback;
}

DiffResult discarded(std::string Why) {
  DiffResult R;
  R.Status = DiffStatus::Discarded;
  R.Detail = std::move(Why);
  return R;
}

DiffResult mismatch(std::string Report) {
  DiffResult R;
  R.Status = DiffStatus::Mismatch;
  R.Detail = std::move(Report);
  return R;
}

/// Oracle (f): compiles the lowered kernel to C with the host
/// compiler (through the shared KernelCache, so a campaign compiles
/// each distinct lowering once) and requires the native output to be
/// bit-identical to the interpreter's. The backend compiles the
/// interior-specialized kernel (native::emitNative), so this checks the
/// interior/edge split on every generated program too. Mismatch and
/// compile-failure reports embed the emitted C source so shrunk
/// artifacts are self-contained. Returns nullopt when the oracle
/// agrees.
std::optional<DiffResult> checkNative(const Compiled &C,
                                      const std::string &Label,
                                      const std::vector<float> &RefFlat,
                                      const BuiltProgram &B) {
  try {
    native::NativeKernelPtr Kern =
        native::KernelCache::global().getOrCompile(C.K);
    native::NativeRunResult NR =
        native::runNative(C, *Kern, B.Flat, B.Sizes, NativeOracleThreads);
    if (firstDivergence(RefFlat, NR.Output) != -1)
      return mismatch(mismatchReport(Label, RefFlat, NR.Output) +
                      "emitted C source:\n" + Kern->source());
  } catch (const native::CompileFailedError &Ex) {
    // The emitter produced C the host compiler rejects: an emitter
    // bug, reported (and shrunk) like any other oracle failure.
    return mismatch("oracle mismatch: " + Label + "\nnative compile failed: " +
                    Ex.what() + "\nemitted C source:\n" + Ex.Source);
  } catch (const native::NativeError &Ex) {
    return mismatch("oracle mismatch: " + Label +
                    "\nnative backend failed: " + Ex.what());
  }
  return std::nullopt;
}

/// The oracles every lowering gets, in order: the simulator at jobs=1
/// against the interpreter, the simulator at jobs=N against jobs=1
/// (outputs, then counters: shard merge and trace replay are exact),
/// and the native executor when enabled. \p Name labels the lowering
/// in reports. Returns nullopt when every oracle agrees.
std::optional<DiffResult> checkLowering(const std::string &Name,
                                        const Compiled &C,
                                        const std::vector<float> &RefFlat,
                                        const BuiltProgram &B,
                                        const DiffOptions &O) {
  RunResult Seq = runCompiled(C, B.Flat, B.Sizes, ocl::CacheConfig(), 1);
  if (firstDivergence(RefFlat, Seq.Output) != -1)
    return mismatch(mismatchReport(
        Name + ": simulator at jobs=1 vs interpreter", RefFlat, Seq.Output));

  const std::string ParName =
      Name + ": simulator at jobs=" + std::to_string(O.ParJobs);
  RunResult Par =
      runCompiled(C, B.Flat, B.Sizes, ocl::CacheConfig(), O.ParJobs);
  if (firstDivergence(Seq.Output, Par.Output) != -1)
    return mismatch(mismatchReport(ParName + " vs simulator at jobs=1",
                                   Seq.Output, Par.Output));
  std::string Diff = counterDiff(Seq.Counters, Par.Counters);
  if (!Diff.empty())
    return mismatch("oracle mismatch: " + ParName +
                    " vs jobs=1 counter determinism\ncounter divergence:\n" +
                    Diff);

  if (O.Native)
    return checkNative(C, Name + ": native executor vs interpreter",
                       RefFlat, B);
  return std::nullopt;
}

/// splitmix64: decorrelates per-program sub-seeds from the campaign
/// seed so consecutive campaigns do not share prefixes.
std::uint64_t splitmix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

std::vector<Rule> lift::fuzz::fuzzRuleSet(bool InjectBug) {
  std::vector<Rule> Rules = stencilExplorationRules();
  Rules.push_back(transposeTransposeRule());
  if (InjectBug)
    for (Rule &R : Rules)
      if (R.Name == "padPadMerge")
        R = buggyPadMergeRule();
  return Rules;
}

DiffResult lift::fuzz::runDifferential(const ProgramSpec &S,
                                       const DiffOptions &O) {
  std::optional<BuiltProgram> B = buildProgram(S);
  if (!B)
    return discarded("spec not realizable");

  // (a) Reference interpreter.
  std::string Err;
  std::optional<interp::Value> Ref =
      interp::tryEvalProgram(B->P, B->Vals, B->Sizes, &Err);
  if (!Ref)
    return discarded("interpreter rejected the program: " + Err);
  std::vector<float> RefFlat;
  interp::flattenValue(*Ref, RefFlat);

  // (b) Random legal rewrite sequence, re-interpreted after each step.
  std::vector<Rule> Rules = fuzzRuleSet(O.InjectBug);
  Program Cur = B->P;
  std::vector<std::string> Applied;
  unsigned RewriteSkips = 0;
  unsigned BoundsUnproven = 0;
  unsigned TiledRemainder = 0;
  unsigned TiledIndivisible = 0;
  // Attaches the telemetry counts to whatever result the oracles
  // produce.
  auto Finish = [&](DiffResult R) {
    R.RewriteSkips = RewriteSkips;
    R.BoundsUnproven = BoundsUnproven;
    R.TiledRemainder = TiledRemainder;
    R.TiledIndivisible = TiledIndivisible;
    return R;
  };
  for (std::uint32_t Pick : S.RewritePicks) {
    std::vector<ApplicableRewrite> App =
        enumerateApplicableRewrites(Cur, Rules);
    if (App.empty())
      break;
    ApplicableRewrite Step = App[Pick % App.size()];
    Program Next = applyRewrite(Cur, Rules, Step);
    // Static refutation against the concrete sizes: a splitJoin whose
    // factor cannot divide its input length would only make the
    // program partial. Skipping just this step (instead of discarding
    // the whole case) keeps the remaining oracles running.
    if (analysis::refuteSplitDivisibility(Next, B->Sizes)) {
      ++RewriteSkips;
      obs::Registry::global().counter("fuzz.rewrite.skip.divisibility").inc();
      continue;
    }
    Cur = std::move(Next);
    Applied.push_back(Rules[Step.RuleIndex].Name);

    std::optional<interp::Value> Got =
        interp::tryEvalProgram(Cur, B->Vals, B->Sizes, &Err);
    if (!Got) {
      // A rule made the program partial at these concrete sizes (e.g.
      // splitJoin on a symbolic length that is not divisible). The
      // rules are only claimed to preserve semantics where both sides
      // are defined, so this is a discard, not a bug.
      std::string Names;
      for (const std::string &N : Applied)
        Names += (Names.empty() ? "" : " ") + N;
      return Finish(discarded("rewrite sequence [" + Names +
                              "] made the program partial: " + Err));
    }
    std::vector<float> GotFlat;
    interp::flattenValue(*Got, GotFlat);
    if (firstDivergence(RefFlat, GotFlat) != -1) {
      std::string Names;
      for (const std::string &N : Applied)
        Names += (Names.empty() ? "" : " ") + N;
      return Finish(mismatch(mismatchReport(
          "rewrite sequence [" + Names + "]", RefFlat, GotFlat)));
    }
  }

  // (c)+(d)+(f) Untiled lowering through every lowering oracle. Where
  // the output extents are known, both lowerings are for this run's
  // grid, as every production caller lowers: the native oracle then
  // runs C with the grid folded into it.
  std::vector<std::int64_t> OutExt = outputExtents(S);
  LoweringOptions UO;
  UO.OutputExtents = OutExt;
  std::string WhyNot;
  Program Low = lowerStencil(B->P, UO, &WhyNot);
  if (!Low)
    return Finish(discarded("untiled lowering does not apply: " + WhyNot));
  Compiled C = compileProgram(Low, "fuzz");
  // Static bounds check of the lowered kernel at the concrete sizes.
  // Unproven accesses are prover-precision telemetry, not failures:
  // the oracles verify the runtime behavior.
  if (O.CheckBounds) {
    auto V = analysis::checkKernelBounds(C.K, &B->Sizes);
    BoundsUnproven += unsigned(V.size());
    obs::Registry::global().counter("fuzz.bounds.unproven").inc(V.size());
  }
  if (std::optional<DiffResult> R =
          checkLowering("untiled lowering", C, RefFlat, *B, O))
    return Finish(*R);

  // (e) Tiled lowering, whenever a tile fits (at window step 1 exact
  // fit NOT required: the clamped lowering handles remainder tails).
  if (O.TryTiled) {
    if (std::int64_t V = pickTileOutputs(OutExt, S.WinStep)) {
      LoweringOptions TO = UO;
      TO.Tile = true;
      TO.TileOutputs = V;
      bool Remainder = false;
      for (std::int64_t OD : OutExt)
        Remainder |= OD % (V / S.WinStep) != 0;
      std::string TWhy;
      Program TLow = lowerStencil(B->P, TO, &TWhy);
      if (!TLow && TWhy.find("tile-indivisible") != std::string::npos) {
        // The picker judged this tile legal; a tile-indivisibility
        // refusal here means the lowering lost a case the clamped
        // scheme claims to support. Counted separately so campaigns
        // can assert it never happens.
        TiledIndivisible = 1;
        obs::Registry::global().counter("fuzz.tiled.indivisible").inc();
      }
      if (TLow) {
        if (Remainder) {
          TiledRemainder = 1;
          obs::Registry::global().counter("fuzz.tiled.remainder").inc();
        }
        if (S.WinStep != 1)
          obs::Registry::global().counter("fuzz.tiled.strided").inc();
        Compiled TC = compileProgram(TLow, "fuzz_tiled");
        if (std::optional<DiffResult> R = checkLowering(
                "tiled lowering (v=" + std::to_string(V) + ")", TC, RefFlat,
                *B, O))
          return Finish(*R);
      }
    }
  }

  DiffResult R;
  R.Status = DiffStatus::Ok;
  return Finish(R);
}

CampaignStats lift::fuzz::runCampaign(std::uint64_t Seed, unsigned Count,
                                      const CampaignOptions &O) {
  CampaignStats Stats;
  for (unsigned I = 0; I != Count; ++I) {
    std::uint64_t SubSeed = splitmix64(Seed + I);
    ProgramSpec S = generateSpec(SubSeed);
    DiffResult R = runDifferential(S, O.Diff);
    Stats.RewriteSkips += R.RewriteSkips;
    Stats.BoundsUnproven += R.BoundsUnproven;
    Stats.TiledRemainder += R.TiledRemainder;
    Stats.TiledIndivisible += R.TiledIndivisible;
    switch (R.Status) {
    case DiffStatus::Ok:
      ++Stats.Ok;
      break;
    case DiffStatus::Discarded:
      ++Stats.Discarded;
      break;
    case DiffStatus::Mismatch: {
      ++Stats.Mismatches;
      CampaignFailure F;
      F.Original = S;
      F.Detail = R.Detail;
      F.Minimal = O.Shrink ? shrinkSpec(S, O.Diff) : S;
      if (std::optional<BuiltProgram> MB = buildProgram(F.Minimal))
        F.MinimalPrims = countPrims(MB->P);
      if (!O.ArtifactDir.empty()) {
        std::string Path = O.ArtifactDir + "/liftfuzz-" +
                           std::to_string(SubSeed) + ".txt";
        std::ostringstream OS;
        OS << "liftfuzz mismatch artifact\n";
        OS << "campaign-seed: " << Seed << "\n";
        OS << "replay: liftfuzz --seed " << Seed << " --count " << Count
           << (O.Diff.InjectBug ? " --self-test" : "") << "\n\n";
        OS << "== failing spec (sub-seed " << SubSeed << ") ==\n"
           << describeSpec(S);
        if (std::optional<BuiltProgram> OB = buildProgram(S)) {
          OS << "program: " << toString(OB->P) << "\n";
          OS << "structural-hash (per-process): 0x" << std::hex
             << structuralHash(OB->P->getBody()) << std::dec << "\n";
        }
        OS << "\n== divergence ==\n" << R.Detail << "\n";
        OS << "== minimal reproducer ==\n" << describeSpec(F.Minimal);
        if (std::optional<BuiltProgram> MB = buildProgram(F.Minimal)) {
          OS << "program: " << toString(MB->P) << "\n";
          OS << "primitives: " << countPrims(MB->P) << "\n";
        }
        if (std::FILE *FP = std::fopen(Path.c_str(), "w")) {
          std::string Text = OS.str();
          std::fwrite(Text.data(), 1, Text.size(), FP);
          std::fclose(FP);
          F.ArtifactPath = Path;
        }
      }
      Stats.Failures.push_back(std::move(F));
      break;
    }
    }
  }
  return Stats;
}
