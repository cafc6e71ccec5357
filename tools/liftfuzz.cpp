//===- liftfuzz.cpp - Differential fuzzing driver -------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//
//
// Command-line driver for the differential fuzzer (src/fuzz). Runs a
// deterministic campaign: every program is derived from --seed alone,
// so any reported mismatch is replayable with the same flags.
//
//   liftfuzz --seed 7 --count 200            # quick campaign
//   liftfuzz --seed 7 --count 300 --self-test
//
// --self-test injects a known-wrong rewrite rule (a side-swapped pad
// merge) and exits 0 only if the harness both *catches* it and
// *shrinks* it to a <= 3-primitive reproducer — the end-to-end proof
// that the oracle stack would notice a real semantics bug.
//
// Exit codes: 0 = clean campaign (or successful self-test), 1 = at
// least one mismatch (or self-test failed to catch the planted bug),
// 2 = bad usage.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "native/NativeRunner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/Obs.h"

using namespace lift::fuzz;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: liftfuzz [--seed S] [--count N] [--jobs J] [--artifact-dir D]\n"
      "                [--no-shrink] [--no-tiled] [--native] [--specialize]\n"
      "                [--check-bounds] [--self-test] [--quiet]\n"
      "\n"
      "Runs N seed-derived random stencil programs through the reference\n"
      "interpreter, random legal rewrite sequences and the simulator\n"
      "at jobs=1 and at jobs=J, requiring bit-identical outputs and\n"
      "counters everywhere. Mismatches are shrunk to minimal\n"
      "reproducers; with --artifact-dir each one is also written to a\n"
      "replayable artifact file.\n"
      "\n"
      "  --native     also compile every lowered kernel to C with the\n"
      "               host compiler, dlopen and run it, and require its\n"
      "               output to be bit-identical to the interpreter;\n"
      "               mismatch artifacts include the emitted C source\n"
      "  --specialize accepted for older command lines: the native\n"
      "               backend compiles every kernel interior/edge-\n"
      "               specialized, so --native covers the specializer\n"
      "  --check-bounds\n"
      "               statically bounds-check every lowered kernel at the\n"
      "               concrete sizes; unprovable accesses are mismatches\n"
      "  --self-test  inject a deliberately broken pad-merge rewrite and\n"
      "               verify the harness catches and shrinks it\n");
}

bool parseU64(const char *S, std::uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::uint64_t Seed = 1;
  std::uint64_t Count = 100;
  std::uint64_t Jobs = 8;
  CampaignOptions O;
  bool SelfTest = false;
  bool Quiet = false;
  lift::obs::ObsOptions ObsOpts;

  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    if (lift::obs::parseObsFlag(Argv[I], ObsOpts))
      continue;
    auto Value = [&](std::uint64_t &Out) {
      if (I + 1 == Argc || !parseU64(Argv[++I], Out)) {
        std::fprintf(stderr, "liftfuzz: %s needs an integer argument\n",
                     A.c_str());
        std::exit(2);
      }
    };
    if (A == "--seed")
      Value(Seed);
    else if (A == "--count")
      Value(Count);
    else if (A == "--jobs")
      Value(Jobs);
    else if (A == "--artifact-dir") {
      if (I + 1 == Argc) {
        std::fprintf(stderr, "liftfuzz: --artifact-dir needs a path\n");
        return 2;
      }
      O.ArtifactDir = Argv[++I];
    } else if (A == "--no-shrink")
      O.Shrink = false;
    else if (A == "--no-tiled")
      O.Diff.TryTiled = false;
    else if (A == "--native")
      O.Diff.Native = true;
    else if (A == "--specialize")
      ; // the native oracle always runs specialized kernels
    else if (A == "--check-bounds")
      O.Diff.CheckBounds = true;
    else if (A == "--self-test")
      SelfTest = true;
    else if (A == "--quiet")
      Quiet = true;
    else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "liftfuzz: unknown flag '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }

  O.Diff.ParJobs = unsigned(Jobs);
  O.Diff.InjectBug = SelfTest;

  if (O.Diff.Native) {
    // Fail up front, with a clear message, when the machine cannot
    // compile-and-dlopen at all — that is an environment problem, not
    // a pipeline bug, and must not masquerade as N mismatches.
    try {
      lift::native::probeToolchain();
    } catch (const lift::native::NativeError &Ex) {
      std::fprintf(stderr,
                   "liftfuzz: --native unavailable: %s\n"
                   "liftfuzz: set $LIFT_NATIVE_CC or $CC to a working C "
                   "compiler and retry\n",
                   Ex.what());
      return 2;
    }
  }

  lift::obs::ObsSession ObsSession(ObsOpts);
  CampaignStats Stats = runCampaign(Seed, unsigned(Count), O);

  if (!Quiet)
  {
    std::string Extra;
    if (O.Diff.CheckBounds)
      Extra = " bounds-unproven=" + std::to_string(Stats.BoundsUnproven);
    if (O.Diff.TryTiled)
      Extra += " tiled-remainder=" + std::to_string(Stats.TiledRemainder) +
               " tiled-indivisible=" + std::to_string(Stats.TiledIndivisible);
    std::printf("liftfuzz: seed=%llu count=%llu ok=%u discarded=%u "
                "mismatches=%u skipped-rewrites=%u%s%s\n",
                (unsigned long long)Seed, (unsigned long long)Count,
                Stats.Ok, Stats.Discarded, Stats.Mismatches,
                Stats.RewriteSkips, Extra.c_str(),
                SelfTest ? " (self-test: bug injected)" : "");
  }

  for (const CampaignFailure &F : Stats.Failures) {
    std::fprintf(stderr, "\n=== mismatch (spec seed %llu) ===\n%s\n%s",
                 (unsigned long long)F.Original.Seed,
                 describeSpec(F.Original).c_str(), F.Detail.c_str());
    std::fprintf(stderr, "--- minimal reproducer (%u primitives) ---\n%s",
                 F.MinimalPrims, describeSpec(F.Minimal).c_str());
    if (!F.ArtifactPath.empty())
      std::fprintf(stderr, "artifact: %s\n", F.ArtifactPath.c_str());
  }

  if (SelfTest) {
    if (Stats.Mismatches == 0) {
      std::fprintf(stderr,
                   "liftfuzz: SELF-TEST FAILED: the planted rewrite bug "
                   "was not caught by any of %llu programs\n",
                   (unsigned long long)Count);
      return 1;
    }
    if (O.Shrink) {
      for (const CampaignFailure &F : Stats.Failures) {
        if (F.MinimalPrims == 0 || F.MinimalPrims > 3) {
          std::fprintf(stderr,
                       "liftfuzz: SELF-TEST FAILED: reproducer not shrunk "
                       "to <= 3 primitives (got %u)\n",
                       F.MinimalPrims);
          return 1;
        }
      }
    }
    if (!Quiet)
      std::printf("liftfuzz: self-test passed: planted bug caught %u "
                  "time(s) and shrunk to minimal reproducers\n",
                  Stats.Mismatches);
    return 0;
  }

  if (Stats.TiledIndivisible != 0) {
    std::fprintf(stderr,
                 "liftfuzz: %u tile(s) the picker judged legal were refused "
                 "as tile-indivisible by the lowering\n",
                 Stats.TiledIndivisible);
    return 1;
  }
  return Stats.Mismatches == 0 ? 0 : 1;
}
