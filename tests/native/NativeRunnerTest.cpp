//===- NativeRunnerTest.cpp - Compile/dlopen/run backend tests -------------===//
//
// Part of the liftcpp project.
//
// Exercises the native execution backend end to end (bit-identity
// against the simulator, thread-count determinism, the compiled-kernel
// cache) and each recoverable error path: compiler not found, compile
// failure with diagnostics, missing entry symbol, and the retry with
// -fopenmp-simd when -fopenmp does not link. Also pins the temp
// hygiene contract — a private $TMPDIR is left empty after both
// successful and failing compilations.
//
//===----------------------------------------------------------------------===//

#include "analysis/InteriorSpec.h"
#include "codegen/Runner.h"
#include "ir/StructuralHash.h"
#include "native/NativeRunner.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace lift;
using namespace lift::native;
using namespace lift::stencil;

namespace {

bool haveToolchain() {
  try {
    probeToolchain();
    return true;
  } catch (const NativeError &) {
    return false;
  }
}

#define REQUIRE_TOOLCHAIN()                                                  \
  if (!haveToolchain())                                                      \
  GTEST_SKIP() << "no usable host C compiler; skipping native test"

/// A benchmark lowered, compiled and ready to execute on either
/// backend at its measurement grid.
struct Built {
  codegen::Compiled C;
  std::vector<std::vector<float>> Inputs;
  ocl::SizeEnv Sizes;
  std::uint64_t LowHash = 0;
};

Built buildBench(const std::string &Name, bool Tiled) {
  const Benchmark &B = findBenchmark(Name);
  BenchmarkInstance I = B.Build();
  rewrite::LoweringOptions O;
  if (Tiled) {
    O.Tile = true;
    O.TileOutputs = 16;
    O.UseLocalMem = true;
  }
  std::string WhyNot;
  ir::Program Low = rewrite::lowerStencil(I.P, O, &WhyNot);
  if (!Low)
    throw std::runtime_error("lowering failed: " + WhyNot);
  Built R;
  R.C = codegen::compileProgram(Low, B.Name);
  R.Inputs = makeBenchmarkInputs(B, B.MeasureExtents);
  R.Sizes = makeSizeEnv(I, B.MeasureExtents);
  R.LowHash = ir::structuralHash(Low);
  return R;
}

/// Bit-exact float comparison (0.0f == -0.0f and NaN != NaN under
/// operator==, so memcmp is the honest check).
bool bitIdentical(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0);
}

std::size_t countDirEntries(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return std::size_t(-1);
  std::size_t N = 0;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name != "." && Name != "..")
      ++N;
  }
  ::closedir(D);
  return N;
}

const char *TrivialEntry =
    "\nvoid tiny_entry(void **bufs, const long long *sizes, int threads,"
    " double *prof) { (void)bufs; (void)sizes; (void)threads; (void)prof; }"
    "\n";

//===----------------------------------------------------------------------===//
// End-to-end execution
//===----------------------------------------------------------------------===//

TEST(NativeRunner, UntiledMatchesSimulatorBitExactly) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  codegen::RunResult Sim = codegen::runCompiled(B.C, B.Inputs, B.Sizes);

  NativeKernelPtr Kern = compileKernel(B.C.K);
  for (unsigned Threads : {1u, 3u}) {
    NativeRunResult NR =
        runNative(B.C, *Kern, B.Inputs, B.Sizes, Threads);
    EXPECT_TRUE(bitIdentical(NR.Output, Sim.Output))
        << "native output diverged from simulator at " << Threads
        << " thread(s)";
    EXPECT_GT(NR.Seconds, 0.0);
  }
}

TEST(NativeRunner, TiledLocalMatchesSimulatorBitExactly) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/true);
  codegen::RunResult Sim = codegen::runCompiled(B.C, B.Inputs, B.Sizes);

  NativeKernelPtr Kern = compileKernel(B.C.K);
  NativeRunResult NR =
      runNative(B.C, *Kern, B.Inputs, B.Sizes, /*Threads=*/3);
  EXPECT_TRUE(bitIdentical(NR.Output, Sim.Output));
}

TEST(NativeRunner, KernelTeardownAfterThreadedRunKeepsOpenMPAlive) {
  // An -fopenmp kernel can be the only object holding the OpenMP
  // runtime in the process. Destroying it after a multi-threaded run
  // must not unload the runtime under its parked worker threads, and
  // the next kernel must load and run normally.
  REQUIRE_TOOLCHAIN();
  Built Untiled = buildBench("Stencil2D", /*Tiled=*/false);
  Built Tiled = buildBench("Stencil2D", /*Tiled=*/true);
  std::vector<float> Want =
      codegen::runCompiled(Untiled.C, Untiled.Inputs, Untiled.Sizes).Output;
  for (int Round = 0; Round != 4; ++Round) {
    for (const Built *B : {&Untiled, &Tiled}) {
      NativeKernelPtr Kern = compileKernel(B->C.K);
      NativeRunResult NR =
          runNative(B->C, *Kern, B->Inputs, B->Sizes, /*Threads=*/3);
      EXPECT_TRUE(bitIdentical(NR.Output, Want)) << "round " << Round;
    }
  }
}

TEST(NativeRunner, WarmupAndRepeatsKeepOutputStable) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  NativeKernelPtr Kern = compileKernel(B.C.K);
  NativeRunResult Once =
      runNative(B.C, *Kern, B.Inputs, B.Sizes, /*Threads=*/1);
  NativeRunResult Timed =
      runNative(B.C, *Kern, B.Inputs, B.Sizes, /*Threads=*/1,
                /*Warmup=*/2, /*Repeats=*/3);
  // Re-running on the same buffers must not perturb the result (the
  // kernels read inputs and write the output; no accumulation).
  EXPECT_TRUE(bitIdentical(Timed.Output, Once.Output));
  EXPECT_GT(Timed.Seconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Kernel cache
//===----------------------------------------------------------------------===//

TEST(NativeRunner, CacheReturnsIdenticalKernelOnHit) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  KernelCache &C = KernelCache::global();
  C.clear();
  NativeKernelPtr K1 = C.getOrCompile(B.C.K);
  NativeKernelPtr K2 = C.getOrCompile(B.C.K);
  EXPECT_EQ(K1.get(), K2.get()) << "cache hit must share the mapping";
  EXPECT_EQ(C.misses(), 1u);
  EXPECT_EQ(C.hits(), 1u);

  // The identity is the emitted source: an independently built
  // instance of the same benchmark emits byte-identical C
  // (deterministic emission), so it shares the compiled kernel rather
  // than recompiling.
  Built B2 = buildBench("Stencil2D", /*Tiled=*/false);
  NativeKernelPtr K3 = C.getOrCompile(B2.C.K);
  EXPECT_EQ(K3.get(), K1.get());
  EXPECT_EQ(C.hits(), 2u);
  C.clear();
}

TEST(NativeRunner, CacheKeysByOptLevel) {
  // A -O0 build must never be served for a -O2 request.
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  KernelCache &C = KernelCache::global();
  C.clear();
  NativeOptions O0, O2;
  O0.OptLevel = 0;
  O2.OptLevel = 2;
  NativeKernelPtr K0 = C.getOrCompile(B.C.K, O0);
  NativeKernelPtr K2 = C.getOrCompile(B.C.K, O2);
  EXPECT_NE(K0.get(), K2.get());
  EXPECT_EQ(C.misses(), 2u);
  EXPECT_EQ(C.getOrCompile(B.C.K, O0).get(), K0.get());
  EXPECT_EQ(C.getOrCompile(B.C.K, O2).get(), K2.get());
  EXPECT_EQ(C.hits(), 2u);
  C.clear();
}

TEST(NativeRunner, CacheKeysByResolvedCompiler) {
  // The compiler is part of the key as the path it resolves to, so
  // naming the default compiler explicitly reuses its binary.
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  KernelCache &C = KernelCache::global();
  C.clear();
  NativeOptions Named;
  Named.CompilerPath = findCompiler();
  NativeKernelPtr K1 = C.getOrCompile(B.C.K);
  EXPECT_EQ(C.getOrCompile(B.C.K, Named).get(), K1.get());
  EXPECT_EQ(C.misses(), 1u);
  NativeOptions Missing;
  Missing.CompilerPath = "/nonexistent/lift-test-cc";
  EXPECT_THROW(C.getOrCompile(B.C.K, Missing), CompilerNotFoundError);
  C.clear();
}

TEST(NativeRunner, GenericAndSpecializedKernelShareOneBinary) {
  // The backend compiles the interior-specialized form of whatever it
  // is given, and the lowered hash is no part of the key: the generic
  // kernel under one hash and its specialized form under another are
  // one compile.
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Jacobi2D5pt", /*Tiled=*/false);
  codegen::Compiled Spec = B.C;
  Spec.K = analysis::specializeInterior(B.C.K);
  KernelCache &C = KernelCache::global();
  C.clear();
  NativeKernelPtr Generic = C.getOrCompile(B.LowHash, B.C.K);
  NativeKernelPtr Specialized = C.getOrCompile(~B.LowHash, Spec.K);
  EXPECT_EQ(Generic.get(), Specialized.get());
  EXPECT_EQ(C.misses(), 1u);
  EXPECT_EQ(C.hits(), 1u);
  ASSERT_NE(Generic->emitted(), nullptr);
  EXPECT_EQ(Generic->source(), emitC(*Generic->emitted()));
  EXPECT_EQ(Generic->source(), emitC(Spec.K));
  C.clear();
}

TEST(NativeRunner, CacheKeepsSourceVariantsApartUnderOneHash) {
  // A kernel and its interior-specialized form emit one source and so
  // are one binary; only the profile-mode build, whose source carries
  // timers, is another.
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Jacobi2D5pt", /*Tiled=*/false);
  std::vector<float> Want =
      codegen::runCompiled(B.C, B.Inputs, B.Sizes).Output;
  codegen::Compiled Spec = B.C;
  analysis::SpecStats SS;
  Spec.K = analysis::specializeInterior(B.C.K, &SS);
  ASSERT_GT(SS.LoopsSplit, 0u) << "the interior split must change the C";
  NativeOptions ProfileMode;
  ProfileMode.Profile = true;

  KernelCache &C = KernelCache::global();
  C.clear();
  NativeKernelPtr Plain = C.getOrCompile(B.C.K);
  NativeKernelPtr Specialized = C.getOrCompile(Spec.K);
  NativeKernelPtr Profiled = C.getOrCompile(B.C.K, ProfileMode);
  EXPECT_EQ(Plain.get(), Specialized.get());
  EXPECT_NE(Plain.get(), Profiled.get());
  EXPECT_EQ(C.misses(), 2u);
  EXPECT_EQ(C.getOrCompile(Spec.K).get(), Specialized.get());
  EXPECT_EQ(C.getOrCompile(B.C.K, ProfileMode).get(), Profiled.get());
  EXPECT_EQ(C.hits(), 3u);

  // The region slots are those of the specialized kernel that runs,
  // also when the caller passes the generic one.
  std::size_t NumRegions = profileRegions(Spec.K).size();
  EXPECT_GT(NumRegions, profileRegions(B.C.K).size());
  NativeRunResult PlainR =
      runNative(B.C, *Plain, B.Inputs, B.Sizes, /*Threads=*/3);
  NativeRunResult SpecR =
      runNative(Spec, *Specialized, B.Inputs, B.Sizes, /*Threads=*/3);
  NativeRunResult ProfR =
      runNative(B.C, *Profiled, B.Inputs, B.Sizes, /*Threads=*/3);
  EXPECT_TRUE(bitIdentical(PlainR.Output, Want));
  EXPECT_TRUE(bitIdentical(SpecR.Output, Want));
  EXPECT_TRUE(bitIdentical(ProfR.Output, Want));
  // One region slot per profile region: left at zero by the plain
  // kernel, filled by the profile-mode one.
  EXPECT_EQ(PlainR.RegionSeconds, std::vector<double>(NumRegions, 0.0));
  ASSERT_EQ(ProfR.RegionSeconds.size(), NumRegions);
  for (double S : ProfR.RegionSeconds)
    EXPECT_GE(S, 0.0);
  C.clear();
}

//===----------------------------------------------------------------------===//
// Grid-bound kernels
//===----------------------------------------------------------------------===//

TEST(NativeRunner, KernelLoweredForAGridRefusesEveryOtherGrid) {
  // A lowering given OutputExtents is a kernel for that grid: its C
  // reads no size at run time, and a run at another grid, even one of
  // the same element count whose inputs would bind, is a recoverable
  // refusal rather than an abort or a wrong answer.
  REQUIRE_TOOLCHAIN();
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  const Extents Grid = {64, 64};
  for (bool Tiled : {false, true}) {
    rewrite::LoweringOptions O;
    O.Tile = Tiled;
    O.TileOutputs = 16;
    O.UseLocalMem = Tiled;
    O.OutputExtents = Grid;
    std::string WhyNot;
    ir::Program Low = rewrite::lowerStencil(I.P, O, &WhyNot);
    ASSERT_TRUE(bool(Low)) << WhyNot;
    codegen::Compiled C = codegen::compileProgram(Low, B.Name);
    NativeKernelPtr Kern = compileKernel(C.K);
    EXPECT_EQ(Kern->source().find("lift_sizes["), std::string::npos)
        << O.describe() << " still reads a size at run time";

    for (const Extents &Other : {Extents{32, 32}, Extents{32, 128}})
      EXPECT_THROW(runNative(C, *Kern, makeBenchmarkInputs(B, Other),
                             makeSizeEnv(I, Other)),
                   NativeError)
          << O.describe() << " ran at " << Other[0] << "x" << Other[1];

    // The refusals leave the process and the kernel usable.
    std::vector<std::vector<float>> In = makeBenchmarkInputs(B, Grid);
    ocl::SizeEnv Sizes = makeSizeEnv(I, Grid);
    EXPECT_TRUE(bitIdentical(runNative(C, *Kern, In, Sizes, 3).Output,
                             codegen::runCompiled(C, In, Sizes).Output))
        << O.describe();
  }
}

TEST(NativeRunnerDeathTest, SimulatorRefusesGridBoundKernelAtAnotherGrid) {
  // The simulator reads the same valid range as runNative: a kernel
  // lowered for 64x64 aborts at 32x32.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  rewrite::LoweringOptions O;
  O.OutputExtents = {64, 64};
  ir::Program Low = rewrite::lowerStencil(I.P, O);
  ASSERT_TRUE(bool(Low));
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  const Extents Other = {32, 32};
  EXPECT_DEATH(codegen::runCompiled(C, makeBenchmarkInputs(B, Other),
                                    makeSizeEnv(I, Other)),
               "was built for d[01] = 64, not 32");
}

/// Stencil2D lowered with symbolic extents and 16-output local tiles.
struct SymbolicTiled {
  const Benchmark &B = findBenchmark("Stencil2D");
  BenchmarkInstance I = B.Build();
  codegen::Compiled C;

  SymbolicTiled() {
    rewrite::LoweringOptions O;
    O.Tile = true;
    O.TileOutputs = 16;
    O.UseLocalMem = true;
    ir::Program Low = rewrite::lowerStencil(I.P, O);
    if (!Low)
      throw std::runtime_error("lowering failed");
    C = codegen::compileProgram(Low, B.Name);
  }
  std::vector<std::vector<float>> inputs(const Extents &E) const {
    return makeBenchmarkInputs(B, E);
  }
  ocl::SizeEnv sizes(const Extents &E) const { return makeSizeEnv(I, E); }
};

TEST(NativeRunner, SymbolicTiledKernelRefusesGridsBelowItsTile) {
  // A symbolic clamped tiling is only valid when every tiled extent
  // holds a whole tile, so the kernel states d0, d1 >= 16: an 8x8 run
  // is a recoverable refusal, and 16x16 runs bit-identically to the
  // simulator.
  REQUIRE_TOOLCHAIN();
  SymbolicTiled T;
  ASSERT_FALSE(T.C.K.SizeArgs.empty());
  for (const ocl::SizeArg &SA : T.C.K.SizeArgs) {
    ASSERT_TRUE(SA.Valid) << SA.Name;
    EXPECT_EQ(SA.Valid->Min, std::optional<std::int64_t>(16)) << SA.Name;
  }
  NativeKernelPtr Kern = compileKernel(T.C.K);
  const Extents Small = {8, 8}, Grid = {16, 16};
  EXPECT_THROW(runNative(T.C, *Kern, T.inputs(Small), T.sizes(Small)),
               NativeError);
  EXPECT_TRUE(bitIdentical(
      runNative(T.C, *Kern, T.inputs(Grid), T.sizes(Grid), 3).Output,
      codegen::runCompiled(T.C, T.inputs(Grid), T.sizes(Grid)).Output));
}

TEST(NativeRunnerDeathTest, SimulatorRefusesSymbolicTiledKernelBelowItsTile) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SymbolicTiled T;
  const Extents Small = {8, 8};
  EXPECT_DEATH(codegen::runCompiled(T.C, T.inputs(Small), T.sizes(Small)),
               "needs d[01] >= 16, not 8");
}

TEST(NativeRunner, InputsThatDoNotFitAreRecoverable) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  NativeKernelPtr Kern = compileKernel(B.C.K);
  EXPECT_THROW(runNative(B.C, *Kern, {}, B.Sizes), NativeError);
  std::vector<std::vector<float>> Short = B.Inputs;
  Short[0].pop_back();
  EXPECT_THROW(runNative(B.C, *Kern, Short, B.Sizes), NativeError);
  EXPECT_THROW(runNative(B.C, *Kern, B.Inputs, {}), NativeError);
}

//===----------------------------------------------------------------------===//
// Error paths (all RecoverableError subclasses; never asserts)
//===----------------------------------------------------------------------===//

TEST(NativeRunner, ExplicitBadCompilerPathIsCompilerNotFound) {
  NativeOptions O;
  O.CompilerPath = "/nonexistent/lift-test-cc";
  EXPECT_THROW(findCompiler(O), CompilerNotFoundError);
  EXPECT_THROW(compileCSource(TrivialEntry, "tiny_entry", O),
               CompilerNotFoundError);
}

TEST(NativeRunner, CompilerNotFoundIsRecoverable) {
  NativeOptions O;
  O.CompilerPath = "/nonexistent/lift-test-cc";
  try {
    findCompiler(O);
    FAIL() << "expected CompilerNotFoundError";
  } catch (const RecoverableError &Ex) {
    EXPECT_NE(std::string(Ex.what()).find("/nonexistent/lift-test-cc"),
              std::string::npos)
        << "message should name the missing compiler";
  }
}

TEST(NativeRunner, CompileFailureCarriesDiagnosticsAndSource) {
  REQUIRE_TOOLCHAIN();
  const std::string Broken = "\nvoid broken(void) { this is not C\n";
  try {
    compileCSource(Broken, "broken");
    FAIL() << "expected CompileFailedError";
  } catch (const CompileFailedError &Ex) {
    EXPECT_FALSE(Ex.Diagnostics.empty())
        << "compiler stderr must be captured";
    EXPECT_EQ(Ex.Source, Broken)
        << "the failing source must ride along for artifacts";
    EXPECT_NE(std::string(Ex.what()).find("failed"), std::string::npos);
  }
}

TEST(NativeRunner, MissingEntrySymbolIsSymbolNotFound) {
  REQUIRE_TOOLCHAIN();
  EXPECT_THROW(compileCSource(TrivialEntry, "no_such_symbol"),
               SymbolNotFoundError);
}

TEST(NativeRunner, TempDirLeftEmptyOnSuccessAndFailure) {
  REQUIRE_TOOLCHAIN();

  // Point the backend at a private TMPDIR so this test observes only
  // its own compilations.
  char Priv[] = "/tmp/lift-native-test-XXXXXX";
  ASSERT_NE(::mkdtemp(Priv), nullptr);
  const char *OldTmp = std::getenv("TMPDIR");
  std::string Saved = OldTmp ? OldTmp : "";
  ::setenv("TMPDIR", Priv, 1);

  NativeKernelPtr Kern = compileCSource(TrivialEntry, "tiny_entry");
  EXPECT_EQ(countDirEntries(Priv), 0u)
      << "successful compile left files behind";

  EXPECT_THROW(compileCSource("\nvoid nope( {\n", "nope"),
               CompileFailedError);
  EXPECT_EQ(countDirEntries(Priv), 0u)
      << "failed compile left files behind";

  // The mapping survives the deletion of its backing file: the kernel
  // is still callable after its .so was unlinked.
  void *Bufs[1] = {nullptr};
  long long Sz[1] = {0};
  double Prof[1] = {0};
  Kern->entry()(Bufs, Sz, 1, Prof);

  if (OldTmp)
    ::setenv("TMPDIR", Saved.c_str(), 1);
  else
    ::unsetenv("TMPDIR");
  ::rmdir(Priv);
}

TEST(NativeRunner, RetryWithoutOpenMPRuntimeKeepsSimd) {
  REQUIRE_TOOLCHAIN();
  std::string RealCC = findCompiler(NativeOptions{});

  // A compiler that cannot link -fopenmp (clang without libomp) and
  // otherwise is the host compiler; it logs each command line.
  char Dir[] = "/tmp/lift-native-test-XXXXXX";
  ASSERT_NE(::mkdtemp(Dir), nullptr);
  std::string Log = std::string(Dir) + "/args.log";
  std::string Script = std::string(Dir) + "/no-libomp-cc";
  {
    std::ofstream S(Script);
    S << "#!/bin/sh\n"
      << "echo \"$*\" >> '" << Log << "'\n"
      << "for a in \"$@\"; do\n"
      << "  if [ \"$a\" = -fopenmp ]; then echo 'no libomp' >&2; exit 1; fi\n"
      << "done\n"
      << "exec '" << RealCC << "' \"$@\"\n";
  }
  ASSERT_EQ(::chmod(Script.c_str(), 0755), 0);

  NativeOptions O;
  O.CompilerPath = Script;
  const std::string Src =
      "\nvoid simd_entry(void **bufs, const long long *sizes, int threads,"
      " double *prof) {\n"
      "  float *restrict out = (float *)bufs[0];\n"
      "  (void)threads; (void)prof;\n"
      "  #pragma omp parallel for simd\n"
      "  for (long long i = 0; i < sizes[0]; ++i)\n"
      "    out[i] = 2.0f * (float)i;\n"
      "}\n";
  NativeKernelPtr Kern = compileCSource(Src, "simd_entry", O);
  std::vector<float> Out(37, -1.0f);
  void *Bufs[1] = {Out.data()};
  long long Sz[1] = {37};
  double Prof[1] = {0};
  Kern->entry()(Bufs, Sz, 4, Prof);
  for (std::size_t I = 0; I != Out.size(); ++I)
    EXPECT_EQ(Out[I], 2.0f * float(I)) << "at " << I;

  // Two attempts: -fopenmp (refused), then -fopenmp-simd.
  std::ifstream L(Log);
  std::vector<std::vector<std::string>> Calls;
  for (std::string Line; std::getline(L, Line);) {
    std::istringstream W(Line);
    Calls.emplace_back();
    for (std::string A; W >> A;)
      Calls.back().push_back(A);
  }
  auto Has = [](const std::vector<std::string> &Args, const char *Flag) {
    return std::find(Args.begin(), Args.end(), Flag) != Args.end();
  };
  ASSERT_EQ(Calls.size(), 2u);
  EXPECT_TRUE(Has(Calls[0], "-fopenmp"));
  EXPECT_FALSE(Has(Calls[1], "-fopenmp"));
  EXPECT_TRUE(Has(Calls[1], "-fopenmp-simd"));

  ::unlink(Log.c_str());
  ::unlink(Script.c_str());
  ::rmdir(Dir);
}

} // namespace
