//===- driver.cpp - Repository benchmark driver ----------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process runs one workload of the repository benchmark
/// (BENCHMARK.json; perfbench/run.py builds this binary and calls it):
///
///   sweep_model   exhaustive modeled-objective tuneStencil sweeps on the
///                 K20c model (Jacobi2D5pt, Jacobi3D7pt)
///   kernels       fixed kernel variants {global, global + interior
///                 specialization, tiled16-local} at the paper's target
///                 grids, at 1 and nproc threads
///
/// Usage:
///   perfbench_driver --workload <name> --seed <n> --seconds <s>
///                    [--trace 0|1] [--trace-file <path>] [--corrupt]
///
/// --trace 0 times the workload and prints the end-to-end metrics, the
/// same four for every workload:
///   setup_s      median set-up (problems, inputs, golden outputs,
///                toolchain probe)
///   peak_rss_mb  peak resident set after a fixed first cycle of work
///   serial_s     sweeps: jobs=1 sweep time (sum over benchmarks of the
///                per-benchmark medians); kernels: median cold build of
///                every row, one host compile at a time
///   parallel_s   sweeps: the same at jobs=nproc; kernels: geometric
///                mean over rows of the median all-thread execution
/// --trace 1 runs the workload's set-up and first operations untraced
/// and then traced (the difference is the tracing overhead), replays
/// the work through the public entry point of every layer, each call
/// wrapped in an obs::Span, and prints a per-layer table and every
/// per-layer metric.
/// --corrupt changes one output element of one kernel row (kernels
/// only), which the correctness gate must report as one failed
/// operation.
///
/// Only public functions of tuner, rewrite, analysis, codegen, ocl,
/// native and stencil are called. The last line of stdout is one JSON
/// object: workload, correct, attempted, failed, metrics (name ->
/// {value, unit}) and provenance.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "analysis/InteriorSpec.h"
#include "analysis/RangeAnalysis.h"
#include "codegen/CodeGen.h"
#include "codegen/Runner.h"
#include "ir/StructuralHash.h"
#include "native/CEmitter.h"
#include "native/NativeRunner.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "ocl/Device.h"
#include "rewrite/Exploration.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"
#include "tuner/Tuner.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace lift;
using obs::json::Value;

namespace {

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall seconds of one call.
template <class F> double timed(F &&Fn) {
  double T0 = nowS();
  Fn();
  return nowS() - T0;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile, \p Q in (0, 1].
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t Rank = std::size_t(std::ceil(Q * double(V.size())));
  return V[std::max<std::size_t>(Rank, 1) - 1];
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / double(V.size()));
}

unsigned hostThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Last-level cache size in bytes as the OS reports it (0 if unknown).
long llcBytes() {
  long Best = 0;
  for (int Name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE})
    Best = std::max(Best, sysconf(Name));
  return Best;
}

/// First line of `<Compiler> --version`.
std::string compilerVersion(const std::string &Compiler) {
  std::string Cmd = "'" + Compiler + "' --version 2>/dev/null";
  std::string Line;
  if (std::FILE *P = ::popen(Cmd.c_str(), "r")) {
    char Buf[256];
    if (std::fgets(Buf, sizeof(Buf), P))
      Line = Buf;
    ::pclose(P);
  }
  while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
    Line.pop_back();
  return Line.empty() ? "unknown" : Line;
}

/// Entries left in $TMPDIR (the run's private temp directory).
std::int64_t tempLeftovers() {
  const char *Dir = std::getenv("TMPDIR");
  if (!Dir || !*Dir)
    return 0;
  std::int64_t N = 0;
  if (DIR *D = ::opendir(Dir)) {
    while (dirent *E = ::readdir(D))
      if (std::string(E->d_name) != "." && std::string(E->d_name) != "..")
        ++N;
    ::closedir(D);
  }
  return N;
}

double maxAbsErr(const std::vector<float> &Got,
                 const std::vector<float> &Want) {
  if (Got.size() != Want.size())
    return INFINITY;
  double M = 0;
  for (std::size_t I = 0; I != Want.size(); ++I)
    M = std::max(M, double(std::abs(Got[I] - Want[I])));
  return M;
}

/// bench_native_backend's tolerance against the golden reference.
constexpr double GoldenTolerance = 1e-3;

/// Distinguishes the specialized kernel of a lowering from the generic
/// one in the kernel cache (bench_native_backend's convention).
constexpr std::uint64_t SpecializedHashSalt = 0xA5A5A5A5A5A5A5A5ULL;

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Result {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// (name, value, unit), in print order.
  std::vector<std::tuple<std::string, double, std::string>> Metrics;
  Value Provenance = Value::makeObject();

  void op(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::printf("FAILED: %s\n", What.c_str());
    }
  }
  void metric(std::string Name, double V, std::string Unit) {
    Metrics.emplace_back(std::move(Name), V, std::move(Unit));
  }
};

//===----------------------------------------------------------------------===//
// Per-layer spans (traced runs only)
//===----------------------------------------------------------------------===//

/// Log of the layer calls of a traced run. Each call is also an
/// obs::Span (category "perfbench", arg "id" = candidate or kernel row)
/// in the Chrome trace written at exit; the log keeps durations and
/// self times (duration minus the part covered by child layer calls)
/// for the per-layer table.
struct LayerLog {
  struct Rec {
    std::string Name;
    std::uint64_t Id = 0;
    double Dur = 0;
    double ChildDur = 0;
  };
  bool On = false;
  std::vector<Rec> Recs;
  std::vector<std::size_t> Open;

  std::vector<double> durations(const std::string &Name, bool Self) const {
    std::vector<double> V;
    for (const Rec &R : Recs)
      if (R.Name == Name)
        V.push_back(Self ? R.Dur - R.ChildDur : R.Dur);
    return V;
  }
  double sumMs(const std::string &Name) const {
    double S = 0;
    for (double D : durations(Name, false))
      S += D;
    return S * 1e3;
  }
  std::size_t count(const std::string &Name) const {
    return durations(Name, false).size();
  }
  /// Sum over span ids of the median duration of \p Name's calls with
  /// that id: one figure per candidate or kernel row however often its
  /// call repeats.
  double sumOfIdMediansMs(const std::string &Name) const {
    std::unordered_map<std::uint64_t, std::vector<double>> ById;
    for (const Rec &R : Recs)
      if (R.Name == Name)
        ById[R.Id].push_back(R.Dur);
    double S = 0;
    for (const auto &[Id, V] : ById)
      S += median(V);
    return S * 1e3;
  }
};

LayerLog Log;

class LayerSpan {
public:
  LayerSpan(const char *Name, std::uint64_t Id)
      : S(std::string(Name), "perfbench"), Live(Log.On) {
    if (!Live)
      return;
    S.arg("id", std::int64_t(Id));
    Idx = Log.Recs.size();
    Log.Recs.push_back({Name, Id, 0, 0});
    Log.Open.push_back(Idx);
    T0 = nowS();
  }
  ~LayerSpan() {
    if (!Live)
      return;
    double D = nowS() - T0;
    Log.Recs[Idx].Dur = D;
    Log.Open.pop_back();
    if (!Log.Open.empty())
      Log.Recs[Log.Open.back()].ChildDur += D;
  }
  LayerSpan(const LayerSpan &) = delete;
  LayerSpan &operator=(const LayerSpan &) = delete;

private:
  obs::Span S;
  bool Live = false;
  std::size_t Idx = 0;
  double T0 = 0;
};

/// Span ids: every candidate, kernel row and benchmark-level call of a
/// run gets its own, shared by all of its layer calls.
std::uint64_t newSpanId() {
  static std::uint64_t Next = 0;
  return ++Next;
}

/// Calls \p Fn inside a layer span.
template <class F> auto layer(const char *Name, std::uint64_t Id, F &&Fn) {
  LayerSpan S(Name, Id);
  return Fn();
}

/// Turns on the Chrome tracer and the layer log for the rest of the
/// process (Tracer::enable() starts a fresh trace, so this runs once).
void startTracing() {
  obs::Tracer::global().enable();
  Log.On = true;
}

void printLayerTable() {
  std::vector<std::string> Names;
  for (const LayerLog::Rec &R : Log.Recs)
    if (std::find(Names.begin(), Names.end(), R.Name) == Names.end())
      Names.push_back(R.Name);
  std::printf("%-36s %8s %12s %12s %10s %10s\n", "layer call", "count",
              "sum ms", "self ms", "p50 ms", "p99 ms");
  for (const std::string &N : Names) {
    std::vector<double> D = Log.durations(N, false);
    double Self = 0;
    for (double X : Log.durations(N, true))
      Self += X;
    std::printf("%-36s %8zu %12.3f %12.3f %10.4f %10.4f\n", N.c_str(),
                D.size(), Log.sumMs(N), Self * 1e3, median(D) * 1e3,
                percentile(D, 0.99) * 1e3);
  }
}

/// Native kernels of a traced run, compiled once per lowered structural
/// hash (the KernelCache's key).
struct ReplayKernels {
  std::unordered_map<std::uint64_t, native::NativeKernelPtr> Map;
  std::uint64_t Compiles = 0, Hits = 0;

  native::NativeKernelPtr get(std::uint64_t Hash, const ocl::Kernel &K,
                              std::uint64_t Id) {
    auto It = Map.find(Hash);
    if (It != Map.end()) {
      ++Hits;
      return It->second;
    }
    ++Compiles;
    native::NativeKernelPtr P = layer("native.compileKernel", Id,
                                      [&] { return native::compileKernel(K); });
    Map.emplace(Hash, P);
    return P;
  }
};

/// The traced run's kernels. They stay loaded for the life of the
/// process, as the KernelCache's do, so the OpenMP runtime a kernel
/// loads is never unloaded while its threads live.
ReplayKernels &replayKernels() {
  static ReplayKernels *RK = new ReplayKernels; // never destroyed
  return *RK;
}

/// Per-layer figures of a traced run that are counts, not spans.
struct LayerCounts {
  std::uint64_t Candidates = 0, Valid = 0, MemoHits = 0, MemoValid = 0;
  std::uint64_t NativeFailed = 0, PrunedLowering = 0, PrunedRefuted = 0;
  std::uint64_t Explored = 0, Lowerings = 0;
  std::uint64_t GlobalLoads = 0, UserFunCalls = 0, CBytes = 0;
  std::uint64_t LoopsSplit = 0;
};

/// native::runNative inside its layer span, named by thread count.
native::NativeRunResult
runNativeSpan(const codegen::Compiled &C, const native::NativeKernel &K,
              const std::vector<std::vector<float>> &Inputs,
              const ocl::SizeEnv &Env, unsigned Threads, unsigned Warmup,
              unsigned Repeats, std::uint64_t Id) {
  return layer(Threads == 1 ? "native.runNative.1t" : "native.runNative.nt",
               Id, [&] {
                 return native::runNative(C, K, Inputs, Env, Threads, Warmup,
                                          Repeats);
               });
}

/// Every per-layer metric of BENCHMARK.json; each workload prints all
/// of them (the tuner counts read 0 on kernels, which does not tune).
/// The native.run_*_ms figures add up, over candidates or kernel rows,
/// the median runNative call of each.
void layerMetrics(Result &R, const LayerCounts &C, double OverheadS) {
  const ReplayKernels &RK = replayKernels();
  R.metric("tuner.candidates", double(C.Candidates), "count");
  R.metric("tuner.valid", double(C.Valid), "count");
  R.metric("tuner.memo_hits", double(C.MemoHits), "count");
  R.metric("tuner.memo_hit_ratio",
           C.MemoValid ? double(C.MemoHits) / double(C.MemoValid) : 0,
           "ratio");
  R.metric("tuner.native_failed", double(C.NativeFailed), "count");
  R.metric("rewrite.explore_ms", Log.sumMs("rewrite.explore"), "ms");
  R.metric("rewrite.explore_programs", double(C.Explored), "count");
  R.metric("rewrite.lower_ms", Log.sumMs("rewrite.lowerStencil"), "ms");
  R.metric("rewrite.lowerings", double(C.Lowerings), "count");
  R.metric("rewrite.lower_failed", double(C.PrunedLowering), "count");
  R.metric("analysis.refute_ms",
           Log.sumMs("analysis.refuteSplitDivisibility"), "ms");
  R.metric("analysis.refuted", double(C.PrunedRefuted), "count");
  R.metric("analysis.specialize_ms", Log.sumMs("analysis.specializeInterior"),
           "ms");
  R.metric("analysis.loops_split", double(C.LoopsSplit), "count");
  R.metric("codegen.compile_ms", Log.sumMs("codegen.compileProgram"), "ms");
  R.metric("codegen.kernels", double(Log.count("codegen.compileProgram")),
           "count");
  R.metric("ocl.sim_ms", Log.sumMs("ocl.runCompiled"), "ms");
  R.metric("ocl.sim_runs", double(Log.count("ocl.runCompiled")), "count");
  R.metric("ocl.sim_global_loads", double(C.GlobalLoads), "count");
  R.metric("ocl.sim_user_fun_calls", double(C.UserFunCalls), "count");
  R.metric("native.emit_ms", Log.sumMs("native.emitC"), "ms");
  R.metric("native.c_bytes", double(C.CBytes), "bytes");
  R.metric("native.compile_ms", Log.sumMs("native.compileKernel"), "ms");
  R.metric("native.compiles", double(RK.Compiles), "count");
  R.metric("native.cache_hits", double(RK.Hits), "count");
  R.metric("native.run_1t_ms", Log.sumOfIdMediansMs("native.runNative.1t"),
           "ms");
  R.metric("native.run_nt_ms", Log.sumOfIdMediansMs("native.runNative.nt"),
           "ms");
  R.metric("stencil.inputs_ms", Log.sumMs("stencil.makeBenchmarkInputs"),
           "ms");
  R.metric("stencil.golden_ms", Log.sumMs("stencil.Golden"), "ms");
  R.metric("trace.overhead_s", OverheadS, "s");
}

//===----------------------------------------------------------------------===//
// Options and shared set-up
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceFile;
  bool Corrupt = false;
};

/// Repeats \p Body until \p Seconds have passed since \p T0, at least
/// \p MinReps times: a further repetition starts only if one more of
/// the slowest so far still fits.
void repeatFor(double T0, double Seconds, unsigned MinReps,
               const std::function<void()> &Body) {
  double Slowest = 0;
  for (unsigned Rep = 0;; ++Rep) {
    double Now = nowS();
    if (Rep >= MinReps && Now - T0 + Slowest > Seconds)
      break;
    Slowest = std::max(Slowest, timed(Body));
  }
}

/// Set-up repetitions: setup_s is the median of these. The kernels
/// workload's set-up (inputs and golden outputs at the paper's grids)
/// takes seconds, the sweeps' milliseconds.
constexpr unsigned SweepSetupReps = 11;
constexpr unsigned KernelSetupReps = 3;

void addProvenance(Result &R, const Args &A) {
  native::NativeOptions NO;
  std::string Cc = "none";
  try {
    Cc = native::findCompiler(NO);
  } catch (const native::NativeError &) {
  }
  Value &P = R.Provenance;
  Value Meta;
  if (obs::json::parse(bench::benchMetaJson(), Meta))
    P.set("meta", std::move(Meta));
  P.set("nproc", Value::number(hostThreads()));
  P.set("llc_bytes", Value::number(double(llcBytes())));
  P.set("kernel_compiler", Value::string(Cc));
  P.set("kernel_compiler_version", Value::string(compilerVersion(Cc)));
  P.set("native_opt_level", Value::number(NO.OptLevel));
  P.set("seed", Value::number(double(A.Seed)));
  P.set("seconds", Value::number(A.Seconds));
}

/// Records a grid's extents and array bytes (inputs + output) next to
/// the LLC size, so a reader can tell a cache-resident grid from a
/// DRAM-bound one.
void addGrid(Result &R, const stencil::Benchmark &B,
             const stencil::Extents &E) {
  double Bytes = 4.0 * double(stencil::totalElems(E)) * (B.NumGrids + 1);
  Value G = Value::makeObject();
  G.set("grid", Value::string(bench::extentsToString(E)));
  G.set("array_bytes", Value::number(Bytes));
  G.set("llc_bytes", Value::number(double(llcBytes())));
  R.Provenance.set("grid." + B.Name, std::move(G));
}

//===----------------------------------------------------------------------===//
// Sweep workloads
//===----------------------------------------------------------------------===//

/// The tuner's modeled cache at measurement scale (tuner/Tuner.cpp
/// evalImpl): the device cache shrunk by the working-set ratio of the
/// d-1 fastest dimensions, floored at four lines per way.
ocl::CacheConfig scaledCache(const ocl::CacheConfig &Base,
                             const stencil::Extents &Measure,
                             const stencil::Extents &Target) {
  double Scale = 1.0;
  for (std::size_t D = 1; D < Measure.size(); ++D)
    Scale *= double(Measure[D]) / double(Target[D]);
  ocl::CacheConfig C = Base;
  std::int64_t MinBytes = std::int64_t(C.LineBytes) * C.Ways * 4;
  C.TotalBytes = std::max<std::int64_t>(
      MinBytes, std::int64_t(double(C.TotalBytes) * Scale));
  return C;
}

/// Counters scaled from the measurement grid to the target grid, as
/// the tuner does before the device model.
ocl::ExecCounters scaleCounters(const ocl::ExecCounters &C, double S) {
  auto Sc = [S](std::uint64_t V) {
    return std::uint64_t(std::llround(double(V) * S));
  };
  ocl::ExecCounters R;
  R.GlobalLoads = Sc(C.GlobalLoads);
  R.GlobalStores = Sc(C.GlobalStores);
  R.GlobalLoadLineMisses = Sc(C.GlobalLoadLineMisses);
  R.LocalLoads = Sc(C.LocalLoads);
  R.LocalStores = Sc(C.LocalStores);
  R.PrivateAccesses = Sc(C.PrivateAccesses);
  R.Flops = Sc(C.Flops);
  R.UserFunCalls = Sc(C.UserFunCalls);
  R.LoopIterations = Sc(C.LoopIterations);
  R.Barriers = Sc(C.Barriers);
  R.SelectEvals = Sc(C.SelectEvals);
  return R;
}

/// The sweep workload's benchmarks.
const char *const SweepBenchNames[] = {"Jacobi2D5pt", "Jacobi3D7pt"};

struct SweepProblem {
  tuner::TuningProblem P;
  std::vector<float> Golden; ///< traced runs: reference at Measure
};

/// Problems and inputs of the sweep workload.
std::vector<SweepProblem> sweepSetup(const Args &A) {
  std::vector<SweepProblem> Out;
  for (const char *Name : SweepBenchNames) {
    const stencil::Benchmark &B = stencil::findBenchmark(Name);
    SweepProblem SP;
    SP.P = tuner::makeProblem(B, /*LargeTarget=*/false);
    SP.P.Inputs = layer("stencil.makeBenchmarkInputs", newSpanId(), [&] {
      return stencil::makeBenchmarkInputs(B, SP.P.Measure, A.Seed);
    });
    Out.push_back(std::move(SP));
  }
  return Out;
}

/// The default TuneOptions (modeled objective, what `liftc tune` runs)
/// at \p Jobs workers.
tuner::TuneOptions sweepOptions(unsigned Jobs) {
  tuner::TuneOptions O;
  O.Jobs = Jobs;
  return O;
}

/// One timed sweep through a cold (just emptied) kernel cache. A
/// thrown error or an empty result is a failed operation.
bool checkedSweep(Result &R, const SweepProblem &SP,
                  const tuner::TuneOptions &O, tuner::TuneResult &Out,
                  double &Seconds) {
  std::string What = SP.P.B->Name + " sweep jobs=" + std::to_string(O.Jobs);
  native::KernelCache::global().clear();
  try {
    Seconds = timed([&] {
      Out = tuner::tuneStencil(SP.P, ocl::deviceNvidiaK20c(),
                               tuner::liftSpace(), O);
    });
  } catch (const std::exception &Ex) {
    R.op(false, What + ": " + Ex.what());
    return false;
  }
  bool Ok = !Out.All.empty();
  R.op(Ok, What + ": no valid candidate");
  return Ok;
}

/// After the first repetition of a benchmark, its jobs=nproc sweep is
/// repeated until the repetition's samples add up to this many seconds
/// (at most MaxParSamples times): a single all-core sweep can take a
/// tenth of a second, far too short to repeat on a shared host.
constexpr double MinParSeconds = 0.5;
constexpr unsigned MaxParSamples = 5;

/// Jobs=1 samples per benchmark, at least, so that each per-benchmark
/// median is a median.
constexpr unsigned MinSweepSamples = 3;

void sweepWorkload(const Args &A, Result &R) {
  unsigned N = hostThreads();
  std::vector<double> SetupS;
  std::vector<SweepProblem> Probs;
  for (unsigned I = 0; I != SweepSetupReps; ++I)
    SetupS.push_back(timed([&] { Probs = sweepSetup(A); }));
  for (const SweepProblem &SP : Probs)
    addGrid(R, *SP.P.B, SP.P.Measure);

  // Per-benchmark samples; each metric is the sum over benchmarks of
  // the per-benchmark medians. One repetition sweeps one benchmark, in
  // turn, so the time budget is filled benchmark by benchmark.
  std::vector<std::vector<double>> SeqS(Probs.size()), ParS(Probs.size());
  std::vector<std::string> Winners(Probs.size());
  auto Repetition = [&](std::size_t I, bool Record) {
    const SweepProblem &SP = Probs[I];
    tuner::TuneResult R1;
    double T1 = 0;
    bool Ok1 = checkedSweep(R, SP, sweepOptions(1), R1, T1);
    if (Record)
      SeqS[I].push_back(T1);
    if (Ok1)
      Winners[I] += " " + R1.Best.C.describe();
    double ParTotal = 0;
    for (unsigned K = 0; K != (Record ? MaxParSamples : 1) &&
                         (K == 0 || ParTotal < MinParSeconds);
         ++K) {
      tuner::TuneResult RN;
      double TN = 0;
      bool OkN = checkedSweep(R, SP, sweepOptions(N), RN, TN);
      if (Record)
        ParS[I].push_back(TN);
      ParTotal += TN;
      if (Ok1 && OkN) {
        bool Same = R1.Best.C.describe() == RN.Best.C.describe() &&
                    R1.Best.T.Total == RN.Best.T.Total &&
                    R1.All.size() == RN.All.size();
        R.op(Same, SP.P.B->Name + ": jobs=1 and jobs=" + std::to_string(N) +
                       " sweeps disagree");
      }
    }
  };
  // Warm-up: one untimed, checked repetition per benchmark. The first
  // sweeps of a process fill state that lives as long as it (the
  // interned expression arena, the tuner's thread pool) and ran up to a
  // quarter slower (jobs=1) and four times slower (jobs=nproc) than
  // later ones. The peak RSS is read after this fixed amount of work.
  for (std::size_t I = 0; I != Probs.size(); ++I)
    Repetition(I, false);
  double Rss = peakRssMb();
  std::size_t Next = 0;
  repeatFor(nowS(), A.Seconds, MinSweepSamples * unsigned(Probs.size()),
            [&] { Repetition(Next++ % Probs.size(), true); });

  double Seq = 0, Par = 0;
  for (std::size_t I = 0; I != Probs.size(); ++I) {
    std::printf("%-12s jobs=1 %zu x %.3f s, jobs=%u %zu x %.3f s "
                "(medians); jobs=1 winners:%s\n",
                Probs[I].P.B->Name.c_str(), SeqS[I].size(), median(SeqS[I]),
                N, ParS[I].size(), median(ParS[I]), Winners[I].c_str());
    Seq += median(SeqS[I]);
    Par += median(ParS[I]);
  }
  R.metric("setup_s", median(SetupS), "s");
  R.metric("peak_rss_mb", Rss, "MB");
  R.metric("serial_s", Seq, "s");
  R.metric("parallel_s", Par, "s");
}

/// Replays one evaluated candidate through the layer calls evalImpl
/// makes: lower at the measure grid, refute, codegen, simulate, model.
/// Returns false when the replay disagrees with the tuner: a valid
/// candidate must lower, must not be refuted, and must reproduce its
/// predicted time.
bool replayCandidate(const SweepProblem &SP, const tuner::Evaluated &E,
                     std::uint64_t Id, LayerCounts &RC) {
  const tuner::TuningProblem &P = SP.P;
  rewrite::LoweringOptions LO = E.C.Options;
  if (LO.OutputExtents.empty())
    LO.OutputExtents.assign(P.Measure.begin(), P.Measure.end());
  ir::Program Low = layer("rewrite.lowerStencil", Id, [&] {
    return rewrite::lowerStencil(P.Instance.P, LO);
  });
  if (!Low)
    return false;
  ++RC.Lowerings;
  ocl::SizeEnv MeasureEnv = stencil::makeSizeEnv(P.Instance, P.Measure);
  ocl::SizeEnv TargetEnv = stencil::makeSizeEnv(P.Instance, P.Target);
  bool Refuted = layer("analysis.refuteSplitDivisibility", Id, [&] {
    return analysis::refuteSplitDivisibility(Low, MeasureEnv) ||
           analysis::refuteSplitDivisibility(Low, TargetEnv);
  });
  if (Refuted)
    return false;
  codegen::Compiled CC = layer("codegen.compileProgram", Id, [&] {
    return codegen::compileProgram(Low, P.B->Name);
  });
  ocl::DeviceSpec Dev = ocl::deviceNvidiaK20c();
  codegen::RunResult Run = layer("ocl.runCompiled", Id, [&] {
    return codegen::runCompiled(CC, P.Inputs, MeasureEnv,
                                scaledCache(Dev.Cache, P.Measure, P.Target),
                                /*Jobs=*/1);
  });
  RC.GlobalLoads += Run.Counters.GlobalLoads;
  RC.UserFunCalls += Run.Counters.UserFunCalls;
  double Scale = double(stencil::totalElems(P.Target)) /
                 double(stencil::totalElems(P.Measure));
  ocl::Timing T = layer("ocl.estimateTime", Id, [&] {
    return ocl::estimateTime(Dev, scaleCounters(Run.Counters, Scale),
                             ocl::analyzeNDRange(CC.K, TargetEnv),
                             E.C.Launch);
  });
  return T.Total == E.T.Total;
}

/// The jobs=1 winner of a traced sweep, generic and interior-
/// specialized, compiled natively and run at one and at nproc threads on
/// the measure grid, each run checked against the golden output. This
/// is where a modeled sweep reaches the native and specialization
/// layers.
void checkWinner(Result &R, SweepProblem &SP, const tuner::TuneResult &TR,
                 LayerCounts &LC) {
  const tuner::TuningProblem &P = SP.P;
  std::uint64_t Id = newSpanId();
  std::string What = P.B->Name + " winner " + TR.Best.C.describe();
  if (SP.Golden.empty())
    SP.Golden = layer("stencil.Golden", Id,
                      [&] { return P.B->Golden(P.Inputs, P.Measure); });
  rewrite::LoweringOptions LO = TR.Best.C.Options;
  if (LO.OutputExtents.empty())
    LO.OutputExtents.assign(P.Measure.begin(), P.Measure.end());
  ir::Program Low = layer("rewrite.lowerStencil", Id, [&] {
    return rewrite::lowerStencil(P.Instance.P, LO);
  });
  if (!Low) {
    R.op(false, What + ": does not lower");
    return;
  }
  ++LC.Lowerings;
  codegen::Compiled CC = layer("codegen.compileProgram", Id, [&] {
    return codegen::compileProgram(Low, P.B->Name);
  });
  ocl::SizeEnv Env = stencil::makeSizeEnv(P.Instance, P.Measure);
  for (bool Spec : {false, true}) {
    codegen::Compiled V = CC;
    std::uint64_t Hash = ir::structuralHash(Low);
    if (Spec) {
      analysis::SpecStats SS;
      V.K = layer("analysis.specializeInterior", Id,
                  [&] { return analysis::specializeInterior(CC.K, &SS); });
      LC.LoopsSplit += SS.LoopsSplit;
      Hash ^= SpecializedHashSalt;
    }
    std::string Src =
        layer("native.emitC", Id, [&] { return native::emitC(V.K); });
    LC.CBytes += Src.size();
    native::NativeKernelPtr K = replayKernels().get(Hash, V.K, Id);
    for (unsigned Threads : {1u, hostThreads()}) {
      native::NativeRunResult NR =
          runNativeSpan(V, *K, P.Inputs, Env, Threads, 1, 3, Id);
      R.op(maxAbsErr(NR.Output, SP.Golden) < GoldenTolerance,
           What + (Spec ? " specialized" : "") + " threads=" +
               std::to_string(Threads) + ": output differs from golden");
    }
  }
}

void sweepWorkloadTraced(const Args &A, Result &R) {
  // Tracing overhead: set-up and the default (jobs=1) sweeps, untraced
  // then traced, after an untraced warm-up pass (process-wide state
  // such as the interned expression arena fills on first use and would
  // favour whichever pass runs later). The traced results are replayed.
  // The replay covers TuneResult.All, the valid candidates, so the
  // rewrite/analysis times cover only those; the pruned candidates show
  // as the tuner's prune counts (rewrite.lower_failed, analysis.refuted).
  std::vector<SweepProblem> Probs;
  std::vector<tuner::TuneResult> Results;
  auto Pass = [&] {
    Probs = sweepSetup(A);
    Results.clear();
    for (std::size_t I = 0; I != Probs.size(); ++I) {
      tuner::TuneResult TR;
      double Secs = 0;
      LayerSpan Span("tuner.tuneStencil", newSpanId());
      checkedSweep(R, Probs[I], sweepOptions(1), TR, Secs);
      Results.push_back(std::move(TR));
    }
  };
  Pass();
  double Untraced = timed(Pass);

  // The evaluation memo works only at Jobs > 1: one untraced
  // jobs=nproc sweep per benchmark gives its hits.
  LayerCounts LC;
  for (const SweepProblem &SP : Probs) {
    tuner::TuneResult TR;
    double Secs = 0;
    if (checkedSweep(R, SP, sweepOptions(hostThreads()), TR, Secs)) {
      LC.MemoHits += TR.MemoHits;
      LC.MemoValid += TR.All.size();
    }
  }

  startTracing();
  double Traced = timed(Pass);

  for (std::size_t I = 0; I != Probs.size(); ++I) {
    SweepProblem &SP = Probs[I];
    const tuner::TuneResult &TR = Results[I];
    LC.Candidates += TR.All.size() + TR.Prunes.total();
    LC.Valid += TR.All.size();
    LC.NativeFailed += TR.Prunes.NativeFailed;
    LC.PrunedLowering += TR.Prunes.LoweringFailed;
    LC.PrunedRefuted += TR.Prunes.Divisibility;
    LC.Explored += layer("rewrite.explore", newSpanId(), [&] {
                     return rewrite::explore(SP.P.Instance.P,
                                             rewrite::stencilExplorationRules(),
                                             rewrite::ExplorationOptions());
                   }).size();
    for (const tuner::Evaluated &E : TR.All) {
      bool Ok = false;
      try {
        Ok = replayCandidate(SP, E, newSpanId(), LC);
      } catch (const std::exception &Ex) {
        std::printf("replay: %s\n", Ex.what());
      }
      R.op(Ok, SP.P.B->Name + " replay of " + E.C.describe());
    }
    if (TR.All.empty())
      continue; // already a failed operation of the sweep
    try {
      checkWinner(R, SP, TR, LC);
    } catch (const std::exception &Ex) {
      R.op(false, SP.P.B->Name + " winner: " + Ex.what());
    }
  }
  Log.On = false;
  obs::Tracer::global().disable();

  printLayerTable();
  std::printf("tracing overhead: %.3f s (set-up and jobs=1 sweeps traced "
              "%.3f s, untraced %.3f s)\n",
              Traced - Untraced, Traced, Untraced);
  layerMetrics(R, LC, Traced - Untraced);
}

//===----------------------------------------------------------------------===//
// Kernels workload
//===----------------------------------------------------------------------===//

struct KernelBench {
  const stencil::Benchmark *B = nullptr;
  stencil::BenchmarkInstance Instance;
  stencil::Extents Grid;
  ocl::SizeEnv Env;
  std::vector<std::vector<float>> Inputs;
  std::vector<float> Golden; ///< computed once, shared by the rows
};

struct KernelRow {
  std::size_t Bench = 0;
  std::uint64_t SpanId = 0;
  std::string Variant;
  rewrite::LoweringOptions Options;
  bool Specialize = false;
  codegen::Compiled C;
  native::NativeKernelPtr K;
  std::vector<double> Seconds[2]; ///< [0] = 1 thread, [1] = nproc
};

const char *const KernelBenchNames[] = {"Jacobi2D5pt", "Gaussian",
                                        "Jacobi3D7pt", "Hotspot3D"};

std::vector<KernelBench> kernelSetup(const Args &A) {
  layer("native.probeToolchain", newSpanId(), [] {
    native::probeToolchain();
    return 0;
  });
  std::vector<KernelBench> Out;
  for (const char *Name : KernelBenchNames) {
    KernelBench KB;
    KB.B = &stencil::findBenchmark(Name);
    KB.Instance = KB.B->Build();
    KB.Grid = KB.B->SmallExtents;
    KB.Env = stencil::makeSizeEnv(KB.Instance, KB.Grid);
    std::uint64_t Id = newSpanId();
    KB.Inputs = layer("stencil.makeBenchmarkInputs", Id, [&] {
      return stencil::makeBenchmarkInputs(*KB.B, KB.Grid, A.Seed);
    });
    KB.Golden = layer("stencil.Golden", Id,
                      [&] { return KB.B->Golden(KB.Inputs, KB.Grid); });
    Out.push_back(std::move(KB));
  }
  return Out;
}

std::vector<KernelRow> kernelRows(const std::vector<KernelBench> &Benches) {
  std::vector<KernelRow> Rows;
  for (std::size_t I = 0; I != Benches.size(); ++I) {
    KernelRow Global;
    Global.Bench = I;
    Global.Variant = "global";
    KernelRow Spec = Global;
    Spec.Variant = "global-spec";
    Spec.Specialize = true;
    KernelRow Tiled = Global;
    Tiled.Variant = "tiled16-local";
    Tiled.Options.Tile = true;
    Tiled.Options.TileOutputs = 16;
    Tiled.Options.UseLocalMem = true;
    for (KernelRow *Row : {&Global, &Spec, &Tiled}) {
      const stencil::Extents &G = Benches[I].Grid;
      Row->SpanId = newSpanId();
      Row->Options.OutputExtents.assign(G.begin(), G.end());
      Rows.push_back(std::move(*Row));
    }
  }
  return Rows;
}

std::string rowName(const std::vector<KernelBench> &Benches,
                    const KernelRow &Row) {
  return Benches[Row.Bench].B->Name + "." + Row.Variant;
}

/// Lowers, generates, optionally specializes, emits and compiles every
/// row. Untraced builds go through the process-wide KernelCache (which
/// emits internally); traced builds make each layer call separately.
bool buildRows(Result &R, const std::vector<KernelBench> &Benches,
               std::vector<KernelRow> &Rows, bool Traced, LayerCounts &LC) {
  bool AllOk = true;
  for (KernelRow &Row : Rows) {
    const KernelBench &KB = Benches[Row.Bench];
    std::uint64_t Id = Row.SpanId;
    bool Ok = false;
    try {
      ir::Program Low = layer("rewrite.lowerStencil", Id, [&] {
        return rewrite::lowerStencil(KB.Instance.P, Row.Options);
      });
      if (Low) {
        ++LC.Lowerings;
        Row.C = layer("codegen.compileProgram", Id, [&] {
          return codegen::compileProgram(Low, KB.B->Name);
        });
        std::uint64_t Hash = ir::structuralHash(Low);
        if (Row.Specialize) {
          analysis::SpecStats SS;
          Row.C.K = layer("analysis.specializeInterior", Id, [&] {
            return analysis::specializeInterior(Row.C.K, &SS);
          });
          LC.LoopsSplit += SS.LoopsSplit;
          Hash ^= SpecializedHashSalt;
        }
        if (Traced) {
          std::string Src =
              layer("native.emitC", Id, [&] { return native::emitC(Row.C.K); });
          LC.CBytes += Src.size();
          Row.K = replayKernels().get(Hash, Row.C.K, Id);
        } else {
          Row.K = native::KernelCache::global().getOrCompile(Hash, Row.C.K);
        }
        Ok = true;
      }
    } catch (const std::exception &Ex) {
      std::printf("%s: %s\n", rowName(Benches, Row).c_str(), Ex.what());
    }
    if (!Ok)
      Row.K = nullptr; // runRow then counts the row's runs as failed
    R.op(Ok, rowName(Benches, Row) + ": build failed");
    AllOk = AllOk && Ok;
  }
  return AllOk;
}

/// Timed executions per kernel call at one and at nproc threads; the
/// call reports the fastest. Taking the minimum drops the executions a
/// busy neighbour on the shared host stalls: an all-core run waits for
/// its slowest thread, so the nproc calls take more executions (one
/// all-core execution at the paper's grids takes 3-80 ms).
constexpr unsigned KernelRepeats[2] = {3, 10};

/// One kernel call of a row (KernelRepeats[Slot] timed executions on
/// the same buffers), checked against the golden output.
void runRow(Result &R, const std::vector<KernelBench> &Benches,
            KernelRow &Row, unsigned Slot, unsigned Threads, bool Corrupt) {
  const KernelBench &KB = Benches[Row.Bench];
  std::string What = rowName(Benches, Row) + " threads=" +
                     std::to_string(Threads) + ": output differs from golden";
  if (!Row.K) {
    R.op(false, What + " (no kernel)");
    return;
  }
  native::NativeRunResult NR =
      runNativeSpan(Row.C, *Row.K, KB.Inputs, KB.Env, Threads,
                    /*Warmup=*/0, KernelRepeats[Slot], Row.SpanId);
  if (Corrupt && !NR.Output.empty())
    NR.Output[NR.Output.size() / 2] += 1.0f;
  R.op(maxAbsErr(NR.Output, KB.Golden) < GoldenTolerance, What);
  Row.Seconds[Slot].push_back(NR.Seconds);
}

/// One repetition: every row at one thread (if \p OneThread), then
/// every row at nproc, round-robin so slow drift of the host spreads
/// over all rows.
void kernelRound(Result &R, const std::vector<KernelBench> &Benches,
                 std::vector<KernelRow> &Rows, bool &Corrupt,
                 bool OneThread = true) {
  unsigned Threads[2] = {1, hostThreads()};
  for (unsigned Slot = OneThread ? 0 : 1; Slot != 2; ++Slot)
    for (KernelRow &Row : Rows) {
      runRow(R, Benches, Row, Slot, Threads[Slot], Corrupt);
      Corrupt = false;
    }
}

double rowGElems(const std::vector<KernelBench> &Benches,
                 const KernelRow &Row, unsigned Slot) {
  double S = median(Row.Seconds[Slot]);
  return S > 0 ? double(stencil::totalElems(Benches[Row.Bench].Grid)) / S /
                     1e9
               : 0;
}

void kernelsWorkload(const Args &A, Result &R) {
  // The set-up repetitions come first and the rows run on the last
  // set's buffers. With a fresh set before every round instead, the
  // all-thread throughput read about half as much (0.29 against 0.52
  // GElem/s on a 4-vCPU VM).
  std::vector<double> SetupS, BuildS;
  std::vector<KernelBench> Benches;
  std::vector<KernelRow> Rows;
  LayerCounts LC;
  auto Build = [&] {
    native::KernelCache::global().clear();
    return timed([&] { buildRows(R, Benches, Rows, false, LC); });
  };
  // Every set-up repetition but the first is followed by a timed cold
  // build: the host's speed drifts over tens of seconds, and build
  // samples taken across the whole run repeat better than samples from
  // its last part alone. No kernel has run yet, so no OpenMP thread
  // lives while these kernels are replaced.
  for (unsigned I = 0; I != KernelSetupReps; ++I) {
    Rows.clear();
    Benches.clear(); // release the previous set before building the next
    SetupS.push_back(timed([&] { Benches = kernelSetup(A); }));
    Rows = kernelRows(Benches);
    double B = Build();
    if (I != 0)
      BuildS.push_back(B);
  }
  for (const KernelBench &KB : Benches)
    addGrid(R, *KB.B, KB.Grid);

  // Each repetition builds every row through a cold KernelCache, then
  // runs every row. The new kernels replace the previous ones only
  // once loaded, so the OpenMP runtime the kernels load stays loaded
  // while its threads live; the last build stays owned by the cache
  // for the life of the process.
  bool Corrupt = A.Corrupt;
  auto Repetition = [&](bool Warmup) {
    double B = Build();
    kernelRound(R, Benches, Rows, Corrupt, /*OneThread=*/Warmup);
    if (!Warmup)
      BuildS.push_back(B);
  };
  // Warm-up: one untimed repetition, every row checked at one and at
  // nproc threads. The first round of a process starts the OpenMP
  // threads and faults in the output buffers, and its all-thread
  // executions read up to 1.8 times slower than later ones. The timed
  // repetitions run the rows at nproc threads only: the one-thread
  // figures are no end-to-end metric (they do not repeat on a shared
  // host); traced runs report them per layer. The peak RSS is read
  // after the warm-up's fixed amount of work.
  Repetition(true);
  double Rss = peakRssMb();
  for (KernelRow &Row : Rows)
    for (std::vector<double> &Slot : Row.Seconds)
      Slot.clear();
  repeatFor(nowS(), A.Seconds, 3, [&] { Repetition(false); });

  std::vector<double> NtSeconds, G;
  std::printf("%-28s %12s\n", "row", "GElem/s nt");
  for (const KernelRow &Row : Rows) {
    std::printf("%-28s %12.4f\n", rowName(Benches, Row).c_str(),
                rowGElems(Benches, Row, 1));
    G.push_back(rowGElems(Benches, Row, 1));
    NtSeconds.push_back(median(Row.Seconds[1]));
  }
  std::printf("%zu repetitions per row; geomean %.4f GElem/s at %u "
              "threads\n",
              Rows.front().Seconds[1].size(), geomean(G), hostThreads());
  // serial_s is the build (one host compile at a time); parallel_s the
  // geometric mean over rows of the median all-thread execution, the
  // inverse of the rows' geomean throughput up to the fixed grid sizes.
  R.metric("setup_s", median(SetupS), "s");
  R.metric("peak_rss_mb", Rss, "MB");
  R.metric("serial_s", median(BuildS), "s");
  R.metric("parallel_s", geomean(NtSeconds), "s");
}

/// Traced kernels run only: every row that is not specialized lowered
/// again at the benchmark's measure grid (the tuner's), checked for
/// split refutations there and at the target grid, simulated, and its
/// output compared with the golden output at that grid; each
/// benchmark's program is explored once. This is where the kernels
/// workload reaches the rewrite, analysis and simulator layers the way
/// a sweep does.
void simulateRows(Result &R, const std::vector<KernelBench> &Benches,
                  const std::vector<KernelRow> &Rows, const Args &A,
                  LayerCounts &LC) {
  ocl::DeviceSpec Dev = ocl::deviceNvidiaK20c();
  for (std::size_t I = 0; I != Benches.size(); ++I) {
    const KernelBench &KB = Benches[I];
    const stencil::Extents &M = KB.B->MeasureExtents;
    std::uint64_t Id = newSpanId();
    LC.Explored += layer("rewrite.explore", Id, [&] {
                     return rewrite::explore(KB.Instance.P,
                                             rewrite::stencilExplorationRules(),
                                             rewrite::ExplorationOptions());
                   }).size();
    std::vector<std::vector<float>> Inputs =
        layer("stencil.makeBenchmarkInputs", Id, [&] {
          return stencil::makeBenchmarkInputs(*KB.B, M, A.Seed);
        });
    std::vector<float> Golden =
        layer("stencil.Golden", Id, [&] { return KB.B->Golden(Inputs, M); });
    ocl::SizeEnv Env = stencil::makeSizeEnv(KB.Instance, M);
    for (const KernelRow &Row : Rows) {
      if (Row.Bench != I || Row.Specialize)
        continue;
      std::string What = rowName(Benches, Row) + " simulated at " +
                         bench::extentsToString(M);
      bool Ok = false;
      try {
        rewrite::LoweringOptions LO = Row.Options;
        LO.OutputExtents.assign(M.begin(), M.end());
        ir::Program Low = layer("rewrite.lowerStencil", Row.SpanId, [&] {
          return rewrite::lowerStencil(KB.Instance.P, LO);
        });
        if (Low) {
          ++LC.Lowerings;
          bool Refuted = layer("analysis.refuteSplitDivisibility", Row.SpanId,
                               [&] {
                                 return analysis::refuteSplitDivisibility(
                                            Low, Env) ||
                                        analysis::refuteSplitDivisibility(
                                            Low, KB.Env);
                               });
          codegen::Compiled CC = layer("codegen.compileProgram", Row.SpanId,
                                       [&] {
                                         return codegen::compileProgram(
                                             Low, KB.B->Name);
                                       });
          codegen::RunResult Run =
              layer("ocl.runCompiled", Row.SpanId, [&] {
                return codegen::runCompiled(CC, Inputs, Env, Dev.Cache, 1);
              });
          LC.GlobalLoads += Run.Counters.GlobalLoads;
          LC.UserFunCalls += Run.Counters.UserFunCalls;
          Ok = !Refuted && maxAbsErr(Run.Output, Golden) < GoldenTolerance;
        }
      } catch (const std::exception &Ex) {
        std::printf("%s: %s\n", What.c_str(), Ex.what());
      }
      R.op(Ok, What + ": refuted or differs from golden");
    }
  }
}

void kernelsWorkloadTraced(const Args &A, Result &R) {
  // Tracing overhead: set-up, one build and one round, untraced
  // (building through a cold KernelCache) then traced (layer by layer),
  // after an untraced warm-up pass as in sweepWorkloadTraced. Some
  // OpenMP kernel stays loaded from the first multi-threaded run on, so
  // the OpenMP runtime is never unloaded while its threads live.
  std::vector<KernelBench> Benches;
  std::vector<KernelRow> Rows;
  LayerCounts LC;
  bool Corrupt = false;
  auto Pass = [&](bool Traced) {
    // The previous pass's kernels are released only once this pass has
    // loaded its own.
    std::vector<KernelRow> Previous = std::move(Rows);
    Benches.clear();
    Benches = kernelSetup(A);
    Rows = kernelRows(Benches);
    LC = LayerCounts();
    buildRows(R, Benches, Rows, Traced, LC);
    Previous.clear();
    kernelRound(R, Benches, Rows, Corrupt);
  };
  Pass(false);
  native::KernelCache::global().clear();
  double Untraced = timed([&] { Pass(false); });
  startTracing();
  double Traced = timed([&] { Pass(true); });
  simulateRows(R, Benches, Rows, A, LC);
  // More traced rounds for the per-row medians.
  repeatFor(nowS(), A.Seconds, 2,
            [&] { kernelRound(R, Benches, Rows, Corrupt); });
  Log.On = false;
  obs::Tracer::global().disable();

  printLayerTable();
  std::printf("tracing overhead: %.3f s (set-up, build and one round "
              "traced %.3f s, untraced %.3f s)\n",
              Traced - Untraced, Traced, Untraced);
  std::printf("%-28s %14s %14s\n", "row", "run ms 1t", "run ms nt");
  for (const KernelRow &Row : Rows)
    std::printf("%-28s %14.3f %14.3f\n", rowName(Benches, Row).c_str(),
                median(Row.Seconds[0]) * 1e3, median(Row.Seconds[1]) * 1e3);
  layerMetrics(R, LC, Traced - Untraced);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (K == "--corrupt") {
      A.Corrupt = true;
      continue;
    }
    if (!(V = Next()))
      return false;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V);
    else if (K == "--trace")
      A.Trace = std::atoi(V) != 0;
    else if (K == "--trace-file")
      A.TraceFile = V;
    else
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <sweep_model|"
                 "kernels> --seed <n> --seconds <s> "
                 "[--trace 0|1] [--trace-file <path>] [--corrupt]\n");
    return 2;
  }
  Result R;
  addProvenance(R, A);
  std::int64_t LeftBefore = tempLeftovers();
  if (A.Workload == "sweep_model") {
    if (A.Trace)
      sweepWorkloadTraced(A, R);
    else
      sweepWorkload(A, R);
  } else if (A.Workload == "kernels") {
    if (A.Trace)
      kernelsWorkloadTraced(A, R);
    else
      kernelsWorkload(A, R);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  std::int64_t Leftovers = tempLeftovers() - LeftBefore;
  if (A.Trace) {
    R.metric("native.temp_leftovers", double(Leftovers), "count");
    if (!A.TraceFile.empty() &&
        !obs::Tracer::global().writeChromeJson(A.TraceFile))
      R.op(false, "cannot write trace " + A.TraceFile);
  }
  R.op(Leftovers == 0, std::to_string(Leftovers) + " temp entries left");

  Value Metrics = Value::makeObject();
  for (const auto &[Name, V, Unit] : R.Metrics) {
    Value M = Value::makeObject();
    M.set("value", Value::number(V));
    M.set("unit", Value::string(Unit));
    Metrics.set(Name, std::move(M));
  }
  Value Out = Value::makeObject();
  Out.set("workload", Value::string(A.Workload));
  Out.set("correct", Value::boolean(R.Failed == 0));
  Out.set("attempted", Value::number(double(R.Attempted)));
  Out.set("failed", Value::number(double(R.Failed)));
  Out.set("metrics", std::move(Metrics));
  Out.set("provenance", std::move(R.Provenance));
  std::printf("%s\n", Out.serialize().c_str());
  std::fflush(stdout);
  return 0;
}
