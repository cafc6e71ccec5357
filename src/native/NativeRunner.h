//===- NativeRunner.h - Compile-and-run-natively ---------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native execution backend: takes a compiled kernel AST, splits
/// its grid loops into edge and clamp-free interior loops
/// (analysis/InteriorSpec.h), emits C (native/CEmitter.h), invokes the
/// host C compiler on it in a private temp directory, dlopen()s the
/// resulting shared object and runs the entry point with the same
/// buffer/size conventions as the simulator runner
/// (codegen/Runner.h). This is the "real hardware" leg the
/// paper measured on GPUs, reproduced on the host CPU: the simulator
/// stays the bit-exact correctness oracle while wall-clock time comes
/// from actual execution.
///
/// Everything that can fail for environmental reasons (no compiler,
/// compile error, missing symbol) throws a subclass of
/// lift::RecoverableError carrying the compiler diagnostics, so
/// drivers can degrade gracefully. A run that does not fit its kernel
/// (wrong input count or length, an unbound size, a grid other than
/// the one the kernel was lowered for) throws NativeError as well.
///
/// Temp hygiene: each compilation gets a fresh mkdtemp directory under
/// $TMPDIR (default /tmp) which is removed on *every* path — success,
/// compile failure, dlopen/dlsym failure. The shared object is
/// unlinked while still mapped (safe on POSIX), so a crash cannot
/// leave binaries behind either.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_NATIVE_NATIVERUNNER_H
#define LIFT_NATIVE_NATIVERUNNER_H

#include "codegen/CodeGen.h"
#include "native/CEmitter.h"
#include "ocl/Sim.h"
#include "support/Support.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace lift {
namespace native {

//===----------------------------------------------------------------------===//
// Errors and options
//===----------------------------------------------------------------------===//

/// Base of every recoverable native-backend failure.
class NativeError : public RecoverableError {
public:
  using RecoverableError::RecoverableError;
};

/// No usable host C compiler was found.
class CompilerNotFoundError : public NativeError {
public:
  using NativeError::NativeError;
};

/// The host compiler rejected the emitted source (or died). what()
/// includes the diagnostics; Source carries the full emitted C for
/// artifacts.
class CompileFailedError : public NativeError {
public:
  CompileFailedError(const std::string &Msg, std::string Diagnostics,
                     std::string Source)
      : NativeError(Msg), Diagnostics(std::move(Diagnostics)),
        Source(std::move(Source)) {}
  std::string Diagnostics;
  std::string Source;
};

/// dlopen succeeded but the entry symbol is missing.
class SymbolNotFoundError : public NativeError {
public:
  using NativeError::NativeError;
};

struct NativeOptions {
  /// Compiler executable. Empty selects the first usable of
  /// $LIFT_NATIVE_CC, $CC, cc, gcc, clang.
  std::string CompilerPath;
  /// Host compiler optimization level (-O<n>).
  int OptLevel = 2;
  /// Emit with CEmitOptions::Profile: region timers, sequential
  /// execution. The entry signature is the same as without it.
  bool Profile = false;
};

/// Resolves the compiler per NativeOptions::CompilerPath; throws
/// CompilerNotFoundError when nothing usable exists.
std::string findCompiler(const NativeOptions &O = {});

/// Compiles and loads a trivial translation unit, verifying the whole
/// toolchain path (compiler, shared objects, dlopen) works. Throws a
/// NativeError subclass describing the first broken step.
void probeToolchain(const NativeOptions &O = {});

//===----------------------------------------------------------------------===//
// What the backend compiles
//===----------------------------------------------------------------------===//

/// The kernel the native backend compiles for a kernel AST, and its C.
struct NativeSource {
  /// The interior-specialized form (analysis::specializeInterior);
  /// kernels the splitter does not apply to, such as tiled ones, come
  /// back unchanged, and so does a kernel that is specialized already.
  ocl::Kernel K;
  std::string Source; ///< emitC(K, options)
};

/// The one place that decides what native code \p K becomes: its
/// interior-specialized form, printed by emitC under \p O.
/// compileKernel, KernelCache::getOrCompile and `liftc emit --backend
/// native` all go through it.
NativeSource emitNative(const ocl::Kernel &K, const CEmitOptions &O = {});

//===----------------------------------------------------------------------===//
// Loaded kernels
//===----------------------------------------------------------------------===//

/// A dlopen()ed native kernel. Owns the library handle; the mapping
/// (and the entry pointer) stays valid for the object's lifetime even
/// though the backing file is already unlinked. The library is loaded
/// with RTLD_NODELETE, so dlclose never unmaps it (nor the OpenMP
/// runtime it pulled in) while runtime threads may still run there.
class NativeKernel {
public:
  /// The positional ABI emitted by CEmitter: \p Prof points at one
  /// double per profile region, accumulated into by profile-mode
  /// kernels and ignored by the others.
  using EntryFn = void (*)(void **Bufs, const long long *Sizes,
                           int Threads, double *Prof);

  NativeKernel(void *Handle, void *Sym, std::string Source,
               std::shared_ptr<const ocl::Kernel> Emitted = nullptr);
  ~NativeKernel();
  NativeKernel(const NativeKernel &) = delete;
  NativeKernel &operator=(const NativeKernel &) = delete;

  EntryFn entry() const;
  /// The emitted C source (kept for mismatch artifacts / debugging).
  const std::string &source() const { return Source; }
  /// The kernel AST the source was printed from, whose profile regions
  /// index the entry's `lift_prof`; null for C given to compileCSource.
  /// A cached kernel serves alpha-equivalent lowerings too, so its
  /// variables may not be the caller's: its SizeArgs bind by position.
  const ocl::Kernel *emitted() const { return Emitted.get(); }

private:
  void *Handle = nullptr;
  void *Sym = nullptr;
  std::string Source;
  std::shared_ptr<const ocl::Kernel> Emitted;
};

using NativeKernelPtr = std::shared_ptr<const NativeKernel>;

/// Compiles \p Source (a complete C translation unit) into a shared
/// object and resolves \p EntryName. Building block of compileKernel
/// and directly testable for the error paths. Compiles with -fopenmp
/// so the emitter's pragmas take effect; if that fails (e.g. clang
/// without libomp) it retries once with -fopenmp-simd instead — the
/// thread pragmas are then ignored and the kernel runs single-threaded,
/// which is always correct, while the simd pragmas still vectorize.
/// The retry needs a compiler that knows -fopenmp-simd (gcc >= 4.9,
/// clang >= 3.7).
NativeKernelPtr compileCSource(const std::string &Source,
                               const std::string &EntryName,
                               const NativeOptions &O = {});

/// Compiles emitNative(\p K) and keeps its kernel AST on the result.
/// The entry name is the kernel name (sanitized by the emitter).
NativeKernelPtr compileKernel(const ocl::Kernel &K,
                              const NativeOptions &O = {});

//===----------------------------------------------------------------------===//
// Compiled-kernel cache
//===----------------------------------------------------------------------===//

/// Process-wide cache of compiled kernels, keyed by what is compiled:
/// the emitNative source, the resolved compiler and the optimization
/// level. So a kernel and its interior-specialized form (one source)
/// share a binary, its profile-mode build (timers in the source) does
/// not, and alpha-equivalent lowerings (same source, positional ABI)
/// share one binary — the property the tuner exploits to compile each
/// distinct lowering once per sweep.
///
/// Thread-safe with in-flight deduplication (first caller compiles,
/// concurrent callers wait). Compile failures are cached and rethrown
/// so a broken toolchain fails fast instead of re-invoking cc per
/// candidate. Hit/miss totals feed the "native.cache.*" metrics.
class KernelCache {
public:
  static KernelCache &global();

  /// Returns the cached kernel compiled from emitNative(\p K) under
  /// \p O, compiling on first use. Throws NativeError on (possibly
  /// cached) compile failure, and CompilerNotFoundError, uncached, when
  /// \p O names no usable compiler.
  NativeKernelPtr getOrCompile(const ocl::Kernel &K,
                               const NativeOptions &O = {});
  /// The same; a lowered program's hash is no part of a kernel's
  /// identity, so \p LoweredHash is ignored.
  NativeKernelPtr getOrCompile(std::uint64_t LoweredHash,
                               const ocl::Kernel &K,
                               const NativeOptions &O = {}) {
    (void)LoweredHash;
    return getOrCompile(K, O);
  }

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  void clear();

private:
  struct Entry;
  mutable std::mutex M;
  /// Keyed by compiler, opt level and source (see getOrCompile).
  std::unordered_map<std::string, std::shared_ptr<Entry>> Map;
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
};

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

/// One native execution's results: the output buffer, the best
/// (minimum over repeats) wall-clock time of a single kernel call and
/// that call's per-region seconds (profileRegions() order of the
/// emitted kernel; zeros unless it was emitted in profile mode).
struct NativeRunResult {
  std::vector<float> Output;
  double Seconds = 0;
  std::vector<double> RegionSeconds;
};

/// Runs a loaded kernel with the simulator runner's conventions: one
/// flat float vector per program input (ints converted like
/// ParallelExecutor::bindInput), sizes bound by ArithExpr variable id,
/// output returned as floats. \p Threads is the OpenMP thread count
/// (0 = all hardware threads; profile-mode kernels run sequentially
/// whatever it is). Executes \p Warmup + \p Repeats times on the same
/// buffers and reports the fastest repeat; timed sections are
/// serialized process-wide so concurrent measurements cannot
/// contaminate each other. Throws NativeError when \p Inputs or
/// \p Sizes do not fit the kernel, including a size outside the values
/// the kernel was lowered for (ocl::SizeArg::Valid). The profile
/// regions are those of \p Kern's emitted kernel, or of \p C.K for C
/// compiled directly with compileCSource.
NativeRunResult runNative(const codegen::Compiled &C,
                          const NativeKernel &Kern,
                          const std::vector<std::vector<float>> &Inputs,
                          const ocl::SizeEnv &Sizes, unsigned Threads = 1,
                          unsigned Warmup = 0, unsigned Repeats = 1);

} // namespace native
} // namespace lift

#endif // LIFT_NATIVE_NATIVERUNNER_H
