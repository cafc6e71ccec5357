//===- BenchSupport.h - Shared harness helpers -----------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small formatting and driver helpers shared by the table/figure
/// harness binaries.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_BENCH_BENCHSUPPORT_H
#define LIFT_BENCH_BENCHSUPPORT_H

#include "obs/Json.h"
#include "obs/Obs.h"
#include "stencil/Benchmarks.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace lift {
namespace bench {

/// "4096x4096"
inline std::string extentsToString(const stencil::Extents &E) {
  std::string S;
  for (std::size_t I = 0; I != E.size(); ++I) {
    if (I != 0)
      S += "x";
    S += std::to_string(E[I]);
  }
  return S;
}

inline void printRule(int Width = 100) {
  for (int I = 0; I != Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

/// Parses `--jobs N` / `--jobs=N` from the command line: the number of
/// threads candidate evaluation and the simulator may use. 0 (the
/// default) means all hardware workers.
inline unsigned parseJobs(int Argc, char **Argv, unsigned Default = 0) {
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc)
      return unsigned(std::atoi(Argv[I + 1]));
    if (std::strncmp(Argv[I], "--jobs=", 7) == 0)
      return unsigned(std::atoi(Argv[I] + 7));
  }
  return Default;
}

/// Arms the observability session from the shared --trace/--metrics/
/// --obs-report flags (obs/Obs.h). Declare at the top of a harness
/// main; finish() at the end (or the destructor) writes the files.
inline obs::ObsSession obsSessionFromArgs(int Argc, char **Argv) {
  return obs::ObsSession(obs::parseObsOptions(Argc, Argv));
}

/// Build/host provenance for --json snapshot outputs: compiler
/// version and flags, CPU model and hostname, so a snapshot records
/// *who* produced the numbers. Returns a serialized JSON object;
/// harnesses embed it under a "meta" key. tools/bench_diff skips the
/// block when comparing (host identity is not a perf metric).
inline std::string benchMetaJson() {
  using obs::json::Value;
  Value M = Value::makeObject();
#ifdef __VERSION__
  M.set("compiler", Value::string(__VERSION__));
#else
  M.set("compiler", Value::string("unknown"));
#endif
#ifdef LIFT_BENCH_CXX_FLAGS
  M.set("cxx_flags", Value::string(LIFT_BENCH_CXX_FLAGS));
#endif
#ifdef LIFT_BENCH_BUILD_TYPE
  M.set("build_type", Value::string(LIFT_BENCH_BUILD_TYPE));
#endif
  std::string Cpu = "unknown";
  if (std::FILE *F = std::fopen("/proc/cpuinfo", "r")) {
    char Line[512];
    while (std::fgets(Line, sizeof(Line), F)) {
      if (std::strncmp(Line, "model name", 10) == 0) {
        if (const char *Colon = std::strchr(Line, ':')) {
          Cpu = Colon + 1;
          while (!Cpu.empty() && (Cpu.front() == ' ' || Cpu.front() == '\t'))
            Cpu.erase(Cpu.begin());
          while (!Cpu.empty() &&
                 (Cpu.back() == '\n' || Cpu.back() == '\r' ||
                  Cpu.back() == ' '))
            Cpu.pop_back();
        }
        break;
      }
    }
    std::fclose(F);
  }
  M.set("cpu", Value::string(Cpu));
  std::string Host = "unknown";
#if defined(__unix__) || defined(__APPLE__)
  char Buf[256] = {};
  if (gethostname(Buf, sizeof(Buf) - 1) == 0 && Buf[0])
    Host = Buf;
#endif
  M.set("hostname", Value::string(Host));
  return M.serialize();
}

} // namespace bench
} // namespace lift

#endif // LIFT_BENCH_BENCHSUPPORT_H
