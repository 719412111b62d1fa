#ifndef PAYGO_OBS_BUILD_INFO_H_
#define PAYGO_OBS_BUILD_INFO_H_

/// \file build_info.h
/// \brief Build-provenance snapshot: which kernels, toggles, and compiler
/// produced this binary.
///
/// A fleet mixes binaries — a replica on a CPU with hardware popcount
/// answers faster than one on the portable kernel, a TSan shard is 10x
/// slower by design — and latency triage goes nowhere until that skew is
/// visible. This module records the relevant configuration: the bitset
/// popcount kernel chosen at run time (`DynamicBitset::KernelName()`), and,
/// baked in at compile time, the tracing and sanitizer CMake toggles and
/// the compiler plus flags. Surfaced as a `"build_info"`
/// section in `/statusz` and by `paygo_cli --version`.

#include <string>

namespace paygo {

/// \brief Build configuration of this binary, plus its run-time kernel.
struct BuildInfo {
  std::string kernel;      ///< bitset kernel chosen at run time: "popcnt",
                           ///< "neon", or "unrolled".
  bool tracing_compiled;   ///< PAYGO_TRACING (span sites compiled in).
  std::string sanitizer;   ///< PAYGO_SANITIZE: "", "thread", or "address".
  std::string build_type;  ///< CMAKE_BUILD_TYPE, e.g. "RelWithDebInfo".
  std::string compiler;    ///< Compiler id + version (__VERSION__).
  std::string cxx_flags;   ///< CMAKE_CXX_FLAGS as configured.
};

/// The configuration this binary was built with.
const BuildInfo& GetBuildInfo();

/// One JSON object, e.g. `{"kernel": "popcnt", "tracing_compiled": true,
/// "sanitizer": "", "build_type": "RelWithDebInfo", "compiler": "...",
/// "cxx_flags": "..."}`. Spliced into `/statusz`.
std::string BuildInfoJson();

/// Human-readable multi-line form (`paygo_cli --version`).
std::string BuildInfoText();

}  // namespace paygo

#endif  // PAYGO_OBS_BUILD_INFO_H_
