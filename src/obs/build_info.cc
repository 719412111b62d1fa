#include "obs/build_info.h"

#include <sstream>

#include "util/bitset.h"
#include "util/string_util.h"

#ifndef PAYGO_BUILD_SANITIZER
#define PAYGO_BUILD_SANITIZER ""
#endif
#ifndef PAYGO_BUILD_TYPE
#define PAYGO_BUILD_TYPE ""
#endif
#ifndef PAYGO_BUILD_CXX_FLAGS
#define PAYGO_BUILD_CXX_FLAGS ""
#endif

namespace paygo {

namespace {

const char* CompilerString() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& GetBuildInfo() {
  static const BuildInfo* info = [] {
    auto* b = new BuildInfo();
    b->kernel = DynamicBitset::KernelName();
#if defined(PAYGO_TRACING_DISABLED)
    b->tracing_compiled = false;
#else
    b->tracing_compiled = true;
#endif
    b->sanitizer = PAYGO_BUILD_SANITIZER;
    b->build_type = PAYGO_BUILD_TYPE;
    b->compiler = CompilerString();
    b->cxx_flags = PAYGO_BUILD_CXX_FLAGS;
    return b;
  }();
  return *info;
}

std::string BuildInfoJson() {
  const BuildInfo& b = GetBuildInfo();
  std::ostringstream os;
  os << "{\"kernel\": \"" << JsonEscape(b.kernel) << "\""
     << ", \"tracing_compiled\": " << (b.tracing_compiled ? "true" : "false")
     << ", \"sanitizer\": \"" << JsonEscape(b.sanitizer) << "\""
     << ", \"build_type\": \"" << JsonEscape(b.build_type) << "\""
     << ", \"compiler\": \"" << JsonEscape(b.compiler) << "\""
     << ", \"cxx_flags\": \"" << JsonEscape(b.cxx_flags) << "\"}";
  return os.str();
}

std::string BuildInfoText() {
  const BuildInfo& b = GetBuildInfo();
  std::ostringstream os;
  os << "paygo build info\n"
     << "  bitset kernel: " << b.kernel << "\n"
     << "  tracing compiled: " << (b.tracing_compiled ? "yes" : "no") << "\n"
     << "  sanitizer: " << (b.sanitizer.empty() ? "(none)" : b.sanitizer)
     << "\n"
     << "  build type: " << (b.build_type.empty() ? "(unset)" : b.build_type)
     << "\n"
     << "  compiler: " << b.compiler << "\n"
     << "  cxx flags: " << (b.cxx_flags.empty() ? "(none)" : b.cxx_flags)
     << "\n";
  return os.str();
}

}  // namespace paygo
