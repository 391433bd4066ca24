#include "util/build_info.h"

#include "numeric/kernel_backend.h"
#include "obs/perf_counters.h"
#include "util/json_util.h"
#include "util/thread_pool.h"

// Fallbacks keep the file buildable outside CMake (e.g. quick compiler
// one-offs); the real values are compile definitions scoped to this file.
#ifndef TG_GIT_SHA
#define TG_GIT_SHA "unknown"
#endif
#ifndef TG_COMPILER
#define TG_COMPILER "unknown"
#endif
#ifndef TG_CXX_FLAGS
#define TG_CXX_FLAGS ""
#endif
#ifndef TG_BUILD_TYPE
#define TG_BUILD_TYPE "unknown"
#endif
#ifndef TG_SANITIZE_MODE
#define TG_SANITIZE_MODE "none"
#endif

namespace tg {

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_sha = TG_GIT_SHA;
    b.compiler = TG_COMPILER;
    b.flags = TG_CXX_FLAGS;
    b.build_type = TG_BUILD_TYPE;
    b.sanitizer = TG_SANITIZE_MODE;
    if (b.sanitizer.empty()) b.sanitizer = "none";
    b.cxx_standard = __cplusplus;
    return b;
  }();
  return info;
}

std::string BuildInfoJson() {
  const BuildInfo& info = GetBuildInfo();
  std::string out = "{";
  out += "\"git_sha\":" + JsonQuote(info.git_sha);
  out += ",\"compiler\":" + JsonQuote(info.compiler);
  out += ",\"flags\":" + JsonQuote(info.flags);
  out += ",\"build_type\":" + JsonQuote(info.build_type);
  out += ",\"sanitizer\":" + JsonQuote(info.sanitizer);
  out += ",\"cxx_standard\":" + std::to_string(info.cxx_standard);
  // Runtime facts, not build facts -- but bench_timings.json embeds exactly
  // one build_info object, and both knobs shape every timing in the file.
  out += ",\"tg_threads\":" + std::to_string(ThreadCount());
  out += ",\"numeric_backend\":" +
         JsonQuote(kernels::ActiveBackendName());
  // "disabled" | "ok" | "unavailable": whether the counter fields elsewhere
  // in the artifact mean anything (see obs/perf_counters.h).
  out += ",\"perf_counters\":" +
         JsonQuote(obs::PerfCountersStatusString());
  out += "}";
  return out;
}

}  // namespace tg
