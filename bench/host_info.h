// The host block of a committed BENCH_*.json record: the fields that make
// its wall times comparable (CPU, core count, compiler, flags, git
// revision), named as in perfbench's host line. The compiler and flags
// come from the build (CMakeLists.txt defines them for the bench
// targets); the revision is asked of git in the source tree at run time,
// so a rebuilt binary never reports a stale one.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "util/json.h"

#ifndef DRAMDIG_BENCH_COMPILER
#define DRAMDIG_BENCH_COMPILER "unknown"
#endif
#ifndef DRAMDIG_BENCH_FLAGS
#define DRAMDIG_BENCH_FLAGS "unknown"
#endif
#ifndef DRAMDIG_SOURCE_DIR
#define DRAMDIG_SOURCE_DIR "."
#endif

namespace dramdig::bench {

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// HEAD of the source tree's checkout, or "unavailable" outside one.
inline std::string git_revision() {
  const std::string cmd = std::string("git -C '") + DRAMDIG_SOURCE_DIR +
                          "' rev-parse HEAD 2>/dev/null";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unavailable";
  char buf[128] = {};
  const bool got = std::fgets(buf, sizeof buf, pipe) != nullptr;
  ::pclose(pipe);
  std::string rev = got ? buf : "";
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unavailable" : rev;
}

/// Emits `"host": {cpu, nproc, compiler, flags, revision}`.
inline void write_host_block(json_writer& w) {
  w.key("host").begin_object();
  w.key("cpu").value(cpu_model());
  w.key("nproc").value(std::thread::hardware_concurrency());
  w.key("compiler").value(DRAMDIG_BENCH_COMPILER);
  w.key("flags").value(DRAMDIG_BENCH_FLAGS);
  w.key("revision").value(git_revision());
  w.end_object();
}

}  // namespace dramdig::bench
