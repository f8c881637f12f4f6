// Provenance header for the BENCH_*.json reports: the machine, build
// and commit a measurement came from, with the keys kgqbench/run.py
// writes, so two reports can be diffed knowing what differs. The
// commit fields come from `git` in the working directory and are null
// outside a checkout; `src_dirty` flags uncommitted changes under src/.

#ifndef KGQ_BENCH_PROVENANCE_H_
#define KGQ_BENCH_PROVENANCE_H_

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "obs/json_writer.h"
#include "obs/registry.h"

namespace kgq::bench {

inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

/// First line of a shell command's stdout, or nullopt when it fails.
inline std::optional<std::string> CommandLine(const char* cmd) {
  FILE* pipe = popen(cmd, "r");
  if (pipe == nullptr) return std::nullopt;
  char buf[256];
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
  if (pclose(pipe) != 0) return std::nullopt;
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

/// Writes the "provenance" key and object into the open object of `w`.
inline void WriteProvenance(obs::JsonWriter* w) {
  w->Key("provenance");
  w->BeginObject();
  w->Key("nproc");
  w->UInt(std::thread::hardware_concurrency());
  w->Key("cpu_model");
  w->String(CpuModel());
  w->Key("compiler");
  w->String(KGQ_BENCH_COMPILER);
  w->Key("build_type");
  w->String(KGQ_BENCH_BUILD_TYPE);
  w->Key("kgq_obs_compiled_in");
  w->Bool(obs::kCompiledIn);
  w->Key("kgq_obs_runtime_enabled");
  w->Bool(obs::Registry::Enabled());
  std::optional<std::string> sha =
      CommandLine("git rev-parse HEAD 2>/dev/null");
  w->Key("git_sha");
  if (sha.has_value()) {
    w->String(*sha);
  } else {
    w->Null();
  }
  w->Key("src_dirty");
  std::optional<std::string> dirty =
      CommandLine("git status --porcelain -- src 2>/dev/null | head -n 1");
  if (sha.has_value() && dirty.has_value()) {
    w->Bool(!dirty->empty());
  } else {
    w->Null();
  }
  w->EndObject();
}

}  // namespace kgq::bench

#endif  // KGQ_BENCH_PROVENANCE_H_
