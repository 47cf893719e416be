#pragma once
// Shared helpers for the reproduction benches.
//
// Every bench binary prints its paper artifact (table or figure series)
// first, then runs google-benchmark timers over the underlying kernels, so
// `for b in build/bench/*; do $b; done` regenerates the whole evaluation.
// A --benchmark_filter other than NONE runs the selected timers alone.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/kernels.hpp"

namespace qucp::bench {

inline void heading(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Emit the shared "meta" block every BENCH_*.json carries: compiler,
/// effective flags and the CPU feature set the run saw, so perf
/// trajectories recorded on different boxes/configurations stay
/// comparable. Call between the schema line and the results array.
inline void write_meta_json(std::FILE* f) {
#if defined(QUCP_BENCH_BUILD_FLAGS)
  const std::string flags = QUCP_BENCH_BUILD_FLAGS;
#else
  const std::string flags;
#endif
#if defined(__VERSION__)
  const std::string compiler =
#if defined(__clang__)
      std::string("clang ") + __VERSION__;
#else
      std::string("gcc ") + __VERSION__;
#endif
#else
  const std::string compiler = "unknown";
#endif
  const kern::CpuFeatures cpu = kern::detect_cpu_features();
  // hw_threads disambiguates threading-sensitive rows (parallel_for split
  // points, dense_simd timings): a 1-core box cannot see multi-thread
  // crossovers, and the artifact should say so.
  std::fprintf(f,
               "  \"meta\": {\"compiler\": \"%s\", \"flags\": \"%s\", "
               "\"cpu\": {\"avx2\": %s, \"fma\": %s}, "
               "\"hw_threads\": %u, "
               "\"native_kernels\": {\"compiled\": %s, \"active\": %s}},\n",
               json_escape(compiler).c_str(), json_escape(flags).c_str(),
               cpu.avx2 ? "true" : "false", cpu.fma ? "true" : "false",
               std::thread::hardware_concurrency(),
               kern::native_kernels_compiled() ? "true" : "false",
               kern::native_kernels_active() ? "true" : "false");
}

inline void row(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& c : cells) {
    std::printf("%-*s", width, c.c_str());
  }
  std::printf("\n");
}

inline void rule(std::size_t cells, int width = 14) {
  std::printf("%s\n", std::string(cells * static_cast<std::size_t>(width),
                                  '-')
                          .c_str());
}

/// False when argv picks timers with a --benchmark_filter other than NONE
/// (the last one given counts, as in google-benchmark), or only lists them
/// (--benchmark_list_tests, --benchmark_list_tests=true): such a run skips
/// the paper artifact, so it neither spends the tables' time nor rewrites
/// the BENCH_*.json files with them. An empty filter or "all" selects
/// every timer and counts as no filter.
inline bool tables_requested(int argc, char** argv) {
  constexpr std::string_view kFlag = "--benchmark_filter=";
  std::string_view filter;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--benchmark_list_tests" ||
        arg == "--benchmark_list_tests=true") {
      return false;
    }
    if (arg.substr(0, kFlag.size()) == kFlag) filter = arg.substr(kFlag.size());
  }
  return filter.empty() || filter == "all" || filter == "NONE";
}

}  // namespace qucp::bench

/// Print the paper artifact unless the arguments pick timers only (see
/// tables_requested), then hand over to google-benchmark.
#define QUCP_BENCH_MAIN(print_artifact)                  \
  int main(int argc, char** argv) {                      \
    if (::qucp::bench::tables_requested(argc, argv)) {   \
      print_artifact();                                  \
    }                                                    \
    ::benchmark::Initialize(&argc, argv);                \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();               \
    ::benchmark::Shutdown();                             \
    return 0;                                            \
  }
