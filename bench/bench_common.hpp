// Shared helper for bench binaries: print the reproduced paper artifact
// first (unless --benchmark_filter selects benchmarks to measure, see
// wants_report), then run the google-benchmark timing section. Reports phrase
// their sweeps as api::Query lists on one api::Session per report (the
// session owns the pool; Session::run mirrors every named run into the
// global registry for --sweep-json).
//
// Sweep plumbing (parsed before google-benchmark sees argv):
//   --sweep-threads=N    session thread count for the report's sweeps
//                        (default: hardware_concurrency)
//   --sweep-json=PATH    dump all sweeps run by the report as JSON; the
//                        document is byte-identical for every N
#pragma once

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <iostream>
#include <string_view>

#include "api/api.hpp"
#include "runtime/sweep/cli.hpp"

namespace topocon {

/// Process-lifetime peak resident set in bytes (getrusage ru_maxrss is
/// KiB on Linux); 0 when unavailable. Attached to benchmark rows as the
/// "peak_rss_bytes" counter so the bench regression gate
/// (runtime/sweep/bench_compare.hpp) can catch memory regressions, not
/// just time ones. Lifetime-max semantics mean the counter is only
/// meaningful under a --filter that isolates the benchmark -- exactly
/// how the gate lane runs (tools/bench_gate.cmake).
inline void set_peak_rss_counter(benchmark::State& state) {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return;
  state.counters["peak_rss_bytes"] =
      benchmark::Counter(static_cast<double>(usage.ru_maxrss) * 1024.0);
}

/// Whether to print the report before the benchmarks: always, except
/// under --benchmark_filter without --sweep-json. A filtered run measures
/// the benchmarks it selects, and peak_rss_bytes is a process-lifetime
/// maximum that the report's sweeps would otherwise set; --sweep-json
/// asks for exactly those sweeps, so it keeps the report.
inline bool wants_report(int argc, char** argv,
                         const sweep::SweepCliOptions& sweep_options) {
  if (!sweep_options.json_path.empty()) return true;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_filter")) {
      return false;
    }
  }
  return true;
}

}  // namespace topocon

#define TOPOCON_BENCH_MAIN(print_report)                                 \
  int main(int argc, char** argv) {                                      \
    const topocon::sweep::SweepCliOptions sweep_options =                \
        topocon::sweep::consume_sweep_args(&argc, argv);                 \
    if (topocon::wants_report(argc, argv, sweep_options)) {              \
      print_report(std::cout);                                           \
    }                                                                    \
    ::benchmark::Initialize(&argc, argv);                                \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;  \
    ::benchmark::RunSpecifiedBenchmarks();                               \
    ::benchmark::Shutdown();                                             \
    if (!topocon::sweep::flush_sweep_json(sweep_options)) return 1;      \
    return 0;                                                            \
  }
