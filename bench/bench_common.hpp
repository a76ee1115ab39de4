// Shared helper for bench binaries: print the reproduced paper artifact
// first (unless --benchmark_filter selects benchmarks to measure, see
// wants_report), then run the google-benchmark timing section. Reports phrase
// their sweeps as api::Query lists on one api::Session per report (the
// session owns the pool; Session::run mirrors every named run into the
// global registry for --sweep-json).
//
// Sweep plumbing (parsed before google-benchmark sees argv):
//   --sweep-threads=N    thread count of the report's Session and of the
//                        benchmarks' pools (default: hardware_concurrency)
//   --sweep-json=PATH    dump all sweeps run by the report as JSON; the
//                        document is byte-identical for every N
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>
#include <string_view>

#include "api/api.hpp"
#include "runtime/sweep/cli.hpp"

namespace topocon {

/// --sweep-threads of this binary, for its report's Session and its
/// benchmarks' pools (google-benchmark calls benchmarks without it). Set
/// once by TOPOCON_BENCH_MAIN before either runs.
inline int bench_threads = 0;

/// Whether to print the report before the benchmarks: always, except
/// under --benchmark_filter without --sweep-json. A filtered run measures
/// only the benchmarks it selects, so it skips the report's sweeps;
/// --sweep-json asks for exactly those sweeps, so it keeps the report.
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
    topocon::bench_threads = sweep_options.num_threads;                 \
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
