// Santoro-Widmayer omission adversaries (Section 6.1, [21, 22]): sweep the
// per-round omission budget f for a chosen n on the parallel sweep engine,
// and contrast the extracted universal algorithm with the FloodMin
// baseline on sampled runs.
//
// Usage: omission_sweep [N] [--sweep-threads=T] [--sweep-json=PATH]
//   N                  processes (2 or 3; default 3)
//   --sweep-threads=T  engine threads (default: hardware concurrency)
//   --sweep-json=PATH  write the sweep results as JSON (byte-identical
//                      for every T)
#include <iostream>
#include <random>
#include <string>

#include "adversary/family.hpp"
#include "adversary/sampler.hpp"
#include "analysis/oracles.hpp"
#include "analysis/report.hpp"
#include "api/api.hpp"
#include "runtime/flood_min.hpp"
#include "runtime/simulator.hpp"
#include "runtime/sweep/cli.hpp"
#include "runtime/universal_runner.hpp"
#include "runtime/verify.hpp"

int main(int argc, char** argv) {
  using namespace topocon;
  const sweep::SweepCliOptions sweep_options =
      sweep::consume_sweep_args(&argc, argv);
  const int n = argc > 1 ? std::stoi(argv[1]) : 3;
  if (n < 2 || n > 3) {
    std::cerr << "N must be 2 or 3\n";
    return 2;
  }

  api::Session session({.num_threads = sweep_options.num_threads});
  std::cout << "Omission sweep, n = " << n << " (" << session.num_threads()
            << " thread(s))\n\n";
  const int max_f = n * (n - 1);
  std::vector<api::Query> queries;
  SolvabilityOptions options;
  options.max_depth = n == 2 ? 6 : 3;
  options.max_states = 6'000'000;
  for (int f = 0; f <= max_f; ++f) {
    queries.push_back(api::solvability({"omission", n, f}, options));
  }
  const std::vector<sweep::JobOutcome> outcomes =
      session.run("omission-sweep-n" + std::to_string(n), queries);

  Table table({"f", "oracle [21,22]", "checker", "universal T/A/V (sampled)",
               "FloodMin(n-1) T/A/V (sampled)"});
  std::mt19937_64 rng(5);
  for (int f = 0; f <= max_f; ++f) {
    const SolvabilityResult& result =
        outcomes[static_cast<std::size_t>(f)].result;
    const auto ma = make_family_adversary({"omission", n, f});

    std::string universal = "-";
    if (result.table.has_value()) {
      const UniversalAlgorithm algo(*result.table);
      int ok = 0;
      const int runs = 100;
      for (int trial = 0; trial < runs; ++trial) {
        const InputVector inputs = sample_inputs(n, 2, rng);
        const RunPrefix prefix =
            sample_prefix(*ma, inputs, result.certified_depth + 1, rng);
        ok += check_consensus(simulate(algo, prefix), inputs).ok();
      }
      universal = std::to_string(ok) + "/" + std::to_string(runs);
    }

    const FloodMinAlgorithm flood(n - 1);
    int flood_ok = 0;
    const int runs = 100;
    for (int trial = 0; trial < runs; ++trial) {
      const InputVector inputs = sample_inputs(n, 2, rng);
      const RunPrefix prefix = sample_prefix(*ma, inputs, n - 1, rng);
      flood_ok += check_consensus(simulate(flood, prefix), inputs).ok();
    }

    table.add_row({std::to_string(f),
                   omission_solvable(n, f) ? "solvable" : "impossible",
                   to_string(result.verdict), universal,
                   std::to_string(flood_ok) + "/" + std::to_string(runs)});
  }
  table.print(std::cout);
  std::cout << "\nThe solvability threshold f = n-2 = " << n - 2
            << " (Santoro-Widmayer).\n";
  return sweep::flush_sweep_json(sweep_options) ? 0 : 1;
}
