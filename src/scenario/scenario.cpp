#include "scenario/scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "adversary/family.hpp"
#include "scenario/fuzz.hpp"

namespace topocon::scenario {

namespace {

using api::Query;

/// Applies --param-min/--param-max on top of a default interval, clamped
/// nowhere: leaving the family's valid range is reported by family_grid.
std::pair<int, int> override_range(const GridOverrides& overrides,
                                   int default_min, int default_max) {
  return {overrides.param_min.value_or(default_min),
          overrides.param_max.value_or(default_max)};
}

std::vector<Query> build_omission(const GridOverrides& overrides) {
  const int n = overrides.n.value_or(3);
  const FamilyParamRange range = family_param_range("omission", n);
  const auto [f_min, f_max] = override_range(overrides, range.min, range.max);
  std::vector<Query> queries;
  SolvabilityOptions options;
  options.max_depth = n == 2 ? 6 : 3;
  options.max_states = 6'000'000;
  for (const FamilyPoint& point : family_grid("omission", n, f_min, f_max)) {
    queries.push_back(api::solvability(point, options));
  }
  return queries;
}

std::vector<Query> build_omission_n4(const GridOverrides& overrides) {
  // The n = 4 leg of the omission frontier. The depth-3 prefix space has
  // only 16 input-vector roots but millions of states in a heavy level,
  // so this grid is exactly the shape root-only sharding cannot balance
  // -- it exists because the chunked frontier engine spreads each root's
  // levels over every thread (parallel_solver.hpp).
  const int n = overrides.n.value_or(4);
  const FamilyParamRange range = family_param_range("omission", n);
  const auto [f_min, f_max] =
      override_range(overrides, 0, std::min(range.max, 3));
  std::vector<Query> queries;
  SolvabilityOptions options;
  options.max_depth = 3;
  // Enough for the depth-3 certificate of f = 2 (7,888,624 leaf classes);
  // budget-capped points past the frontier report RESOURCE-LIMIT after
  // O(max_states) work (the level budget in parallel_solver.cpp).
  options.max_states = 8'000'000;
  options.build_table = false;
  for (const FamilyPoint& point : family_grid("omission", n, f_min, f_max)) {
    queries.push_back(api::solvability(point, options));
  }
  return queries;
}

std::vector<Query> build_omission_n4_deep(const GridOverrides& overrides) {
  // The out-of-core leg: same grid as omission-n4 but with a state
  // budget sized for the f = 3 depth-3 level (hundreds of millions of
  // states, tens of GiB of frontier) and a 1 GiB in-RAM spill budget, so
  // expanded-but-unmerged chunks stream through temp files instead of
  // resident memory (core/spill.hpp). The artifact is byte-identical to
  // an unconstrained in-RAM run -- spilling is an execution detail under
  // the same determinism contract as chunking. --spill-budget-mb/
  // --spill-dir override the budget per invocation.
  const int n = overrides.n.value_or(4);
  const FamilyParamRange range = family_param_range("omission", n);
  const auto [f_min, f_max] =
      override_range(overrides, 0, std::min(range.max, 3));
  std::vector<Query> queries;
  SolvabilityOptions options;
  options.max_depth = 3;
  options.max_states = 384'000'000;
  options.build_table = false;
  options.spill.budget_bytes = std::uint64_t{1} << 30;
  for (const FamilyPoint& point : family_grid("omission", n, f_min, f_max)) {
    queries.push_back(api::solvability(point, options));
  }
  return queries;
}

std::vector<Query> build_omission_n5(const GridOverrides& overrides) {
  // First n = 5 entry: 20 omission edges, 32 input-vector roots, depth
  // bound 2. f = 2 certifies at depth 2 (1.4M leaf classes); f = 3 --
  // solvable in principle (f <= n-2) -- documents the honest
  // RESOURCE-LIMIT verdict at this budget, the current edge of the
  // frontier. A modest spill budget keeps the peak resident set flat
  // when the f = 2/3 levels get heavy.
  const int n = overrides.n.value_or(5);
  const FamilyParamRange range = family_param_range("omission", n);
  const auto [f_min, f_max] =
      override_range(overrides, 0, std::min(range.max, 3));
  std::vector<Query> queries;
  SolvabilityOptions options;
  options.max_depth = 2;
  options.max_states = 8'000'000;
  options.build_table = false;
  options.spill.budget_bytes = std::uint64_t{512} << 20;
  for (const FamilyPoint& point : family_grid("omission", n, f_min, f_max)) {
    queries.push_back(api::solvability(point, options));
  }
  return queries;
}

std::vector<Query> build_lossy_link_atlas(const GridOverrides& overrides) {
  const auto [mask_min, mask_max] = override_range(overrides, 1, 7);
  std::vector<Query> queries;
  SolvabilityOptions options;
  options.max_depth = 6;
  for (const FamilyPoint& point :
       family_grid("lossy_link", 2, mask_min, mask_max)) {
    queries.push_back(api::solvability(point, options));
  }
  return queries;
}

std::vector<Query> build_heard_of_grid(const GridOverrides& overrides) {
  std::vector<Query> queries;
  const std::vector<int> ns =
      overrides.n.has_value() ? std::vector<int>{*overrides.n}
                              : std::vector<int>{2, 3};
  // The legs have different k ranges (1..n), so the override is checked
  // against their union and then intersected per leg; a leg whose
  // interval empties out is skipped, not an error (--param-min=3 means
  // "only the n=3 leg reaches k=3").
  int union_max = 0;
  for (const int n : ns) {
    union_max = std::max(union_max, family_param_range("heard_of", n).max);
  }
  const auto [k_min, k_max] = override_range(overrides, 1, union_max);
  if (k_min > k_max || k_max < 1 || k_min > union_max) {
    throw std::invalid_argument(
        "heard-of-grid: no k in [" + std::to_string(k_min) + ", " +
        std::to_string(k_max) + "] is valid for any selected n");
  }
  for (const int n : ns) {
    const FamilyParamRange range = family_param_range("heard_of", n);
    const int lo = std::max(k_min, range.min);
    const int hi = std::min(k_max, range.max);
    if (lo > hi) continue;
    SolvabilityOptions options;
    options.max_depth = n == 2 ? 5 : 2;
    options.max_states = 6'000'000;
    for (const FamilyPoint& point : family_grid("heard_of", n, lo, hi)) {
      queries.push_back(api::solvability(point, options));
    }
  }
  return queries;
}

std::vector<Query> build_vssc_windows(const GridOverrides& overrides) {
  const int n = overrides.n.value_or(2);
  const auto [k_min, k_max] = override_range(overrides, 1, 3);
  std::vector<Query> queries;
  SolvabilityOptions options;
  options.max_depth = 3;
  options.max_states = 4'000'000;
  options.build_table = false;
  for (const FamilyPoint& point : family_grid("vssc", n, k_min, k_max)) {
    queries.push_back(api::solvability(point, options));
  }
  return queries;
}

std::vector<Query> build_convergence_curves(const GridOverrides&) {
  std::vector<Query> queries;
  AnalysisOptions lossy;
  lossy.depth = 6;
  for (const int mask : {0b011, 0b101, 0b111}) {
    queries.push_back(api::depth_series({"lossy_link", 2, mask}, lossy));
  }
  AnalysisOptions omission;
  omission.depth = 3;
  omission.max_states = 6'000'000;
  queries.push_back(api::depth_series({"omission", 3, 1}, omission));
  AnalysisOptions finite_loss;
  finite_loss.depth = 4;
  queries.push_back(api::depth_series({"finite_loss", 2, 0}, finite_loss));
  return queries;
}

std::vector<Query> build_decision_tables(const GridOverrides& overrides) {
  // One extraction per solvable n=2 lossy-link subset (mask interval
  // overridable), plus the w=2 windowed certificate. Mask 7 is the
  // impossible full set: kept in the default grid as the "no table"
  // row -- extraction reports the NOT-SEPARATED verdict and no shape.
  const auto [mask_min, mask_max] = override_range(overrides, 1, 7);
  std::vector<Query> queries;
  SolvabilityOptions options;
  options.max_depth = 6;
  for (const FamilyPoint& point :
       family_grid("lossy_link", 2, mask_min, mask_max)) {
    queries.push_back(api::decision_table(point, options));
  }
  SolvabilityOptions windowed;
  windowed.max_depth = 4;
  queries.push_back(
      api::decision_table({"windowed_lossy_link", 2, 2}, windowed));
  return queries;
}

std::vector<Query> build_fuzz_composed(const GridOverrides& overrides) {
  FuzzSpec spec;
  spec.n = overrides.n.value_or(2);
  // --seed/--count are the first-class knobs (--seed carries the full
  // uint64 seed space); --param-min/--param-max remain as legacy aliases
  // from when the generic grid knobs were repurposed, but mixing an
  // override with its own alias is ambiguous and rejected.
  if (overrides.seed.has_value() && overrides.param_min.has_value()) {
    throw std::invalid_argument(
        "fuzz-composed: --seed conflicts with --param-min (the seed "
        "alias); pass one of them");
  }
  if (overrides.count.has_value() && overrides.param_max.has_value()) {
    throw std::invalid_argument(
        "fuzz-composed: --count conflicts with --param-max (the count "
        "alias); pass one of them");
  }
  if (overrides.seed.has_value()) {
    spec.seed = *overrides.seed;
  } else if (overrides.param_min.has_value()) {
    if (*overrides.param_min < 0) {
      throw std::invalid_argument(
          "fuzz-composed: the seed (--param-min) must be >= 0");
    }
    spec.seed = static_cast<std::uint64_t>(*overrides.param_min);
  }
  if (overrides.count.has_value()) {
    spec.count = *overrides.count;
  } else if (overrides.param_max.has_value()) {
    spec.count = *overrides.param_max;
  }
  return fuzz_queries(spec);
}

std::vector<Query> build_atlas(const GridOverrides& overrides) {
  // One family x n x param grid into a single solvability map; the
  // per-leg depth bounds are the smallest that still certify each leg's
  // whole solvable frontier (e.g. omission n=3 certifies f <= 1 by
  // depth 2, see tests/golden/omission-n3.json), so the map is exact yet
  // cheap enough to diff byte-for-byte in every CI configuration.
  // Overrides restrict the grid: --n keeps only that process count's
  // legs, --param-min/--param-max intersect each leg's parameter
  // interval (a leg whose interval empties out is skipped, like
  // heard-of-grid's per-leg intersection).
  if (overrides.n.has_value() && *overrides.n != 2 && *overrides.n != 3) {
    throw std::invalid_argument("atlas: --n must be 2 or 3, got " +
                                std::to_string(*overrides.n));
  }
  std::vector<Query> queries;
  const auto add = [&queries, &overrides](const char* family, int n,
                                          int param_min, int param_max,
                                          int max_depth,
                                          std::size_t max_states) {
    if (overrides.n.has_value() && n != *overrides.n) return;
    const int lo = std::max(param_min, overrides.param_min.value_or(param_min));
    const int hi = std::min(param_max, overrides.param_max.value_or(param_max));
    if (lo > hi) return;
    SolvabilityOptions options;
    options.max_depth = max_depth;
    options.max_states = max_states;
    options.build_table = false;
    for (const FamilyPoint& point : family_grid(family, n, lo, hi)) {
      queries.push_back(api::solvability(point, options));
    }
  };
  add("lossy_link", 2, 1, 7, 6, 2'000'000);
  add("windowed_lossy_link", 2, 1, 3, 4, 2'000'000);
  add("omission", 2, 0, 2, 6, 2'000'000);
  add("omission", 3, 0, 6, 2, 1'000'000);
  add("heard_of", 2, 1, 2, 5, 2'000'000);
  add("heard_of", 3, 1, 3, 2, 1'000'000);
  add("vssc", 2, 1, 2, 2, 2'000'000);
  add("finite_loss", 2, 0, 0, 3, 2'000'000);
  if (queries.empty()) {
    throw std::invalid_argument(
        "atlas: no grid leg intersects --param-min/--param-max");
  }
  return queries;
}

std::vector<Scenario> make_catalog() {
  std::vector<Scenario> scenarios;
  scenarios.push_back(Scenario{
      "omission-n3",
      "Santoro-Widmayer omission frontier: f = 0..n(n-1) (default n=3)",
      "Solvability sweep over the per-round omission budget f at fixed n\n"
      "(default 3), reproducing the E5 frontier: consensus is solvable\n"
      "iff f <= n-2 [Santoro-Widmayer]. --n picks the process count,\n"
      "--param-min/--param-max restrict the f interval (valid: 0..n(n-1)).",
      /*supports_n=*/true, /*supports_param_range=*/true,
      /*supports_seed=*/false, build_omission});
  scenarios.push_back(Scenario{
      "omission-n4",
      "Omission frontier at n=4: the chunk-sharded large-n grid "
      "(default f=0..3)",
      "Solvability sweep over the per-round omission budget f at n = 4\n"
      "(depth bound 3, 8M-state budget): the first process count whose\n"
      "per-root BFS levels are heavy enough (f=2 certifies at depth 3\n"
      "with 7.9M leaf classes over only 16 roots) that root-only\n"
      "sharding cannot balance them -- the frontier engine's sub-root\n"
      "chunk sharding spreads each level over all threads instead.\n"
      "Consensus is solvable iff f <= n-2 [Santoro-Widmayer]: the grid\n"
      "certifies the whole frontier, and the first point past it (f=3)\n"
      "documents the honest RESOURCE-LIMIT verdict at the state budget.\n"
      "--n picks the process count, --param-min/--param-max restrict the\n"
      "f interval (valid: 0..n(n-1)).",
      /*supports_n=*/true, /*supports_param_range=*/true,
      /*supports_seed=*/false, build_omission_n4});
  scenarios.push_back(Scenario{
      "omission-n4-deep",
      "Omission n=4 past the RAM wall: the out-of-core f=3 certificate "
      "(default f=0..3)",
      "The omission-n4 grid with the state budget raised to 384M and the\n"
      "out-of-core frontier tier on (1 GiB in-RAM spill budget): the\n"
      "f = 3 depth-3 level holds hundreds of millions of states, beyond\n"
      "what an unconstrained in-RAM run can hold on most machines, so\n"
      "expanded-but-unmerged chunks are streamed through temp files\n"
      "(core/spill.hpp) and replayed in deterministic (root, chunk) order\n"
      "at merge/commit. The artifact is byte-identical to an in-RAM run\n"
      "at every thread count, chunk size, and spill budget. --n picks the\n"
      "process count, --param-min/--param-max restrict the f interval;\n"
      "--spill-budget-mb/--spill-dir override the spill knobs per run.",
      /*supports_n=*/true, /*supports_param_range=*/true,
      /*supports_seed=*/false, build_omission_n4_deep});
  scenarios.push_back(Scenario{
      "omission-n5",
      "Omission frontier at n=5: 32 roots, depth 2 (default f=0..3)",
      "The first n = 5 grid: solvability over the per-round omission\n"
      "budget f at depth bound 2 with an 8M-state budget and a 512 MiB\n"
      "spill budget. f = 2 certifies at depth 2 (1.4M leaf classes);\n"
      "f = 3 is solvable in principle (f <= n-2 [Santoro-Widmayer]) but\n"
      "its depth-2 level outgrows the budget, documenting the honest\n"
      "RESOURCE-LIMIT verdict at the current frontier edge. --n picks\n"
      "the process count, --param-min/--param-max restrict the f\n"
      "interval (valid: 0..n(n-1)).",
      /*supports_n=*/true, /*supports_param_range=*/true,
      /*supports_seed=*/false, build_omission_n5});
  scenarios.push_back(Scenario{
      "lossy-link-atlas",
      "All 7 lossy-link subsets at n=2: the solvability atlas",
      "Solvability verdict for every nonempty subset of {<-, ->, <->} at\n"
      "n=2 (Section 6.1): solvable exactly when the subset misses some\n"
      "direction. --param-min/--param-max restrict the subset-mask\n"
      "interval (valid: 1..7).",
      /*supports_n=*/false, /*supports_param_range=*/true,
      /*supports_seed=*/false, build_lossy_link_atlas});
  scenarios.push_back(Scenario{
      "heard-of-grid",
      "Heard-Of minimal in-degree grid: k = 1..n for n in {2, 3}",
      "Solvability over the minimal per-receiver in-degree k: solvable\n"
      "iff k = n (everyone hears everyone). --n restricts to one process\n"
      "count, --param-min/--param-max restrict the k interval (valid:\n"
      "1..n).",
      /*supports_n=*/true, /*supports_param_range=*/true,
      /*supports_seed=*/false, build_heard_of_grid});
  scenarios.push_back(Scenario{
      "vssc-windows",
      "VSSC stability windows: non-compact closure stays merged",
      "Closure-only solvability checks of the vertex-stable source\n"
      "component adversary for stability windows 1..3 (default n=2): the\n"
      "adversary is non-compact, so the checker sees its topological\n"
      "closure and reports NOT-SEPARATED at every depth even though the\n"
      "adversary is solvable (Section 6.3, bench E8). --n picks the\n"
      "process count, --param-min/--param-max the window interval.",
      /*supports_n=*/true, /*supports_param_range=*/true,
      /*supports_seed=*/false, build_vssc_windows});
  scenarios.push_back(Scenario{
      "convergence-curves",
      "E4/E6/E7 depth-series curves across three families",
      "Depth-by-depth epsilon-approximation series past separation: the\n"
      "three canonical lossy-link subsets (depth 6), omission n=3 f=1\n"
      "(depth 3), and the non-compact finite-loss closure (depth 4,\n"
      "permanently merged). Fixed grid; no overrides.",
      /*supports_n=*/false, /*supports_param_range=*/false,
      /*supports_seed=*/false, build_convergence_curves});
  scenarios.push_back(Scenario{
      "fuzz-composed",
      "Seeded random composed adversaries (product/union/window) "
      "(default: seed 6, 8 points)",
      "Runs the seeded composed-adversary fuzzer (scenario/fuzz.hpp)\n"
      "through the full Session/checkpoint/resume path: each job is one\n"
      "randomly composed adversary -- products, unions, and repetition\n"
      "windows over the compact grid families (adversary/compose.hpp) --\n"
      "whose label is its canonical spec JSON, replayable on its own.\n"
      "The expansion is a pure function of (seed, n, count), so runs and\n"
      "resumes are byte-identical at every thread count. --n is the\n"
      "process count, --seed the fuzzer seed (full uint64 range), and\n"
      "--count the point count; --param-min/--param-max survive as legacy\n"
      "aliases of --seed/--count (mixing a flag with its own alias is\n"
      "rejected). The differential twin of this scenario is `topocon\n"
      "fuzz`, which re-checks every point against the single-scan\n"
      "reference oracle.",
      /*supports_n=*/true, /*supports_param_range=*/true,
      /*supports_seed=*/true, build_fuzz_composed});
  scenarios.push_back(Scenario{
      "atlas",
      "The cross-family solvability atlas: every family, one CSV map",
      "A fixed family x n x parameter sweep across all six grid families\n"
      "into one solvability/decision-depth map, rendered via\n"
      "--format=csv into a single plottable artifact (one row per\n"
      "deepening step per point). Depth bounds are per leg and chosen to\n"
      "certify each leg's whole solvable frontier: lossy_link (n=2,\n"
      "depth 6), windowed_lossy_link (w=1..3, depth 4), omission (n=2\n"
      "depth 6; n=3 depth 2), heard_of (n=2 depth 5; n=3 depth 2), plus\n"
      "the non-compact vssc and finite_loss closures, which stay merged\n"
      "at every depth (Section 6.3). --n keeps only one process count's\n"
      "legs (valid: 2 or 3); --param-min/--param-max intersect every\n"
      "leg's parameter interval, skipping legs that empty out. The\n"
      "default CSV is committed as tests/golden/atlas.csv and diffed\n"
      "byte-for-byte at several thread counts and chunk sizes by ctest.",
      /*supports_n=*/true, /*supports_param_range=*/true,
      /*supports_seed=*/false, build_atlas});
  scenarios.push_back(Scenario{
      "decision-tables",
      "Universal-algorithm extraction (Theorem 5.5) for the n=2 atlas",
      "Decision-table extraction queries: for every lossy-link subset at\n"
      "n=2 plus the w=2 windowed lossy link, run the solvability pipeline\n"
      "and record the certificate's shape -- total entries, worst-case\n"
      "decision round, and entries per round (the integer early-decision\n"
      "profile of Theorem 5.5). The impossible full subset documents the\n"
      "no-certificate case. --param-min/--param-max restrict the\n"
      "lossy-link mask interval (valid: 1..7).",
      /*supports_n=*/false, /*supports_param_range=*/true,
      /*supports_seed=*/false, build_decision_tables});
  return scenarios;
}

}  // namespace

const std::vector<Scenario>& catalog() {
  static const std::vector<Scenario> scenarios = make_catalog();
  return scenarios;
}

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario& scenario : catalog()) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

api::Plan expand_scenario(const Scenario& scenario,
                          const GridOverrides& overrides) {
  if (overrides.n.has_value() && !scenario.supports_n) {
    throw std::invalid_argument(scenario.name +
                                " does not support the --n override");
  }
  if ((overrides.param_min.has_value() || overrides.param_max.has_value()) &&
      !scenario.supports_param_range) {
    throw std::invalid_argument(
        scenario.name + " does not support --param-min/--param-max");
  }
  if ((overrides.seed.has_value() || overrides.count.has_value()) &&
      !scenario.supports_seed) {
    throw std::invalid_argument(scenario.name +
                                " does not support --seed/--count");
  }
  api::Plan plan;
  plan.name = scenario.name;
  plan.queries = scenario.build(overrides);
  return plan;
}

}  // namespace topocon::scenario
