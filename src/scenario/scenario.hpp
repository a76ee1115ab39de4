// Named, self-describing scenarios: the catalog that turns the api
// facade into an operator-facing product surface (tools/topocon).
//
// A Scenario expands a FamilyPoint grid into an api::Plan -- a named
// list of api::Query values, pure data end to end. Everything an
// operator can run from the CLI lives here as data -- name, summary,
// description, which grid overrides it accepts -- so `topocon list`,
// `topocon describe`, and future workloads all read one registry instead
// of hand-rolled driver loops (ROADMAP: "scenarios as query plans").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"

namespace topocon::scenario {

/// Operator overrides of a scenario's default grid (`--n`,
/// `--param-min`, `--param-max`, and -- for seeded scenarios --
/// `--seed`/`--count`). Semantics are scenario-specific and documented
/// per scenario; scenarios reject overrides they do not support with
/// std::invalid_argument.
struct GridOverrides {
  std::optional<int> n;
  std::optional<int> param_min;
  std::optional<int> param_max;
  /// Seed of a seeded scenario, with the full uint64 range (the
  /// --param-min alias squeezes it through int and cannot express it).
  std::optional<std::uint64_t> seed;
  /// Point count of a seeded scenario.
  std::optional<int> count;
};

struct Scenario {
  /// Registry key, e.g. "omission-n3".
  std::string name;
  /// One line for `topocon list`.
  std::string summary;
  /// Longer text for `topocon describe` (what the grid spans, which
  /// paper artifact it reproduces, what the parameter means).
  std::string description;
  /// Which overrides expand_scenario accepts for this scenario.
  bool supports_n = false;
  bool supports_param_range = false;
  bool supports_seed = false;
  /// Expands the (possibly overridden) grid into the query list; the
  /// plan name is filled in by expand_scenario.
  std::function<std::vector<api::Query>(const GridOverrides&)> build;
};

/// All registered scenarios, in catalog order; names are unique.
const std::vector<Scenario>& catalog();

/// Lookup by name; nullptr when unknown.
const Scenario* find_scenario(std::string_view name);

/// Validates the overrides against the scenario's capabilities, then
/// builds the plan (named after the scenario). Throws
/// std::invalid_argument on unsupported or out-of-range overrides.
api::Plan expand_scenario(const Scenario& scenario,
                          const GridOverrides& overrides);

}  // namespace topocon::scenario
