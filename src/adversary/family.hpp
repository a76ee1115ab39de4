// Named adversary families as data: one (family, n, param) triple per
// grid point, with a uniform factory. This is the adapter layer between
// the benchmark/CLI parameter grids and the sweep engine
// (runtime/sweep/engine.hpp): a sweep is essentially a list of
// FamilyPoints plus solver options, and every bench table row corresponds
// to one point.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"

namespace topocon {

/// One point of a family parameter grid. `param` is family-specific:
///   lossy_link          -- subset mask over {<-, ->, <->} (1..7); n = 2.
///   omission            -- per-round omission budget f.
///   heard_of            -- minimal per-receiver in-degree k (1..n).
///   heard_of_rounds     -- uniform-round period p (>= 1); n in [2, 4].
///   mobile_failure      -- max consecutive faulty rounds r (>= 1) of the
///                          single per-round mobile faulty sender; n in
///                          [2, 6].
///   windowed_lossy_link -- repetition window w (>= 1); n = 2.
///   vssc                -- stability window length (>= 1).
///   finite_loss         -- unused (0).
///
/// Beyond the named grid families, a point whose family string starts
/// with "composed:" carries a whole combinator tree (product/union/
/// window over compact families) as canonical JSON in the family string
/// itself; param is unused (0) and n must equal the components' common
/// process count. See adversary/compose.hpp for the spec grammar. The
/// encoding makes composed adversaries ride through every FamilyPoint
/// consumer -- queries, sweeps, checkpoints, resume -- unchanged.
struct FamilyPoint {
  std::string family;
  int n = 2;
  int param = 0;
};

/// The named grid families make_family_adversary accepts, in canonical
/// order. Composed points ("composed:..." family strings) are accepted
/// too but not enumerated here -- their space is a tree grammar, not a
/// list.
const std::vector<std::string>& known_families();

/// Short human/JSON label of a point, e.g. "n=3 f=1" or "{<-, ->}".
std::string family_point_label(const FamilyPoint& point);

/// Constructs the adversary for a grid point. Throws std::invalid_argument
/// with an exact, family-specific message for unknown family names and
/// out-of-range n or param (see validate_family_point).
std::unique_ptr<MessageAdversary> make_family_adversary(
    const FamilyPoint& point);

/// The checks behind make_family_adversary, usable without constructing
/// the adversary (grid expansion validates points up front). Throws
/// std::invalid_argument; the message always starts with "family:".
void validate_family_point(const FamilyPoint& point);

/// Valid parameter interval of a family at a given n. `max` is INT_MAX
/// for families whose parameter is unbounded above (windows); both are 0
/// for finite_loss, whose param is unused. Throws std::invalid_argument
/// for unknown families or invalid n.
struct FamilyParamRange {
  int min = 0;
  int max = 0;
  /// What the parameter means, e.g. "per-round omission budget f".
  const char* meaning = "";
};
FamilyParamRange family_param_range(const std::string& family, int n);

/// Expands the inclusive parameter interval [param_min, param_max] into
/// validated grid points of one family at fixed n -- the adapter between
/// scenario grids and sweep jobs. Throws std::invalid_argument when the
/// interval is empty or leaves the family's valid range.
std::vector<FamilyPoint> family_grid(const std::string& family, int n,
                                     int param_min, int param_max);

}  // namespace topocon
