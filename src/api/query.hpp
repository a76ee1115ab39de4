// Query: the solver workload as a pure, serializable value.
//
// A Query names one unit of work of the paper's pipeline on one adversary
// grid point (FamilyPoint) -- nothing more. It carries no closures, no
// adversary instances, and no execution state, so query lists can be
// stored in checkpoints, diffed, rendered, and replayed bit-identically:
// "declare the workload as data, let the engine own execution". The three
// variants map onto the paper as follows (see api.hpp for the full tour):
//
//   SolvabilityQuery   iterative deepening of the depth-t epsilon-
//                      approximation (Definition 6.2) until the valence
//                      regions separate (Corollary 5.6 / Theorem 6.6) or
//                      a bound is hit.
//   DepthSeriesQuery   the same approximation depth by depth, continuing
//                      past separation -- the convergence curves of
//                      Section 6.2 (bench E4/E6/E7).
//   DecisionTableQuery solvability plus extraction of the universal
//                      consensus algorithm of Theorem 5.5, recording the
//                      decision table's shape (entries per round).
//
// The JSON encoding round-trips exactly: query_to_json emits a canonical
// object (fixed member order, compact integer/boolean values only), and
// query_from_json accepts exactly that shape, so
// serialize(parse(serialize(q))) == serialize(q) for every query.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "adversary/family.hpp"
#include "core/epsilon_approx.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/engine.hpp"
#include "runtime/sweep/json.hpp"

namespace topocon::api {

/// Consensus solvability of one grid point (Definition 6.2 pipeline,
/// verdict per Corollary 5.6 / Theorem 6.6).
struct SolvabilityQuery {
  FamilyPoint point;
  SolvabilityOptions options;
};

/// Depth-by-depth epsilon-approximation series (Section 6.2 curves).
/// options.depth is the maximum depth; options.keep_levels is an
/// execution detail and ignored (the series never retains levels).
struct DepthSeriesQuery {
  FamilyPoint point;
  AnalysisOptions options;
};

/// Universal-algorithm extraction (Theorem 5.5): a solvability check
/// whose record is the decision-table shape. options.build_table is
/// implied and ignored.
struct DecisionTableQuery {
  FamilyPoint point;
  SolvabilityOptions options;
};

/// The tagged union every front end (benches, examples, scenarios, the
/// topocon CLI) submits to a Session.
using Query = std::variant<SolvabilityQuery, DepthSeriesQuery,
                           DecisionTableQuery>;

enum class QueryKind { kSolvability, kDepthSeries, kDecisionTable };

const char* to_string(QueryKind kind);
std::optional<QueryKind> parse_query_kind(std::string_view name);

QueryKind kind_of(const Query& query);
const FamilyPoint& point_of(const Query& query);
/// Short human/JSON label of the query's grid point (family_point_label).
std::string label_of(const Query& query);
/// The depth bound of the query (max_depth or series depth).
int depth_of(const Query& query);

/// Builders -- the one-line way to phrase work against the facade.
Query solvability(const FamilyPoint& point,
                  const SolvabilityOptions& options = {});
Query depth_series(const FamilyPoint& point, const AnalysisOptions& options);
Query decision_table(const FamilyPoint& point,
                     const SolvabilityOptions& options = {});

/// Validates the query's grid point (validate_family_point). Throws
/// std::invalid_argument with the family layer's exact message.
void validate_query(const Query& query);

/// The execution-layer form of the query (runtime/sweep/engine.hpp).
/// Queries and SweepJobs are the same data; the variant is the typed
/// surface, the job the engine's uniform record.
sweep::SweepJob to_sweep_job(const Query& query);

/// Canonical JSON object of a query (fixed member order). The result
/// contains only strings, integers, and booleans, so it serializes
/// identically in pretty and compact styles modulo whitespace.
sweep::JsonValue query_to_json(const Query& query);

/// Parses a query object. Throws std::runtime_error with a message
/// starting "query json: " on any malformed input: wrong value kind,
/// missing or unknown members, unknown query/topology names, or a grid
/// point the family layer rejects. Accepts members in any order but
/// nothing beyond the canonical set.
Query query_from_json(const sweep::JsonValue& value);

/// One-line compact serialization (write_json_value of query_to_json).
std::string query_to_string(const Query& query);
/// parse + query_from_json of one document.
Query parse_query(std::string_view text);

}  // namespace topocon::api
