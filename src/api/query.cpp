#include "api/query.hpp"

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace topocon::api {

namespace {

using sweep::JsonValue;

JsonValue json_string(std::string text) {
  JsonValue value;
  value.kind = JsonValue::Kind::kString;
  value.string = std::move(text);
  return value;
}

/// Integers serialize sign-dependently (the reader parses non-negative
/// literals as kUint, negative ones as kInt); matching that here is what
/// makes query_to_json(parse(...)) structurally equal to its input.
JsonValue json_integer(std::int64_t number) {
  JsonValue value;
  if (number >= 0) {
    value.kind = JsonValue::Kind::kUint;
    value.uint_number = static_cast<std::uint64_t>(number);
  } else {
    value.kind = JsonValue::Kind::kInt;
    value.int_number = number;
  }
  return value;
}

JsonValue json_unsigned(std::uint64_t number) {
  JsonValue value;
  value.kind = JsonValue::Kind::kUint;
  value.uint_number = number;
  return value;
}

JsonValue json_boolean(bool flag) {
  JsonValue value;
  value.kind = JsonValue::Kind::kBool;
  value.boolean = flag;
  return value;
}

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("query json: " + message);
}

const JsonValue& require(const JsonValue& object, std::string_view key) {
  const JsonValue* member = object.find(key);
  if (member == nullptr) {
    fail("missing member \"" + std::string(key) + "\"");
  }
  return *member;
}

int get_int(const JsonValue& object, std::string_view key) {
  const JsonValue& member = require(object, key);
  if (member.kind != JsonValue::Kind::kInt &&
      member.kind != JsonValue::Kind::kUint) {
    fail("member \"" + std::string(key) + "\" must be an integer");
  }
  const std::int64_t number = member.as_int();
  if (number < std::numeric_limits<int>::min() ||
      number > std::numeric_limits<int>::max()) {
    fail("member \"" + std::string(key) + "\" is out of range");
  }
  return static_cast<int>(number);
}

std::uint64_t get_unsigned(const JsonValue& object, std::string_view key) {
  const JsonValue& member = require(object, key);
  if (member.kind != JsonValue::Kind::kUint &&
      !(member.kind == JsonValue::Kind::kInt && member.int_number >= 0)) {
    fail("member \"" + std::string(key) +
         "\" must be a non-negative integer");
  }
  return member.as_uint();
}

bool get_bool(const JsonValue& object, std::string_view key) {
  const JsonValue& member = require(object, key);
  if (member.kind != JsonValue::Kind::kBool) {
    fail("member \"" + std::string(key) + "\" must be a boolean");
  }
  return member.boolean;
}

std::string get_string(const JsonValue& object, std::string_view key) {
  const JsonValue& member = require(object, key);
  if (member.kind != JsonValue::Kind::kString) {
    fail("member \"" + std::string(key) + "\" must be a string");
  }
  return member.string;
}

void reject_unknown_members(const JsonValue& object,
                            std::initializer_list<std::string_view> allowed) {
  for (const auto& [name, member] : object.members) {
    bool known = false;
    for (const std::string_view key : allowed) {
      known |= name == key;
    }
    if (!known) fail("unknown member \"" + name + "\"");
  }
}

/// The two solvability-options query kinds share one wire layout; only
/// kSolvability carries build_table (kDecisionTable implies it). Keeping
/// one append/parse pair is what keeps the kinds from diverging.
void append_solvability_options(JsonValue& object,
                                const SolvabilityOptions& options,
                                bool include_build_table) {
  object.members.emplace_back("max_depth", json_integer(options.max_depth));
  object.members.emplace_back("num_values",
                              json_integer(options.num_values));
  object.members.emplace_back("max_states",
                              json_unsigned(options.max_states));
  if (include_build_table) {
    object.members.emplace_back("build_table",
                                json_boolean(options.build_table));
  }
  object.members.emplace_back("require_broadcastable",
                              json_boolean(options.require_broadcastable));
  object.members.emplace_back("strong_validity",
                              json_boolean(options.strong_validity));
}

SolvabilityOptions solvability_options_from_json(const JsonValue& value,
                                                 bool include_build_table) {
  SolvabilityOptions options;
  options.max_depth = get_int(value, "max_depth");
  options.num_values = get_int(value, "num_values");
  options.max_states =
      static_cast<std::size_t>(get_unsigned(value, "max_states"));
  options.build_table =
      include_build_table ? get_bool(value, "build_table") : true;
  options.require_broadcastable = get_bool(value, "require_broadcastable");
  options.strong_validity = get_bool(value, "strong_validity");
  return options;
}

FamilyPoint point_from_json(const JsonValue& object) {
  FamilyPoint point;
  point.family = get_string(object, "family");
  point.n = get_int(object, "n");
  point.param = get_int(object, "param");
  try {
    validate_family_point(point);
  } catch (const std::invalid_argument& error) {
    fail(error.what());
  }
  return point;
}

void append_point(JsonValue& object, const FamilyPoint& point) {
  object.members.emplace_back("family", json_string(point.family));
  object.members.emplace_back("n", json_integer(point.n));
  object.members.emplace_back("param", json_integer(point.param));
}

const char* to_string(AdjacencyTopology topology) {
  return topology == AdjacencyTopology::kMin ? "min" : "pview";
}

}  // namespace

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSolvability: return "solvability";
    case QueryKind::kDepthSeries: return "depth_series";
    case QueryKind::kDecisionTable: return "decision_table";
  }
  return "?";
}

std::optional<QueryKind> parse_query_kind(std::string_view name) {
  if (name == "solvability") return QueryKind::kSolvability;
  if (name == "depth_series") return QueryKind::kDepthSeries;
  if (name == "decision_table") return QueryKind::kDecisionTable;
  return std::nullopt;
}

QueryKind kind_of(const Query& query) {
  return static_cast<QueryKind>(query.index());
}

const FamilyPoint& point_of(const Query& query) {
  return std::visit(
      [](const auto& q) -> const FamilyPoint& { return q.point; }, query);
}

std::string label_of(const Query& query) {
  return family_point_label(point_of(query));
}

int depth_of(const Query& query) {
  switch (kind_of(query)) {
    case QueryKind::kDepthSeries:
      return std::get<DepthSeriesQuery>(query).options.depth;
    case QueryKind::kSolvability:
      return std::get<SolvabilityQuery>(query).options.max_depth;
    case QueryKind::kDecisionTable:
      return std::get<DecisionTableQuery>(query).options.max_depth;
  }
  return 0;
}

Query solvability(const FamilyPoint& point,
                  const SolvabilityOptions& options) {
  return SolvabilityQuery{point, options};
}

Query depth_series(const FamilyPoint& point, const AnalysisOptions& options) {
  return DepthSeriesQuery{point, options};
}

Query decision_table(const FamilyPoint& point,
                     const SolvabilityOptions& options) {
  return DecisionTableQuery{point, options};
}

void validate_query(const Query& query) {
  validate_family_point(point_of(query));
}

sweep::SweepJob to_sweep_job(const Query& query) {
  sweep::SweepJob job;
  job.point = point_of(query);
  switch (kind_of(query)) {
    case QueryKind::kSolvability:
      job.kind = sweep::JobKind::kSolvability;
      job.solve = std::get<SolvabilityQuery>(query).options;
      break;
    case QueryKind::kDepthSeries:
      job.kind = sweep::JobKind::kDepthSeries;
      job.analysis = std::get<DepthSeriesQuery>(query).options;
      break;
    case QueryKind::kDecisionTable:
      job.kind = sweep::JobKind::kDecisionTable;
      job.solve = std::get<DecisionTableQuery>(query).options;
      job.solve.build_table = true;
      break;
  }
  return job;
}

sweep::JsonValue query_to_json(const Query& query) {
  JsonValue object;
  object.kind = JsonValue::Kind::kObject;
  object.members.emplace_back("query",
                              json_string(to_string(kind_of(query))));
  append_point(object, point_of(query));
  switch (kind_of(query)) {
    case QueryKind::kSolvability:
      append_solvability_options(object,
                                 std::get<SolvabilityQuery>(query).options,
                                 /*include_build_table=*/true);
      break;
    case QueryKind::kDecisionTable:
      append_solvability_options(
          object, std::get<DecisionTableQuery>(query).options,
          /*include_build_table=*/false);
      break;
    case QueryKind::kDepthSeries: {
      const AnalysisOptions& options =
          std::get<DepthSeriesQuery>(query).options;
      object.members.emplace_back("depth", json_integer(options.depth));
      object.members.emplace_back("num_values",
                                  json_integer(options.num_values));
      object.members.emplace_back("max_states",
                                  json_unsigned(options.max_states));
      object.members.emplace_back("topology",
                                  json_string(to_string(options.topology)));
      object.members.emplace_back(
          "pview_set",
          json_unsigned(static_cast<std::uint64_t>(options.pview_set)));
      break;
    }
  }
  return object;
}

Query query_from_json(const sweep::JsonValue& value) {
  if (!value.is_object()) fail("expected an object");
  const std::string kind_name = get_string(value, "query");
  const std::optional<QueryKind> kind = parse_query_kind(kind_name);
  if (!kind.has_value()) {
    fail("unknown query kind \"" + kind_name + "\"");
  }
  switch (*kind) {
    case QueryKind::kSolvability: {
      reject_unknown_members(
          value, {"query", "family", "n", "param", "max_depth", "num_values",
                  "max_states", "build_table", "require_broadcastable",
                  "strong_validity"});
      SolvabilityQuery query;
      query.point = point_from_json(value);
      query.options =
          solvability_options_from_json(value, /*include_build_table=*/true);
      return query;
    }
    case QueryKind::kDecisionTable: {
      reject_unknown_members(
          value, {"query", "family", "n", "param", "max_depth", "num_values",
                  "max_states", "require_broadcastable", "strong_validity"});
      DecisionTableQuery query;
      query.point = point_from_json(value);
      query.options = solvability_options_from_json(
          value, /*include_build_table=*/false);
      return query;
    }
    case QueryKind::kDepthSeries: {
      reject_unknown_members(value,
                             {"query", "family", "n", "param", "depth",
                              "num_values", "max_states", "topology",
                              "pview_set"});
      DepthSeriesQuery query;
      query.point = point_from_json(value);
      query.options.depth = get_int(value, "depth");
      query.options.num_values = get_int(value, "num_values");
      query.options.max_states =
          static_cast<std::size_t>(get_unsigned(value, "max_states"));
      query.options.keep_levels = false;
      const std::string topology = get_string(value, "topology");
      if (topology == "min") {
        query.options.topology = AdjacencyTopology::kMin;
      } else if (topology == "pview") {
        query.options.topology = AdjacencyTopology::kPView;
      } else {
        fail("unknown topology \"" + topology + "\"");
      }
      const std::uint64_t pview_set = get_unsigned(value, "pview_set");
      if (pview_set > std::numeric_limits<NodeMask>::max()) {
        fail("member \"pview_set\" is out of range");
      }
      query.options.pview_set = static_cast<NodeMask>(pview_set);
      return query;
    }
  }
  fail("unknown query kind \"" + kind_name + "\"");
}

std::string query_to_string(const Query& query) {
  std::ostringstream out;
  sweep::JsonWriter writer(out, sweep::JsonStyle::kCompact);
  sweep::write_json_value(writer, query_to_json(query));
  return out.str();
}

Query parse_query(std::string_view text) {
  return query_from_json(sweep::JsonReader::parse(text));
}

}  // namespace topocon::api
