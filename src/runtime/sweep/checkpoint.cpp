#include "runtime/sweep/checkpoint.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace topocon::sweep {

namespace {

DepthStats depth_stats_from_json(const JsonValue& value) {
  DepthStats stats;
  stats.depth = static_cast<int>(value.at("depth").as_int());
  stats.num_leaf_classes =
      static_cast<std::size_t>(value.at("leaf_classes").as_uint());
  stats.num_components = static_cast<int>(value.at("components").as_int());
  stats.merged_components = static_cast<int>(value.at("merged").as_int());
  stats.separated = value.at("separated").as_bool();
  stats.valent_broadcastable = value.at("valent_broadcastable").as_bool();
  stats.strong_assignable = value.at("strong_assignable").as_bool();
  stats.interner_views =
      static_cast<std::size_t>(value.at("interner_views").as_uint());
  return stats;
}

std::vector<DepthStats> depth_stats_array(const JsonValue& value) {
  if (!value.is_array()) {
    throw std::runtime_error("sweep json: expected stats array");
  }
  std::vector<DepthStats> stats;
  stats.reserve(value.elements.size());
  for (const JsonValue& element : value.elements) {
    stats.push_back(depth_stats_from_json(element));
  }
  return stats;
}

ComponentInfo component_from_json(const JsonValue& value) {
  ComponentInfo info;
  info.num_leaves = value.at("leaves").as_int();
  info.valence_mask =
      static_cast<std::uint32_t>(value.at("valence_mask").as_uint());
  info.common_broadcast =
      static_cast<NodeMask>(value.at("common_broadcast").as_uint());
  info.broadcasters =
      static_cast<NodeMask>(value.at("broadcasters").as_uint());
  info.common_input_values =
      static_cast<std::uint32_t>(value.at("common_input_values").as_uint());
  info.assigned_value =
      static_cast<Value>(value.at("assigned_value").as_int());
  info.assigned_value_strong =
      static_cast<Value>(value.at("assigned_value_strong").as_int());
  return info;
}

telemetry::TelemetryCounters telemetry_from_json(const JsonValue& value) {
  telemetry::TelemetryCounters counters;
  counters.states_expanded = value.at("states_expanded").as_uint();
  counters.states_committed = value.at("states_committed").as_uint();
  counters.pending_views = value.at("pending_views").as_uint();
  counters.views_interned = value.at("views_interned").as_uint();
  counters.chunks_expanded = value.at("chunks_expanded").as_uint();
  counters.wordseq_rehashes = value.at("wordseq_rehashes").as_uint();
  counters.levels_committed = value.at("levels_committed").as_uint();
  counters.budget_early_aborts = value.at("budget_early_aborts").as_uint();
  counters.frontier_high_water = value.at("frontier_high_water").as_uint();
  return counters;
}

void write_meta_compact(JsonWriter& writer, const CheckpointHeader& header) {
  writer.member("schema", kCheckpointSchema);
  writer.member("name", header.sweep_name);
  writer.member("num_jobs", header.num_jobs);
  writer.key("meta");
  writer.begin_object();
  for (const auto& [key, value] : header.meta) {
    writer.member(key, value);
  }
  writer.end_object();
  if (!header.queries.empty()) {
    writer.key("queries");
    writer.begin_array();
    for (const JsonValue& query : header.queries) {
      write_json_value(writer, query);
    }
    writer.end_array();
  }
}

}  // namespace

void CheckpointWriter::write_header(const CheckpointHeader& header) {
  JsonWriter writer(out_, JsonStyle::kCompact);
  writer.begin_object();
  write_meta_compact(writer, header);
  writer.end_object();
  out_ << '\n';
  out_.flush();
}

void CheckpointWriter::append(std::size_t job_index, const JobRecord& record) {
  JsonWriter writer(out_, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("job", static_cast<std::uint64_t>(job_index));
  writer.key("record");
  write_job_record_json(writer, record);
  writer.end_object();
  out_ << '\n';
  out_.flush();
}

bool looks_like_checkpoint(std::string_view text) {
  const std::size_t newline = text.find('\n');
  const std::string_view first_line =
      newline == std::string_view::npos ? text : text.substr(0, newline);
  try {
    const JsonValue header = JsonReader::parse(first_line);
    const JsonValue* schema = header.find("schema");
    return schema != nullptr &&
           schema->kind == JsonValue::Kind::kString &&
           schema->string == kCheckpointSchema;
  } catch (const std::runtime_error&) {
    return false;
  }
}

CheckpointState read_checkpoint(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_checkpoint(buffer.str());
}

CheckpointState read_checkpoint(std::string_view text) {
  CheckpointState state;
  std::size_t line_start = 0;
  bool saw_header = false;
  // job index -> position in state.completed (last-wins for duplicates
  // without a linear scan per line).
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot;
  while (line_start < text.size()) {
    const std::size_t newline = text.find('\n', line_start);
    const bool terminated = newline != std::string::npos;
    const std::string_view line =
        terminated ? std::string_view(text).substr(line_start,
                                                   newline - line_start)
                   : std::string_view(text).substr(line_start);
    const bool is_last = !terminated || newline + 1 >= text.size();
    if (!line.empty()) {
      JsonValue value;
      try {
        value = JsonReader::parse(line);
      } catch (const std::runtime_error&) {
        // A torn trailing line is the expected signature of an
        // interrupted run; anything earlier is corruption.
        if (is_last && saw_header) {
          state.partial_tail = true;
          break;
        }
        throw;
      }
      // An unterminated last line parsed fine, but the writer always ends
      // lines with '\n' -- treat it as torn too (the record could still
      // be mid-write on a filesystem that flushed partially).
      if (!terminated && saw_header) {
        state.partial_tail = true;
        break;
      }
      if (!saw_header) {
        const JsonValue* schema = value.find("schema");
        if (schema == nullptr || schema->string != kCheckpointSchema) {
          throw std::runtime_error(
              "checkpoint: missing or unknown schema header");
        }
        state.header.sweep_name = value.at("name").as_string();
        state.header.num_jobs = value.at("num_jobs").as_uint();
        // Far above any real grid (family_grid caps at 1e5 points); a
        // corrupt header must not drive the slot-table allocation.
        if (state.header.num_jobs > 1'000'000) {
          throw std::runtime_error("checkpoint: implausible num_jobs " +
                                   std::to_string(state.header.num_jobs));
        }
        for (const auto& [key, meta_value] : value.at("meta").members) {
          state.header.meta.emplace_back(key, meta_value.as_string());
        }
        if (const JsonValue* queries = value.find("queries")) {
          if (!queries->is_array()) {
            throw std::runtime_error("checkpoint: \"queries\" is not an array");
          }
          if (queries->elements.size() != state.header.num_jobs) {
            throw std::runtime_error(
                "checkpoint: " + std::to_string(queries->elements.size()) +
                " queries for " + std::to_string(state.header.num_jobs) +
                " jobs");
          }
          state.header.queries = queries->elements;
        }
        slot.assign(static_cast<std::size_t>(state.header.num_jobs),
                    kUnseen);
        saw_header = true;
      } else {
        const std::uint64_t job = value.at("job").as_uint();
        if (job >= state.header.num_jobs) {
          throw std::runtime_error("checkpoint: job index " +
                                   std::to_string(job) + " out of range");
        }
        JobRecord record = job_record_from_json(value.at("record"));
        std::size_t& position = slot[static_cast<std::size_t>(job)];
        if (position == kUnseen) {
          position = state.completed.size();
          state.completed.emplace_back(job, std::move(record));
        } else {
          state.completed[position].second = std::move(record);
        }
      }
    }
    if (!terminated) break;
    line_start = newline + 1;
  }
  if (!saw_header) {
    throw std::runtime_error("checkpoint: empty or headerless file");
  }
  return state;
}

SweepDocument read_sweep_document(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_sweep_document(std::string_view(buffer.str()));
}

SweepDocument read_sweep_document(std::string_view text) {
  const JsonValue root = JsonReader::parse(text);
  if (root.at("schema").as_string() != kSweepSchema) {
    throw std::runtime_error("sweep json: unknown schema \"" +
                             root.at("schema").as_string() + "\"");
  }
  SweepDocument document;
  for (const JsonValue& sweep : root.at("sweeps").elements) {
    std::vector<JobRecord> records;
    for (const JsonValue& job : sweep.at("jobs").elements) {
      records.push_back(job_record_from_json(job));
    }
    document.sweeps.emplace_back(sweep.at("name").as_string(),
                                 std::move(records));
  }
  return document;
}

JobRecord job_record_from_json(const JsonValue& value) {
  JobRecord record;
  record.family = value.at("family").as_string();
  record.label = value.at("label").as_string();
  record.n = static_cast<int>(value.at("n").as_int());
  const std::string& kind_name = value.at("kind").as_string();
  const std::optional<JobKind> kind = parse_job_kind(kind_name);
  if (!kind.has_value()) {
    throw std::runtime_error("sweep json: unknown job kind \"" + kind_name +
                             "\"");
  }
  record.kind = *kind;
  // The optional counters section appears for every kind, always last in
  // the object; parse it up front since the kind branches return early.
  if (const JsonValue* counters = value.find("telemetry")) {
    record.telemetry = telemetry_from_json(*counters);
  }
  if (record.kind == JobKind::kDecisionTable) {
    record.verdict = value.at("verdict").as_string();
    if (!parse_solvability_verdict(record.verdict).has_value()) {
      throw std::runtime_error("sweep json: unknown verdict \"" +
                               record.verdict + "\"");
    }
    record.certified_depth =
        static_cast<int>(value.at("certified_depth").as_int());
    record.closure_only = value.at("closure_only").as_bool();
    if (const JsonValue* table = value.find("table")) {
      JobRecord::Table decoded;
      decoded.entries = table->at("entries").as_uint();
      decoded.worst_decision_round =
          static_cast<int>(table->at("worst_decision_round").as_int());
      record.table = decoded;
      const JsonValue& rounds = value.at("round_entries");
      if (!rounds.is_array()) {
        throw std::runtime_error("sweep json: round_entries is not an array");
      }
      for (const JsonValue& entries : rounds.elements) {
        record.round_entries.push_back(entries.as_uint());
      }
    }
    return record;
  }
  if (record.kind == JobKind::kSolvability) {
    record.verdict = value.at("verdict").as_string();
    if (!parse_solvability_verdict(record.verdict).has_value()) {
      throw std::runtime_error("sweep json: unknown verdict \"" +
                               record.verdict + "\"");
    }
    record.certified_depth =
        static_cast<int>(value.at("certified_depth").as_int());
    record.closure_only = value.at("closure_only").as_bool();
    record.per_depth = depth_stats_array(value.at("per_depth"));
    if (const JsonValue* final_analysis = value.find("final_analysis")) {
      JobRecord::FinalAnalysis analysis;
      analysis.depth =
          static_cast<int>(final_analysis->at("final_depth").as_int());
      analysis.leaf_classes = final_analysis->at("leaf_classes").as_uint();
      analysis.num_components =
          final_analysis->at("num_components").as_uint();
      for (const JsonValue& component :
           final_analysis->at("components").elements) {
        analysis.components.push_back(component_from_json(component));
      }
      record.final_analysis = std::move(analysis);
    }
    if (const JsonValue* table = value.find("table")) {
      JobRecord::Table decoded;
      decoded.entries = table->at("entries").as_uint();
      decoded.worst_decision_round =
          static_cast<int>(table->at("worst_decision_round").as_int());
      record.table = decoded;
    }
  } else {
    record.series = depth_stats_array(value.at("series"));
  }
  return record;
}

}  // namespace topocon::sweep
