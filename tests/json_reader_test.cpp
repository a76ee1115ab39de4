// The parsing side of the sweep JSON schema: JsonReader primitives, the
// JobRecord round-trip (every JobKind written by JsonWriter parses back
// to an equal record -- the JSON-visible projection of a JobOutcome),
// and checkpoint files including the resume-from-partial-file case.
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/checkpoint.hpp"
#include "runtime/sweep/json.hpp"

namespace topocon {
namespace {

using sweep::CheckpointHeader;
using sweep::CheckpointState;
using sweep::CheckpointWriter;
using sweep::JobOutcome;
using sweep::JobRecord;
using sweep::JsonReader;
using sweep::JsonStyle;
using sweep::JsonValue;
using sweep::JsonWriter;

TEST(JsonReaderTest, ParsesPrimitivesAndPreservesMemberOrder) {
  const JsonValue value = JsonReader::parse(
      "{\"b\": true, \"a\": -12, \"u\": 18446744073709551615, "
      "\"s\": \"x\", \"list\": [1, 2, 3], \"empty\": {}, \"z\": null}");
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.members[0].first, "b");
  EXPECT_EQ(value.members[1].first, "a");
  EXPECT_TRUE(value.at("b").as_bool());
  EXPECT_EQ(value.at("a").as_int(), -12);
  EXPECT_EQ(value.at("u").as_uint(), 18446744073709551615ull);
  EXPECT_EQ(value.at("s").as_string(), "x");
  ASSERT_EQ(value.at("list").elements.size(), 3u);
  EXPECT_EQ(value.at("list").elements[2].as_int(), 3);
  EXPECT_TRUE(value.at("empty").is_object());
  EXPECT_TRUE(value.at("z").is_null());
  EXPECT_EQ(value.find("missing"), nullptr);
  EXPECT_THROW(value.at("missing"), std::runtime_error);
}

TEST(JsonReaderTest, EscapedStringsRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  std::ostringstream out;
  JsonWriter writer(out);
  writer.begin_object();
  writer.member(nasty, nasty);
  writer.end_object();
  const JsonValue value = JsonReader::parse(out.str());
  ASSERT_EQ(value.members.size(), 1u);
  EXPECT_EQ(value.members[0].first, nasty);
  EXPECT_EQ(value.members[0].second.as_string(), nasty);
}

TEST(JsonReaderTest, CompactAndPrettyStylesParseIdentically) {
  auto emit = [](JsonStyle style) {
    std::ostringstream out;
    JsonWriter writer(out, style);
    writer.begin_object();
    writer.member("n", 3);
    writer.key("series");
    writer.begin_array();
    writer.value("a");
    writer.value(-1);
    writer.end_array();
    writer.end_object();
    return out.str();
  };
  const std::string pretty = emit(JsonStyle::kPretty);
  const std::string compact = emit(JsonStyle::kCompact);
  EXPECT_EQ(compact, "{\"n\":3,\"series\":[\"a\",-1]}");
  EXPECT_NE(pretty, compact);
  // Structurally identical: re-serializing the parsed compact form in
  // pretty style reproduces the pretty document.
  const JsonValue parsed = JsonReader::parse(compact);
  std::ostringstream out;
  JsonWriter writer(out);
  writer.begin_object();
  writer.member("n", parsed.at("n").as_int());
  writer.key("series");
  writer.begin_array();
  writer.value(parsed.at("series").elements[0].as_string());
  writer.value(parsed.at("series").elements[1].as_int());
  writer.end_array();
  writer.end_object();
  EXPECT_EQ(out.str(), pretty);
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  EXPECT_THROW(JsonReader::parse("1.5"), std::runtime_error);
  EXPECT_THROW(JsonReader::parse("1e3"), std::runtime_error);
  EXPECT_THROW(JsonReader::parse("{\"a\": 1"), std::runtime_error);
  EXPECT_THROW(JsonReader::parse("{\"a\": 1} extra"), std::runtime_error);
  EXPECT_THROW(JsonReader::parse("{'a': 1}"), std::runtime_error);
  EXPECT_THROW(JsonReader::parse(""), std::runtime_error);
  EXPECT_THROW(JsonReader::parse("nul"), std::runtime_error);
  EXPECT_THROW(JsonReader::parse("\"\\q\""), std::runtime_error);
  EXPECT_THROW(JsonReader::parse("99999999999999999999999999"),
               std::runtime_error);
}

// ---- JobRecord round-trips ----------------------------------------------

/// A small sweep with jobs of every kind; solvable lossy-link points
/// exercise final_analysis + table, the full mask exercises the merged
/// path, the series job exercises the kDepthSeries encoding, and the
/// extraction job the kDecisionTable encoding (round_entries).
std::vector<JobOutcome> run_mixed_sweep() {
  api::Session session({.num_threads = 2, .record_global = false});
  std::vector<api::Query> queries;
  SolvabilityOptions options;
  options.max_depth = 5;
  for (const int mask : {1, 3, 7}) {
    queries.push_back(api::solvability({"lossy_link", 2, mask}, options));
  }
  AnalysisOptions series;
  series.depth = 3;
  queries.push_back(api::depth_series({"lossy_link", 2, 7}, series));
  queries.push_back(api::decision_table({"lossy_link", 2, 3}, options));
  return session.run("roundtrip", queries);
}

std::string record_json(const JobRecord& record, JsonStyle style) {
  std::ostringstream out;
  JsonWriter writer(out, style);
  sweep::write_job_record_json(writer, record);
  return out.str();
}

TEST(SweepJsonRoundTrip, EveryJobKindParsesBackToAnEqualRecord) {
  const std::vector<JobOutcome> outcomes = run_mixed_sweep();
  ASSERT_EQ(outcomes.size(), 5u);
  bool saw_table = false;
  bool saw_series = false;
  bool saw_extraction = false;
  for (const JobOutcome& outcome : outcomes) {
    const JobRecord record = sweep::summarize(outcome);
    saw_table |= record.table.has_value();
    saw_series |= record.kind == sweep::JobKind::kDepthSeries;
    saw_extraction |= record.kind == sweep::JobKind::kDecisionTable &&
                      !record.round_entries.empty();
    for (const JsonStyle style : {JsonStyle::kPretty, JsonStyle::kCompact}) {
      const JobRecord reparsed = sweep::job_record_from_json(
          JsonReader::parse(record_json(record, style)));
      EXPECT_EQ(reparsed, record) << record.family << " " << record.label;
    }
  }
  EXPECT_TRUE(saw_table);
  EXPECT_TRUE(saw_series);
  EXPECT_TRUE(saw_extraction);
}

TEST(SweepJsonRoundTrip, FullDocumentParsesBack) {
  const std::vector<JobOutcome> outcomes = run_mixed_sweep();
  std::vector<JobRecord> records;
  for (const JobOutcome& outcome : outcomes) {
    records.push_back(sweep::summarize(outcome));
  }
  std::ostringstream out;
  JsonWriter writer(out);
  writer.begin_object();
  writer.member("schema", sweep::kSweepSchema);
  writer.key("sweeps");
  writer.begin_array();
  sweep::write_sweep_json(writer, "roundtrip", records);
  writer.end_array();
  writer.end_object();

  std::istringstream in(out.str());
  const sweep::SweepDocument document = sweep::read_sweep_document(in);
  ASSERT_EQ(document.sweeps.size(), 1u);
  EXPECT_EQ(document.sweeps[0].first, "roundtrip");
  EXPECT_EQ(document.sweeps[0].second, records);
}

TEST(SweepJsonRoundTrip, RejectsUnknownSchemaKindAndVerdict) {
  std::istringstream bad_schema("{\"schema\": \"nope\", \"sweeps\": []}");
  EXPECT_THROW(sweep::read_sweep_document(bad_schema), std::runtime_error);
  EXPECT_THROW(sweep::job_record_from_json(JsonReader::parse(
                   "{\"family\": \"f\", \"label\": \"l\", \"n\": 2, "
                   "\"kind\": \"mystery\"}")),
               std::runtime_error);
  EXPECT_THROW(sweep::job_record_from_json(JsonReader::parse(
                   "{\"family\": \"f\", \"label\": \"l\", \"n\": 2, "
                   "\"kind\": \"solvability\", \"verdict\": \"MAYBE\"}")),
               std::runtime_error);
}

// ---- Checkpoint files ----------------------------------------------------

std::string checkpoint_text(const std::vector<JobRecord>& records) {
  std::ostringstream out;
  CheckpointWriter writer(out);
  CheckpointHeader header;
  header.sweep_name = "roundtrip";
  header.num_jobs = records.size() + 1;  // one job intentionally missing
  header.meta.emplace_back("scenario", "roundtrip");
  header.meta.emplace_back("param_max", "7");
  writer.write_header(header);
  for (std::size_t i = 0; i < records.size(); ++i) {
    writer.append(i, records[i]);
  }
  return out.str();
}

TEST(CheckpointTest, WritesOneLinePerJobAndReadsBack) {
  const std::vector<JobOutcome> outcomes = run_mixed_sweep();
  std::vector<JobRecord> records;
  for (const JobOutcome& outcome : outcomes) {
    records.push_back(sweep::summarize(outcome));
  }
  const std::string text = checkpoint_text(records);
  EXPECT_TRUE(sweep::looks_like_checkpoint(text));
  EXPECT_FALSE(sweep::looks_like_checkpoint("{\"schema\": \"other\"}"));
  EXPECT_FALSE(sweep::looks_like_checkpoint("junk"));

  std::istringstream in(text);
  const CheckpointState state = sweep::read_checkpoint(in);
  EXPECT_EQ(state.header.sweep_name, "roundtrip");
  EXPECT_EQ(state.header.num_jobs, records.size() + 1);
  ASSERT_EQ(state.header.meta.size(), 2u);
  EXPECT_EQ(state.header.meta[1],
            (std::pair<std::string, std::string>{"param_max", "7"}));
  EXPECT_FALSE(state.partial_tail);
  ASSERT_EQ(state.completed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(state.completed[i].first, i);
    EXPECT_EQ(state.completed[i].second, records[i]);
  }
}

TEST(CheckpointTest, TornTrailingLineIsDroppedEarlierRecordsSurvive) {
  const std::vector<JobOutcome> outcomes = run_mixed_sweep();
  std::vector<JobRecord> records;
  for (const JobOutcome& outcome : outcomes) {
    records.push_back(sweep::summarize(outcome));
  }
  const std::string text = checkpoint_text(records);
  // Cut inside the last line: everything before it must be recovered.
  const std::size_t last_line_start = text.rfind("{\"job\":");
  ASSERT_NE(last_line_start, std::string::npos);
  const std::string torn = text.substr(0, last_line_start + 10);
  std::istringstream in(torn);
  const CheckpointState state = sweep::read_checkpoint(in);
  EXPECT_TRUE(state.partial_tail);
  ASSERT_EQ(state.completed.size(), records.size() - 1);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_EQ(state.completed[i].second, records[i]);
  }
}

TEST(CheckpointTest, RejectsCorruptHeadersAndIndices) {
  std::istringstream empty("");
  EXPECT_THROW(sweep::read_checkpoint(empty), std::runtime_error);
  std::istringstream wrong_schema("{\"schema\": \"nope\"}\n");
  EXPECT_THROW(sweep::read_checkpoint(wrong_schema), std::runtime_error);
  // A record index beyond num_jobs is corruption, not a torn line.
  std::ostringstream out;
  CheckpointWriter writer(out);
  CheckpointHeader header;
  header.sweep_name = "x";
  header.num_jobs = 1;
  writer.write_header(header);
  writer.append(5, JobRecord{});
  out << "{\"job\":0,\"record\":";  // torn line after the corrupt one
  std::istringstream in(out.str());
  EXPECT_THROW(sweep::read_checkpoint(in), std::runtime_error);
}

}  // namespace
}  // namespace topocon
