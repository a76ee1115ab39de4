// The Chrome-trace span writer: the emitted document is well-formed JSON
// (parsed back with the repo's own strict reader), events carry the
// Trace Event Format fields chrome://tracing requires, string escaping
// is safe, threads get stable small tids, a traced Session run
// produces properly nested job > depth > level > chunk spans, a
// deepening check labels every level and chunk with its own depth, and
// the assemble and components stages nest inside their depth.
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/lossy_link.hpp"
#include "api/api.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/json.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon {
namespace {

using telemetry::TraceArg;
using telemetry::TraceWriter;

/// Emits spans through `body`, destroys the writer (writing the closing
/// bracket), and parses the document back with the strict reader — every
/// numeric field the writer emits is integral, so the deterministic
/// integer-only mode must accept it.
sweep::JsonValue trace_document(
    const std::function<void(TraceWriter&)>& body) {
  std::ostringstream out;
  {
    TraceWriter writer(out);
    body(writer);
  }
  return sweep::JsonReader::parse(out.str());
}

TEST(TraceWriter, EmitsWellFormedCompleteEvents) {
  const sweep::JsonValue doc = trace_document([](TraceWriter& writer) {
    writer.complete("outer", "test", 0, 100,
                    {TraceArg::num("states", 42),
                     TraceArg::str("label", "{<->}")});
    writer.complete("inner", "test", 10, 20);
  });
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.elements.size(), 2u);

  const sweep::JsonValue& outer = doc.elements[0];
  EXPECT_EQ(outer.at("name").as_string(), "outer");
  EXPECT_EQ(outer.at("cat").as_string(), "test");
  EXPECT_EQ(outer.at("ph").as_string(), "X");
  EXPECT_EQ(outer.at("ts").as_uint(), 0u);
  EXPECT_EQ(outer.at("dur").as_uint(), 100u);
  EXPECT_EQ(outer.at("pid").as_uint(), 1u);
  EXPECT_EQ(outer.at("args").at("states").as_uint(), 42u);
  EXPECT_EQ(outer.at("args").at("label").as_string(), "{<->}");

  // Both events come from this thread: same tid, assigned 1-based in
  // first-event order.
  EXPECT_EQ(outer.at("tid").as_uint(), doc.elements[1].at("tid").as_uint());
  EXPECT_EQ(outer.at("tid").as_uint(), 1u);
}

TEST(TraceWriter, EmitsCounterEvents) {
  const sweep::JsonValue doc = trace_document([](TraceWriter& writer) {
    writer.counter("frontier_states", 1234);
  });
  ASSERT_EQ(doc.elements.size(), 1u);
  const sweep::JsonValue& event = doc.elements[0];
  EXPECT_EQ(event.at("ph").as_string(), "C");
  EXPECT_EQ(event.at("name").as_string(), "frontier_states");
  EXPECT_EQ(event.at("args").at("value").as_uint(), 1234u);
}

TEST(TraceWriter, EscapesNamesAndStringArgs) {
  const sweep::JsonValue doc = trace_document([](TraceWriter& writer) {
    writer.complete("quote\" slash\\ tab\t", "c\nat", 0, 1,
                    {TraceArg::str("k", std::string_view("nul\0!", 5))});
  });
  const sweep::JsonValue& event = doc.elements[0];
  EXPECT_EQ(event.at("name").as_string(), "quote\" slash\\ tab\t");
  EXPECT_EQ(event.at("cat").as_string(), "c\nat");
  EXPECT_EQ(event.at("args").at("k").as_string(),
            std::string_view("nul\0!", 5));
}

TEST(TraceWriter, AssignsDistinctTidsPerThread) {
  const sweep::JsonValue doc = trace_document([](TraceWriter& writer) {
    writer.complete("main", "t", 0, 1);
    std::thread worker(
        [&writer] { writer.complete("worker", "t", 0, 1); });
    worker.join();
  });
  ASSERT_EQ(doc.elements.size(), 2u);
  // 1-based in first-event order: main logged first.
  EXPECT_EQ(doc.elements[0].at("tid").as_uint(), 1u);
  EXPECT_EQ(doc.elements[1].at("tid").as_uint(), 2u);
}

TEST(TraceWriter, NowIsMonotonic) {
  std::ostringstream out;
  TraceWriter writer(out);
  const std::uint64_t a = writer.now_us();
  const std::uint64_t b = writer.now_us();
  EXPECT_LE(a, b);
}

// ---- Span structure of a real traced run ----------------------------------

struct Span {
  std::string name;
  std::string category;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;

  std::uint64_t end() const { return ts + dur; }
  bool contains(const Span& other) const {
    return ts <= other.ts && other.end() <= end();
  }
};

/// True iff some span of `parents` contains `child` in time.
bool contained_in_any(const Span& child, const std::vector<Span>& parents) {
  for (const Span& parent : parents) {
    if (parent.contains(child)) return true;
  }
  return false;
}

// A single-job, single-thread traced Session run must produce one job
// span per query plus depth/level/chunk spans nested inside it.
TEST(TraceWriter, SessionRunEmitsNestedSpans) {
  std::ostringstream out;
  {
    TraceWriter writer(out);
    api::Session session({.num_threads = 1,
                          .record_global = false,
                          .trace = &writer});
    SolvabilityOptions solve;
    solve.max_depth = 5;
    session.run("traced", {api::solvability({"lossy_link", 2, 7}, solve)});
  }
  const sweep::JsonValue doc = sweep::JsonReader::parse(out.str());
  ASSERT_TRUE(doc.is_array());

  std::map<std::string, std::vector<Span>> by_category;
  bool saw_frontier_counter = false;
  for (const sweep::JsonValue& event : doc.elements) {
    if (event.at("ph").as_string() == "C") {
      saw_frontier_counter |=
          event.at("name").as_string() == "frontier_states";
      continue;
    }
    Span span;
    span.name = event.at("name").as_string();
    span.category = event.at("cat").as_string();
    span.ts = event.at("ts").as_uint();
    span.dur = event.at("dur").as_uint();
    by_category[span.category].push_back(span);
  }

  // Chunk expansions log under category "expand" with name "chunk".
  ASSERT_EQ(by_category["job"].size(), 1u);
  EXPECT_FALSE(by_category["depth"].empty());
  EXPECT_FALSE(by_category["level"].empty());
  EXPECT_FALSE(by_category["expand"].empty());
  EXPECT_TRUE(saw_frontier_counter);

  // Containment down the hierarchy (flooring preserves it exactly).
  for (const Span& depth : by_category["depth"]) {
    EXPECT_TRUE(by_category["job"][0].contains(depth)) << depth.name;
  }
  for (const Span& level : by_category["level"]) {
    EXPECT_TRUE(contained_in_any(level, by_category["depth"])) << level.name;
  }
  for (const Span& chunk : by_category["expand"]) {
    EXPECT_EQ(chunk.name, "chunk");
    EXPECT_TRUE(contained_in_any(chunk, by_category["level"])) << chunk.ts;
  }
}

// The shards of a deepening check persist across depths, so each depth
// expands exactly one level (level == depth) and every chunk span inside
// it must carry that depth -- not the depth the engines were built for.
TEST(TraceWriter, DeepeningLabelsChunksWithTheirLevelsDepth) {
  struct Labeled {
    Span span;
    std::uint64_t depth = 0;
    std::uint64_t level = 0;
  };
  std::ostringstream out;
  {
    TraceWriter writer(out);
    telemetry::MetricsRegistry registry(&writer);
    SolvabilityOptions options;
    options.max_depth = 3;
    options.metrics = &registry;
    sweep::ThreadPool pool(2);
    ShardingOptions sharding;
    sharding.chunk_states = 1;
    const SolvabilityResult result = check_solvability(
        *make_lossy_link(0b111), options, pool.as_parallel_for(), {},
        sharding);
    ASSERT_EQ(result.per_depth.size(), 3u);
  }
  const sweep::JsonValue doc = sweep::JsonReader::parse(out.str());
  std::vector<Labeled> levels;
  std::vector<Labeled> chunks;
  for (const sweep::JsonValue& event : doc.elements) {
    if (event.at("ph").as_string() != "X") continue;
    Labeled labeled;
    labeled.span.name = event.at("name").as_string();
    labeled.span.category = event.at("cat").as_string();
    labeled.span.ts = event.at("ts").as_uint();
    labeled.span.dur = event.at("dur").as_uint();
    if (labeled.span.category != "level" &&
        labeled.span.category != "expand") {
      continue;
    }
    labeled.depth = event.at("args").at("depth").as_uint();
    labeled.level = event.at("args").at("level").as_uint();
    (labeled.span.category == "level" ? levels : chunks).push_back(labeled);
  }

  ASSERT_EQ(levels.size(), 3u);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(levels[i].depth, i + 1);
    EXPECT_EQ(levels[i].level, levels[i].depth);
  }
  ASSERT_FALSE(chunks.empty());
  for (const Labeled& chunk : chunks) {
    bool enclosed = false;
    for (const Labeled& level : levels) {
      if (level.level != chunk.level || !level.span.contains(chunk.span)) {
        continue;
      }
      enclosed = true;
      EXPECT_EQ(chunk.depth, level.depth) << "chunk at " << chunk.span.ts;
    }
    EXPECT_TRUE(enclosed) << "chunk at " << chunk.span.ts;
  }
}

// Each level span carries the memory of its stage: `pending_bytes`, the
// pages the roots' merged pending columns hold, and `pool_bytes`, what
// the job's page pool has mapped when the level is committed -- which
// includes the committed level itself.
TEST(TraceWriter, LevelSpansCarryPendingAndPoolBytes) {
  std::ostringstream out;
  std::vector<std::uint64_t> states;
  {
    TraceWriter writer(out);
    telemetry::MetricsRegistry registry(&writer);
    SolvabilityOptions options;
    options.max_depth = 4;
    options.metrics = &registry;
    sweep::ThreadPool pool(2);
    ShardingOptions sharding;
    sharding.chunk_states = 2;
    check_solvability(*make_lossy_link(0b111), options,
                      pool.as_parallel_for(), {}, sharding);
  }
  const sweep::JsonValue doc = sweep::JsonReader::parse(out.str());
  std::size_t levels = 0;
  for (const sweep::JsonValue& event : doc.elements) {
    if (event.at("ph").as_string() != "X" ||
        event.at("cat").as_string() != "level") {
      continue;
    }
    ++levels;
    const sweep::JsonValue& args = event.at("args");
    const std::uint64_t level_states = args.at("states").as_uint();
    const std::uint64_t pending = args.at("pending_bytes").as_uint();
    const std::uint64_t pool_bytes = args.at("pool_bytes").as_uint();
    // Page-backed: whole pages, at least one per non-empty column.
    EXPECT_GT(pending, 0u);
    EXPECT_EQ(pending % 4096, 0u);
    EXPECT_GE(pending, level_states * sizeof(PendingState));
    EXPECT_GE(pool_bytes, level_states * sizeof(PrefixState));
  }
  EXPECT_EQ(levels, 4u);
}

// Shard assembly and component labelling each emit one span per depth
// pass (cheap or certify), nested in time inside that pass's depth span
// and carrying its depth. The absorb of the new views is one span nested
// inside its pass's assemble span, with the views it absorbed and how
// many of them the shared interner missed.
TEST(TraceWriter, AssembleAndComponentsSpansNestInsideTheirDepth) {
  struct Labeled {
    Span span;
    std::uint64_t depth = 0;
    std::uint64_t views = 0;
    std::uint64_t misses = 0;
    std::uint64_t leaves = 0;
    std::uint64_t copied = 0;
    std::uint64_t level_bytes = 0;
  };
  std::ostringstream out;
  {
    TraceWriter writer(out);
    telemetry::MetricsRegistry registry(&writer);
    SolvabilityOptions options;
    options.max_depth = 4;
    options.metrics = &registry;
    sweep::ThreadPool pool(2);
    const SolvabilityResult result = check_solvability(
        *make_lossy_link(0b011), options, pool.as_parallel_for());
    ASSERT_EQ(result.verdict, SolvabilityVerdict::kSolvable);
  }
  const sweep::JsonValue doc = sweep::JsonReader::parse(out.str());
  std::map<std::string, std::vector<Labeled>> by_category;
  for (const sweep::JsonValue& event : doc.elements) {
    if (event.at("ph").as_string() != "X") continue;
    Labeled labeled;
    labeled.span.name = event.at("name").as_string();
    labeled.span.category = event.at("cat").as_string();
    labeled.span.ts = event.at("ts").as_uint();
    labeled.span.dur = event.at("dur").as_uint();
    if (labeled.span.category != "depth" &&
        labeled.span.category != "assemble" &&
        labeled.span.category != "absorb" &&
        labeled.span.category != "components") {
      continue;
    }
    labeled.depth = event.at("args").at("depth").as_uint();
    if (labeled.span.category == "absorb") {
      labeled.views = event.at("args").at("views").as_uint();
      labeled.misses = event.at("args").at("misses").as_uint();
    }
    if (labeled.span.category == "assemble") {
      labeled.leaves = event.at("args").at("leaves").as_uint();
      labeled.copied = event.at("args").at("copied").as_uint();
      labeled.level_bytes = event.at("args").at("level_bytes").as_uint();
    }
    by_category[labeled.span.category].push_back(labeled);
  }
  const std::vector<Labeled>& depths = by_category["depth"];
  ASSERT_FALSE(depths.empty());
  for (const char* stage : {"assemble", "components"}) {
    const std::vector<Labeled>& spans = by_category[stage];
    EXPECT_EQ(spans.size(), depths.size()) << stage;
    for (const Labeled& inner : spans) {
      EXPECT_EQ(inner.span.name, stage);
      bool nested = false;
      for (const Labeled& depth : depths) {
        nested |= depth.depth == inner.depth &&
                  depth.span.contains(inner.span);
      }
      EXPECT_TRUE(nested) << stage << " at " << inner.span.ts;
    }
  }
  const std::vector<Labeled>& assembles = by_category["assemble"];
  const std::vector<Labeled>& absorbs = by_category["absorb"];
  EXPECT_EQ(absorbs.size(), assembles.size());
  std::uint64_t views = 0;
  for (const Labeled& absorb : absorbs) {
    EXPECT_EQ(absorb.span.name, "absorb");
    EXPECT_LE(absorb.misses, absorb.views);
    views += absorb.views;
    bool nested = false;
    for (const Labeled& assemble : assembles) {
      nested |= assemble.depth == absorb.depth &&
                assemble.span.contains(absorb.span);
    }
    EXPECT_TRUE(nested) << "absorb at " << absorb.span.ts;
  }
  EXPECT_GT(views, 0u);
  // An assembly copies its leaves below the set's deepest depth and
  // spends the set at it, which the one-shot certify pass always does.
  bool certify_seen = false;
  bool copy_seen = false;
  for (const Labeled& assemble : assembles) {
    copy_seen |= assemble.copied > 0;
    EXPECT_TRUE(assemble.copied == 0 || assemble.copied == assemble.leaves)
        << "assemble at " << assemble.span.ts;
    EXPECT_GE(assemble.level_bytes, assemble.leaves * sizeof(PrefixState))
        << "assemble at " << assemble.span.ts;
    for (const Labeled& depth : depths) {
      if (depth.span.name.ends_with("(certify)") &&
          depth.span.contains(assemble.span)) {
        certify_seen = true;
        EXPECT_EQ(assemble.copied, 0u);
      }
    }
  }
  EXPECT_TRUE(certify_seen);
  EXPECT_TRUE(copy_seen);  // depth 1 is below the set's deepest, 4
}

// The decision-table build of a certified check emits one `table` span
// with its depth and entry count, nested in time inside the certify pass's
// depth span.
TEST(TraceWriter, TableSpanNestsInsideTheCertifyDepth) {
  std::ostringstream out;
  std::size_t table_entries = 0;
  {
    TraceWriter writer(out);
    telemetry::MetricsRegistry registry(&writer);
    SolvabilityOptions options;
    options.max_depth = 4;
    options.build_table = true;
    options.metrics = &registry;
    sweep::ThreadPool pool(2);
    const SolvabilityResult result = check_solvability(
        *make_lossy_link(0b011), options, pool.as_parallel_for());
    ASSERT_EQ(result.verdict, SolvabilityVerdict::kSolvable);
    ASSERT_TRUE(result.table.has_value());
    table_entries = result.table->size();
  }
  const sweep::JsonValue doc = sweep::JsonReader::parse(out.str());
  std::vector<Span> tables;
  std::vector<Span> certify;
  std::uint64_t certified_depth = 0;
  for (const sweep::JsonValue& event : doc.elements) {
    if (event.at("ph").as_string() != "X") continue;
    Span span;
    span.name = event.at("name").as_string();
    span.category = event.at("cat").as_string();
    span.ts = event.at("ts").as_uint();
    span.dur = event.at("dur").as_uint();
    if (span.category == "table") {
      EXPECT_EQ(span.name, "table");
      certified_depth = event.at("args").at("depth").as_uint();
      EXPECT_EQ(event.at("args").at("entries").as_uint(), table_entries);
      tables.push_back(span);
    } else if (span.category == "depth" &&
               span.name.find("(certify)") != std::string::npos) {
      certify.push_back(span);
    }
  }
  ASSERT_EQ(tables.size(), 1u);
  ASSERT_EQ(certify.size(), 1u);
  EXPECT_EQ(certify[0].name,
            "depth " + std::to_string(certified_depth) + " (certify)");
  EXPECT_TRUE(certify[0].contains(tables[0]));
}

}  // namespace
}  // namespace topocon
