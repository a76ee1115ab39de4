// The serve subsystem: SPSC event ring semantics, verdict-cache LRU
// behavior, the canonical memoization key, protocol framing, and the
// end-to-end acceptance criteria of the daemon -- byte-identical cached
// artifacts without recompute, clean overload rejection, and a slow
// subscriber that loses events instead of stalling the sweep.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "gtest/gtest.h"
#include "runtime/sweep/json.hpp"
#include "scenario/scenario.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/ring.hpp"
#include "service/server.hpp"

namespace topocon {
namespace {

using service::EventRing;
using service::Request;
using service::ServeClient;
using service::ServeEvent;
using service::ServeOptions;
using service::Server;
using service::StatsSnapshot;
using service::VerdictCache;

ServeEvent event_numbered(std::uint64_t n) {
  ServeEvent event;
  event.submission = n;
  event.kind = ServeEvent::Kind::kChunk;
  event.a = n * 10;
  return event;
}

TEST(EventRing, RoundTripsInOrder) {
  EventRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(ring.push(event_numbered(i)));
  }
  ServeEvent event;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.pop(&event));
    EXPECT_EQ(event.submission, i);
    EXPECT_EQ(event.a, i * 10);
  }
  EXPECT_FALSE(ring.pop(&event));
  EXPECT_EQ(ring.drops(), 0u);
}

TEST(EventRing, OverwritesOldestWhenFullAndCountsDrops) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(event_numbered(i));
  EXPECT_EQ(ring.drops(), 6u);
  // The newest window survives: 6..9.
  ServeEvent event;
  for (std::uint64_t expected = 6; expected < 10; ++expected) {
    ASSERT_TRUE(ring.pop(&event));
    EXPECT_EQ(event.submission, expected);
  }
  EXPECT_FALSE(ring.pop(&event));
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(1).capacity(), 2u);
  EXPECT_EQ(EventRing(5).capacity(), 8u);
  EXPECT_EQ(EventRing(64).capacity(), 64u);
}

TEST(VerdictCache, LruEvictionAndCounters) {
  VerdictCache cache(/*max_entries=*/2, /*max_bytes=*/1 << 20);
  EXPECT_EQ(cache.find("a"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert("a", "AAAA");
  cache.insert("b", "BBBB");
  ASSERT_NE(cache.find("a"), nullptr);  // promotes a over b
  EXPECT_EQ(*cache.find("a"), "AAAA");
  cache.insert("c", "CCCC");  // evicts b, the LRU entry
  EXPECT_EQ(cache.find("b"), nullptr);
  ASSERT_NE(cache.find("c"), nullptr);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), 8u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
}

TEST(VerdictCache, ByteLimitEvictsAndRejectsOversized) {
  VerdictCache cache(/*max_entries=*/10, /*max_bytes=*/10);
  cache.insert("big", std::string(11, 'x'));  // larger than the whole cache
  EXPECT_EQ(cache.entries(), 0u);
  cache.insert("a", std::string(6, 'a'));
  cache.insert("b", std::string(6, 'b'));  // 12 bytes total: evicts a
  EXPECT_EQ(cache.find("a"), nullptr);
  ASSERT_NE(cache.find("b"), nullptr);
  EXPECT_EQ(cache.bytes(), 6u);
}

// --- Satellite: the memoization key -----------------------------------

/// Serialization-irrelevant differences -- member order on the wire --
/// collapse onto one canonical form: parse(reordered) re-serializes to
/// the exact canonical bytes, so both phrasings share a cache key.
TEST(MemoKey, CanonicalJsonIsAFixedPointUnderReordering) {
  SolvabilityOptions options;
  options.max_depth = 5;
  options.build_table = false;
  const api::Query query = api::solvability({"lossy_link", 2, 3}, options);
  const std::string canonical = api::query_to_string(query);

  sweep::JsonValue reordered =
      sweep::JsonReader::parse(canonical);
  ASSERT_TRUE(reordered.is_object());
  std::reverse(reordered.members.begin(), reordered.members.end());
  std::ostringstream shuffled;
  sweep::JsonWriter writer(shuffled, sweep::JsonStyle::kCompact);
  sweep::write_json_value(writer, reordered);
  ASSERT_NE(shuffled.str(), canonical);  // the reorder really reordered

  const api::Query reparsed = api::parse_query(shuffled.str());
  EXPECT_EQ(api::query_to_string(reparsed), canonical);

  const api::Plan plan_a{"run", {query}};
  const api::Plan plan_b{"run", {reparsed}};
  EXPECT_EQ(service::plan_cache_key(plan_a), service::plan_cache_key(plan_b));
}

/// Distinct queries never collide: across families, parameters, query
/// kinds, and solver options, every key is unique.
TEST(MemoKey, DistinctQueriesNeverCollide) {
  std::vector<api::Query> queries;
  for (int mask = 1; mask <= 7; ++mask) {
    queries.push_back(api::solvability({"lossy_link", 2, mask}));
  }
  for (int f = 0; f <= 2; ++f) {
    queries.push_back(api::solvability({"omission", 2, f}));
  }
  for (int p = 1; p <= 3; ++p) {
    queries.push_back(api::solvability({"heard_of_rounds", 2, p}));
  }
  SolvabilityOptions deep;
  deep.max_depth = 7;
  queries.push_back(api::solvability({"lossy_link", 2, 3}, deep));
  SolvabilityOptions strong = deep;
  strong.strong_validity = true;
  queries.push_back(api::solvability({"lossy_link", 2, 3}, strong));
  queries.push_back(api::decision_table({"lossy_link", 2, 3}));
  AnalysisOptions series;
  series.depth = 3;
  queries.push_back(api::depth_series({"lossy_link", 2, 3}, series));
  AnalysisOptions deeper_series;
  deeper_series.depth = 4;
  queries.push_back(api::depth_series({"lossy_link", 2, 3}, deeper_series));

  std::set<std::string> keys;
  for (const api::Query& query : queries) {
    keys.insert(service::plan_cache_key(api::Plan{"run", {query}}));
  }
  EXPECT_EQ(keys.size(), queries.size());
  // The plan name is part of the key too: a renamed plan is a new entry.
  keys.insert(service::plan_cache_key(api::Plan{"other", {queries[0]}}));
  EXPECT_EQ(keys.size(), queries.size() + 1);
}

// --- Protocol framing --------------------------------------------------

TEST(Protocol, VersionLineNamesEverySchema) {
  const std::string line = service::version_line();
  EXPECT_NE(line.find("topocon-sweep-v1"), std::string::npos);
  EXPECT_NE(line.find("topocon-sweep-ckpt-v1"), std::string::npos);
  EXPECT_NE(line.find("topocon-serve-v1"), std::string::npos);
  EXPECT_NE(line.find("serve protocol 2"), std::string::npos);
}

TEST(Protocol, ParsesScenarioSubmit) {
  const Request request = service::parse_request(
      R"({"op":"submit","scenario":"lossy-link-atlas","param_min":2,"param_max":3})");
  EXPECT_EQ(request.op, Request::Op::kSubmit);
  EXPECT_EQ(request.scenario, "lossy-link-atlas");
  EXPECT_EQ(request.overrides.param_min, 2);
  EXPECT_EQ(request.overrides.param_max, 3);
  EXPECT_FALSE(request.overrides.n.has_value());
}

TEST(Protocol, ParsesExplicitQuerySubmit) {
  const api::Query query = api::solvability({"omission", 2, 1});
  const Request request = service::parse_request(
      R"({"op":"submit","name":"mine","queries":[)" +
      api::query_to_string(query) + "]}");
  EXPECT_EQ(request.name, "mine");
  ASSERT_EQ(request.queries.size(), 1u);
  EXPECT_EQ(api::query_to_string(request.queries[0]),
            api::query_to_string(query));
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_THROW(service::parse_request("not json"), std::runtime_error);
  EXPECT_THROW(service::parse_request(R"({"op":"frobnicate"})"),
               std::runtime_error);
  // Mixing the two submit forms, or naming neither.
  EXPECT_THROW(
      service::parse_request(
          R"({"op":"submit","scenario":"atlas","name":"x","queries":[]})"),
      std::runtime_error);
  EXPECT_THROW(service::parse_request(R"({"op":"submit"})"),
               std::runtime_error);
  EXPECT_THROW(
      service::parse_request(R"({"op":"submit","scenario":"a","bogus":1})"),
      std::runtime_error);
  EXPECT_THROW(service::parse_request(R"({"op":"status"})"),
               std::runtime_error);
  EXPECT_THROW(service::parse_request(R"({"op":"cancel"})"),
               std::runtime_error);
}

// --- End-to-end daemon tests ------------------------------------------

std::string unique_socket_path(const char* tag) {
  static int counter = 0;
  return "/tmp/topocon-serve-test-" + std::to_string(getpid()) + "-" +
         std::to_string(counter++) + "-" + tag + ".sock";
}

/// Runs a Server on a background thread for one test's lifetime.
class ServerHarness {
 public:
  explicit ServerHarness(ServeOptions options)
      : path_(options.socket_path), server_(std::move(options)) {
    thread_ = std::thread([this] { exit_code_ = server_.run(); });
  }

  ~ServerHarness() {
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

  /// Connects, retrying until the listener is up.
  ServeClient connect() {
    for (int attempt = 0; attempt < 100; ++attempt) {
      try {
        return ServeClient(path_);
      } catch (const std::runtime_error&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    return ServeClient(path_);  // last try; throws the real error
  }

  Server& server() { return server_; }
  int exit_code() const { return exit_code_; }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::string path_;
  Server server_;
  std::thread thread_;
  int exit_code_ = -1;
};

sweep::JsonValue parse_frame(const std::string& line) {
  return sweep::JsonReader::parse(line);
}

/// Reads frames until one with `op`, failing the test on error frames.
sweep::JsonValue read_until(ServeClient& client, const std::string& op) {
  for (int i = 0; i < 10000; ++i) {
    const sweep::JsonValue frame = parse_frame(client.read_line());
    const std::string& got = frame.at("op").as_string();
    if (got == op) return frame;
    if (got == "error") {
      ADD_FAILURE() << "server error: " << frame.at("message").as_string();
      return frame;
    }
  }
  ADD_FAILURE() << "frame " << op << " never arrived";
  return {};
}

std::string submit_scenario_line(const char* scenario, int param_min,
                                 int param_max) {
  std::ostringstream out;
  sweep::JsonWriter writer(out, sweep::JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "submit");
  writer.member("scenario", scenario);
  writer.member("param_min", param_min);
  writer.member("param_max", param_max);
  writer.end_object();
  return out.str();
}

/// The acceptance criterion: a submitted scenario's artifact is
/// byte-identical to a direct Session run, the repeat is served from the
/// cache (counter-proven: one sweep executed, one cache hit), and the
/// cached bytes equal the computed ones. Also proves scenario submits
/// and explicit canonical-query submits share one cache entry.
TEST(ServeEndToEnd, CacheHitReturnsIdenticalBytesWithoutRecompute) {
  ServeOptions options;
  options.socket_path = unique_socket_path("cache");
  ServerHarness harness(std::move(options));
  ServeClient client = harness.connect();
  EXPECT_EQ(parse_frame(client.hello()).at("schema").as_string(),
            "topocon-serve-v1");
  EXPECT_EQ(parse_frame(client.hello()).at("protocol").as_int(), 2);
  // The version object names exactly the artifact schemas a client may
  // negotiate against.
  const sweep::JsonValue version = parse_frame(client.hello()).at("version");
  ASSERT_EQ(version.members.size(), 2u);
  EXPECT_EQ(version.members[0].first, "sweep");
  EXPECT_EQ(version.members[0].second.as_string(), "topocon-sweep-v1");
  EXPECT_EQ(version.members[1].first, "checkpoint");
  EXPECT_EQ(version.members[1].second.as_string(), "topocon-sweep-ckpt-v1");

  // What `topocon run lossy-link-atlas --param-min=1 --param-max=2
  // --json=...` would write, computed directly on a fresh Session.
  const scenario::Scenario* s = scenario::find_scenario("lossy-link-atlas");
  ASSERT_NE(s, nullptr);
  scenario::GridOverrides overrides;
  overrides.param_min = 1;
  overrides.param_max = 2;
  const api::Plan plan = scenario::expand_scenario(*s, overrides);
  api::Session session({.record_global = false});
  session.run(plan.name, plan.queries);
  const std::string expected =
      service::render_artifact(plan.name, session.history().back().second);

  client.send_line(submit_scenario_line("lossy-link-atlas", 1, 2));
  sweep::JsonValue accepted = read_until(client, "accepted");
  EXPECT_FALSE(accepted.at("cached").as_bool());
  sweep::JsonValue result = read_until(client, "result");
  EXPECT_FALSE(result.at("cached").as_bool());
  const std::string first = client.read_bytes(
      static_cast<std::size_t>(result.at("artifact_bytes").as_uint()));
  EXPECT_EQ(first, expected);

  // The repeat, phrased identically: answered from the cache.
  client.send_line(submit_scenario_line("lossy-link-atlas", 1, 2));
  accepted = read_until(client, "accepted");
  EXPECT_TRUE(accepted.at("cached").as_bool());
  result = read_until(client, "result");
  EXPECT_TRUE(result.at("cached").as_bool());
  const std::string second = client.read_bytes(
      static_cast<std::size_t>(result.at("artifact_bytes").as_uint()));
  EXPECT_EQ(second, first);

  // ... and phrased as explicit canonical queries: same key, same entry.
  std::ostringstream explicit_submit;
  sweep::JsonWriter writer(explicit_submit, sweep::JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "submit");
  writer.member("name", plan.name);
  writer.key("queries");
  writer.begin_array();
  for (const api::Query& query : plan.queries) {
    sweep::write_json_value(writer, api::query_to_json(query));
  }
  writer.end_array();
  writer.end_object();
  client.send_line(explicit_submit.str());
  accepted = read_until(client, "accepted");
  EXPECT_TRUE(accepted.at("cached").as_bool());
  result = read_until(client, "result");
  client.read_bytes(
      static_cast<std::size_t>(result.at("artifact_bytes").as_uint()));

  // The counters prove no recompute: one executed sweep, two hits.
  const StatsSnapshot stats = harness.server().stats();
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.submits, 3u);

  client.send_line(R"({"op":"stats"})");
  const sweep::JsonValue frame = read_until(client, "stats");
  EXPECT_EQ(frame.at("cache_hits").as_uint(), 2u);
  EXPECT_EQ(frame.at("jobs_completed").as_uint(), 1u);
}

/// Admission control: with room for a single queued submission, firing
/// three distinct sweeps back to back must reject at least one with a
/// clean `overloaded` frame -- and every accepted one still completes.
TEST(ServeEndToEnd, OverloadedBeyondAdmissionLimit) {
  ServeOptions options;
  options.socket_path = unique_socket_path("overload");
  options.queue_limit = 1;
  ServerHarness harness(std::move(options));
  ServeClient client = harness.connect();

  // One write, three submit lines: the server processes them in one
  // pass, faster than any sweep can finish.
  client.send_line(submit_scenario_line("lossy-link-atlas", 1, 7) + "\n" +
                   submit_scenario_line("lossy-link-atlas", 1, 1) + "\n" +
                   submit_scenario_line("lossy-link-atlas", 2, 2));
  int accepted = 0;
  int overloaded = 0;
  std::vector<std::uint64_t> pending;
  while (accepted + overloaded < 3) {
    const sweep::JsonValue frame = parse_frame(client.read_line());
    const std::string& op = frame.at("op").as_string();
    if (op == "accepted") {
      ++accepted;
      pending.push_back(frame.at("id").as_uint());
    } else if (op == "overloaded") {
      ++overloaded;
      EXPECT_EQ(frame.at("limit").as_uint(), 1u);
    } else {
      FAIL() << "unexpected frame: " << op;
    }
  }
  EXPECT_GE(overloaded, 1);
  EXPECT_LE(accepted, 2);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const sweep::JsonValue result = read_until(client, "result");
    client.read_bytes(
        static_cast<std::size_t>(result.at("artifact_bytes").as_uint()));
  }
  EXPECT_GE(harness.server().stats().rejected_overload, 1u);
}

/// The fan-out acceptance criterion: a subscriber that never reads loses
/// events (drop counter increments) while the sweep it watches runs to
/// completion undisturbed.
TEST(ServeEndToEnd, SlowSubscriberDropsEventsInsteadOfStalling) {
  ServeOptions options;
  options.socket_path = unique_socket_path("slowsub");
  options.ring_capacity = 2;  // minimal ring: overflow is immediate
  ServerHarness harness(std::move(options));

  ServeClient subscriber = harness.connect();
  subscriber.send_line(R"({"op":"subscribe"})");
  read_until(subscriber, "subscribed");
  // From here on the subscriber never reads: its ring fills and rolls.

  ServeClient submitter = harness.connect();
  submitter.send_line(submit_scenario_line("lossy-link-atlas", 1, 7));
  const sweep::JsonValue result = read_until(submitter, "result");
  const std::string artifact = submitter.read_bytes(
      static_cast<std::size_t>(result.at("artifact_bytes").as_uint()));
  EXPECT_FALSE(artifact.empty());  // the sweep finished despite the stall

  const StatsSnapshot stats = harness.server().stats();
  EXPECT_EQ(stats.subscribers, 1u);
  EXPECT_GT(stats.events_streamed, 0u);
  EXPECT_GT(stats.subscriber_drops, 0u);
}

/// A live subscriber receives well-formed event frames for the sweep.
TEST(ServeEndToEnd, SubscriberStreamsJobLifecycleEvents) {
  ServeOptions options;
  options.socket_path = unique_socket_path("events");
  ServerHarness harness(std::move(options));
  ServeClient client = harness.connect();
  client.send_line(R"({"op":"subscribe"})");
  read_until(client, "subscribed");
  client.send_line(submit_scenario_line("lossy-link-atlas", 3, 3));

  bool saw_start = false;
  bool saw_done = false;
  for (int i = 0; i < 10000; ++i) {
    const sweep::JsonValue frame = parse_frame(client.read_line());
    const std::string& op = frame.at("op").as_string();
    if (op == "result") {
      client.read_bytes(
          static_cast<std::size_t>(frame.at("artifact_bytes").as_uint()));
      break;
    }
    if (op != "event") continue;
    const std::string& kind = frame.at("kind").as_string();
    if (kind == "job_start") saw_start = true;
    if (kind == "job_done") {
      saw_done = true;
      EXPECT_EQ(frame.at("jobs_total").as_uint(), 1u);
    }
  }
  // The ring may roll chunk events at default capacity, but the sparse
  // lifecycle events of a one-job sweep always fit.
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_done);
}

TEST(ServeEndToEnd, StatusCancelAndErrors) {
  ServeOptions options;
  options.socket_path = unique_socket_path("status");
  ServerHarness harness(std::move(options));
  ServeClient client = harness.connect();

  client.send_line(R"({"op":"status","id":42})");
  sweep::JsonValue frame = parse_frame(client.read_line());
  EXPECT_EQ(frame.at("op").as_string(), "error");

  client.send_line(R"({"op":"cancel","id":42})");
  frame = parse_frame(client.read_line());
  EXPECT_EQ(frame.at("op").as_string(), "error");

  client.send_line(R"({"op":"submit","scenario":"no-such-scenario"})");
  frame = parse_frame(client.read_line());
  EXPECT_EQ(frame.at("op").as_string(), "error");
  EXPECT_NE(frame.at("message").as_string().find("unknown scenario"),
            std::string::npos);

  client.send_line(submit_scenario_line("lossy-link-atlas", 1, 1));
  frame = read_until(client, "accepted");
  const std::uint64_t id = frame.at("id").as_uint();
  frame = read_until(client, "result");
  client.read_bytes(
      static_cast<std::size_t>(frame.at("artifact_bytes").as_uint()));
  client.send_line("{\"op\":\"status\",\"id\":" + std::to_string(id) + "}");
  frame = read_until(client, "status");
  EXPECT_EQ(frame.at("state").as_string(), "done");
}

TEST(ServeEndToEnd, ShutdownDrainsAndExitsCleanly) {
  ServeOptions options;
  options.socket_path = unique_socket_path("shutdown");
  ServerHarness harness(std::move(options));
  ServeClient client = harness.connect();
  client.send_line(R"({"op":"shutdown"})");
  const sweep::JsonValue frame = parse_frame(client.read_line());
  EXPECT_EQ(frame.at("op").as_string(), "bye");
  harness.join();
  EXPECT_EQ(harness.exit_code(), 0);
}

}  // namespace
}  // namespace topocon
