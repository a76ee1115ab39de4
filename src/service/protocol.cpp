#include "service/protocol.hpp"

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "api/query.hpp"
#include "runtime/sweep/checkpoint.hpp"
#include "runtime/sweep/json.hpp"

namespace topocon::service {

namespace {

using sweep::JsonStyle;
using sweep::JsonValue;
using sweep::JsonWriter;

/// All compact frames end in exactly one newline: the line IS the frame.
std::string finish(std::ostringstream& out) {
  out << '\n';
  return out.str();
}

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

int int_member(const JsonValue& value, const char* key) {
  const std::int64_t wide = value.at(key).as_int();
  if (wide < INT32_MIN || wide > INT32_MAX) {
    fail(std::string("request: member \"") + key + "\" out of range");
  }
  return static_cast<int>(wide);
}

}  // namespace

std::string version_line() {
  std::string line = "topocon (serve protocol ";
  line += std::to_string(kServeProtocolVersion);
  line += "; schemas: ";
  line += sweep::kSweepSchema;
  line += ", ";
  line += sweep::kCheckpointSchema;
  line += ", ";
  line += kServeSchema;
  line += ")";
  return line;
}

std::string plan_cache_key(const api::Plan& plan) {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("name", plan.name);
  writer.key("queries");
  writer.begin_array();
  for (const api::Query& query : plan.queries) {
    write_json_value(writer, api::query_to_json(query));
  }
  writer.end_array();
  writer.end_object();
  return out.str();
}

std::string render_artifact(const std::string& sweep_name,
                            const std::vector<sweep::JobRecord>& records) {
  std::ostringstream out;
  JsonWriter writer(out);
  writer.begin_object();
  writer.member("schema", sweep::kSweepSchema);
  writer.key("sweeps");
  writer.begin_array();
  sweep::write_sweep_json(writer, sweep_name, records);
  writer.end_array();
  writer.end_object();
  out << '\n';
  return out.str();
}

Request parse_request(std::string_view line) {
  JsonValue value;
  try {
    value = sweep::JsonReader::parse(line);
  } catch (const std::runtime_error& e) {
    fail(std::string("request: malformed JSON (") + e.what() + ")");
  }
  if (!value.is_object()) fail("request: expected a JSON object");
  const JsonValue* op = value.find("op");
  if (op == nullptr) fail("request: missing \"op\"");
  const std::string& name = op->as_string();

  Request request;
  if (name == "submit") {
    request.op = Request::Op::kSubmit;
  } else if (name == "status") {
    request.op = Request::Op::kStatus;
  } else if (name == "subscribe") {
    request.op = Request::Op::kSubscribe;
  } else if (name == "cancel") {
    request.op = Request::Op::kCancel;
  } else if (name == "stats") {
    request.op = Request::Op::kStats;
  } else if (name == "shutdown") {
    request.op = Request::Op::kShutdown;
  } else {
    fail("request: unknown op \"" + name + "\"");
  }

  if (request.op == Request::Op::kSubmit) {
    const bool by_scenario = value.find("scenario") != nullptr;
    const bool by_queries =
        value.find("name") != nullptr || value.find("queries") != nullptr;
    if (by_scenario == by_queries) {
      fail("submit: exactly one of \"scenario\" or \"name\"+\"queries\" "
           "is required");
    }
    for (const auto& [key, member] : value.members) {
      if (key == "op") continue;
      if (by_scenario) {
        if (key == "scenario") {
          request.scenario = member.as_string();
        } else if (key == "n") {
          request.overrides.n = int_member(value, "n");
        } else if (key == "param_min") {
          request.overrides.param_min = int_member(value, "param_min");
        } else if (key == "param_max") {
          request.overrides.param_max = int_member(value, "param_max");
        } else if (key == "seed") {
          request.overrides.seed = member.as_uint();
        } else if (key == "count") {
          request.overrides.count = int_member(value, "count");
        } else {
          fail("submit: unknown member \"" + key + "\"");
        }
      } else {
        if (key == "name") {
          request.name = member.as_string();
        } else if (key == "queries") {
          if (!member.is_array()) fail("submit: \"queries\" must be an array");
          for (const JsonValue& query : member.elements) {
            try {
              request.queries.push_back(api::query_from_json(query));
            } catch (const std::exception& e) {
              fail(std::string("submit: ") + e.what());
            }
          }
        } else {
          fail("submit: unknown member \"" + key + "\"");
        }
      }
    }
    if (by_queries) {
      if (request.name.empty()) fail("submit: missing \"name\"");
      if (request.queries.empty()) fail("submit: \"queries\" must be non-empty");
    }
    return request;
  }

  for (const auto& [key, member] : value.members) {
    if (key == "op") continue;
    if (key == "id" && (request.op == Request::Op::kStatus ||
                        request.op == Request::Op::kSubscribe ||
                        request.op == Request::Op::kCancel)) {
      request.id = member.as_uint();
      request.has_id = true;
      continue;
    }
    fail(name + ": unknown member \"" + key + "\"");
  }
  if (!request.has_id && (request.op == Request::Op::kStatus ||
                          request.op == Request::Op::kCancel)) {
    fail(name + ": missing \"id\"");
  }
  return request;
}

std::string hello_line() {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "hello");
  writer.member("schema", kServeSchema);
  writer.member("protocol", kServeProtocolVersion);
  writer.key("version");
  writer.begin_object();
  writer.member("sweep", sweep::kSweepSchema);
  writer.member("checkpoint", sweep::kCheckpointSchema);
  writer.end_object();
  writer.end_object();
  return finish(out);
}

std::string accepted_line(std::uint64_t id, bool cached,
                          std::uint64_t queued) {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "accepted");
  writer.member("id", id);
  writer.member("cached", cached);
  writer.member("queued", queued);
  writer.end_object();
  return finish(out);
}

std::string overloaded_line(std::uint64_t queued, std::uint64_t limit) {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "overloaded");
  writer.member("queued", queued);
  writer.member("limit", limit);
  writer.end_object();
  return finish(out);
}

std::string result_line(std::uint64_t id, const std::string& name,
                        bool cached, std::size_t artifact_bytes) {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "result");
  writer.member("id", id);
  writer.member("name", name);
  writer.member("cached", cached);
  writer.member("artifact_bytes", artifact_bytes);
  writer.end_object();
  return finish(out);
}

std::string status_line(std::uint64_t id, std::string_view state,
                        std::uint64_t position) {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "status");
  writer.member("id", id);
  writer.member("state", state);
  writer.member("position", position);
  writer.end_object();
  return finish(out);
}

std::string stats_line(const StatsSnapshot& stats) {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "stats");
  writer.member("requests", stats.requests);
  writer.member("submits", stats.submits);
  writer.member("cache_hits", stats.cache_hits);
  writer.member("cache_misses", stats.cache_misses);
  writer.member("cache_entries", stats.cache_entries);
  writer.member("cache_bytes", stats.cache_bytes);
  writer.member("queue_depth", stats.queue_depth);
  writer.member("running", stats.running);
  writer.member("rejected_overload", stats.rejected_overload);
  writer.member("cancelled", stats.cancelled);
  writer.member("jobs_completed", stats.jobs_completed);
  writer.member("subscribers", stats.subscribers);
  writer.member("subscriber_drops", stats.subscriber_drops);
  writer.member("events_streamed", stats.events_streamed);
  writer.end_object();
  return finish(out);
}

std::string subscribed_line(std::uint64_t id) {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "subscribed");
  writer.member("id", id);
  writer.end_object();
  return finish(out);
}

std::string cancelled_line(std::uint64_t id) {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "cancelled");
  writer.member("id", id);
  writer.end_object();
  return finish(out);
}

std::string error_line(std::string_view message) {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "error");
  writer.member("message", message);
  writer.end_object();
  return finish(out);
}

std::string bye_line() {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "bye");
  writer.end_object();
  return finish(out);
}

std::string event_line(const ServeEvent& event) {
  std::ostringstream out;
  JsonWriter writer(out, JsonStyle::kCompact);
  writer.begin_object();
  writer.member("op", "event");
  switch (event.kind) {
    case ServeEvent::Kind::kJobStart:
      writer.member("kind", "job_start");
      writer.member("submission", event.submission);
      writer.member("job", event.job);
      break;
    case ServeEvent::Kind::kChunk:
      writer.member("kind", "chunk");
      writer.member("submission", event.submission);
      writer.member("job", event.job);
      writer.member("depth", event.a);
      writer.member("level", event.b);
      writer.member("chunks_done", event.c);
      writer.member("chunks_total", event.d);
      writer.member("frontier_states", event.e);
      break;
    case ServeEvent::Kind::kDepth:
      writer.member("kind", "depth");
      writer.member("submission", event.submission);
      writer.member("job", event.job);
      writer.member("depth", event.a);
      writer.member("leaf_classes", event.b);
      writer.member("components", event.c);
      writer.member("separated", event.d != 0);
      break;
    case ServeEvent::Kind::kTelemetry:
      writer.member("kind", "telemetry");
      writer.member("submission", event.submission);
      writer.member("job", event.job);
      writer.member("states_expanded", event.a);
      writer.member("states_committed", event.b);
      writer.member("views_interned", event.c);
      writer.member("levels_committed", event.d);
      writer.member("frontier_high_water", event.e);
      break;
    case ServeEvent::Kind::kJobDone:
      writer.member("kind", "job_done");
      writer.member("submission", event.submission);
      writer.member("job", event.job);
      writer.member("jobs_done", event.a);
      writer.member("jobs_total", event.b);
      break;
  }
  writer.end_object();
  return finish(out);
}

}  // namespace topocon::service
