// The topocon serve wire protocol: newline-delimited JSON, version 2.
//
// Every frame is one compact JSON object on one line. The server greets
// each connection with a `hello` line carrying the protocol number and
// the artifact schema versions, then answers one response frame (or an
// event stream) per request line. The single exception to pure JSONL is
// artifact delivery: a `result` line announces `artifact_bytes": M` and
// the next M bytes on the wire are the raw artifact document -- raw
// framing, not a JSON string, so the served bytes can be compared
// byte-for-byte against `topocon run` output without an escaping round
// trip.
//
// Client -> server ops: submit, status, subscribe, cancel, stats,
// shutdown. Server -> client frames: hello, accepted, overloaded,
// result, status, stats, subscribed, event, cancelled, error, bye.
// One writer per connection (the I/O loop), so frames never interleave.
//
// This header also owns the memoization key: plan_cache_key renders a
// plan as `{"name": ..., "queries": [...]}` with every query in its
// canonical JSON form (api::query_to_json -- fixed member order, fixed
// value encoding), so two submissions that expand to the same plan hit
// the same cache line no matter how they were phrased on the wire.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/session.hpp"
#include "runtime/sweep/engine.hpp"
#include "scenario/scenario.hpp"
#include "service/ring.hpp"

namespace topocon::service {

inline constexpr int kServeProtocolVersion = 2;
inline constexpr std::string_view kServeSchema = "topocon-serve-v1";

/// One-line version banner: serve protocol plus every artifact schema a
/// client may negotiate against (`topocon --version` and the hello
/// frame's "version" member carry the same facts).
std::string version_line();

/// The canonical memoization key of a plan (see the header comment).
std::string plan_cache_key(const api::Plan& plan);

/// The finalized topocon-sweep-v1 document for one run -- byte-identical
/// to what `topocon run --json` writes for the same records (pretty
/// JSON, trailing newline).
std::string render_artifact(const std::string& sweep_name,
                            const std::vector<sweep::JobRecord>& records);

/// A parsed client request line.
struct Request {
  enum class Op { kSubmit, kStatus, kSubscribe, kCancel, kStats, kShutdown };
  Op op = Op::kStats;
  /// status/cancel target; subscribe filter (0 = all submissions).
  std::uint64_t id = 0;
  bool has_id = false;
  /// Submit, scenario form: non-empty scenario name plus overrides.
  std::string scenario;
  scenario::GridOverrides overrides;
  /// Submit, explicit form: plan name plus canonical query objects.
  std::string name;
  std::vector<api::Query> queries;
};

/// Parses one request line. Throws std::runtime_error with a
/// client-presentable message on malformed JSON, unknown ops, unknown or
/// conflicting members, or invalid queries.
Request parse_request(std::string_view line);

/// Serve-level counters as one coherent snapshot (the `stats` frame).
struct StatsSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t submits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t running = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t subscribers = 0;
  std::uint64_t subscriber_drops = 0;
  std::uint64_t events_streamed = 0;
};

// Response frame builders. Each returns one complete line including the
// trailing '\n'.
std::string hello_line();
std::string accepted_line(std::uint64_t id, bool cached,
                          std::uint64_t queued);
std::string overloaded_line(std::uint64_t queued, std::uint64_t limit);
std::string result_line(std::uint64_t id, const std::string& name,
                        bool cached, std::size_t artifact_bytes);
std::string status_line(std::uint64_t id, std::string_view state,
                        std::uint64_t position);
std::string stats_line(const StatsSnapshot& stats);
std::string subscribed_line(std::uint64_t id);
std::string cancelled_line(std::uint64_t id);
std::string error_line(std::string_view message);
std::string bye_line();
std::string event_line(const ServeEvent& event);

}  // namespace topocon::service
