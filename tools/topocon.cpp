// topocon -- operator CLI over the scenario catalog and the api facade
// (Session/Query).
//
//   topocon list
//   topocon describe SCENARIO
//   topocon run SCENARIO [--threads=N] [--chunk=N] [--json=PATH]
//                        [--format=table|csv]
//                        [--n=N] [--param-min=V] [--param-max=V]
//                        [--seed=N] [--count=N]
//                        [--metrics] [--trace=PATH] [--telemetry-json]
//   topocon resume PATH [--threads=N] [--chunk=N] [--format=table|csv]
//                       [--metrics] [--trace=PATH]
//   topocon fuzz [--seed=N] [--count=N] [--n=N] [--depth=N] [--threads=N]
//                [--trace=PATH]
//
// `run` expands the scenario into an api::Plan (a named list of pure-data
// api::Query values) and executes it on one api::Session. With
// `--json=PATH` an Observer checkpoints incrementally: PATH holds a
// line-oriented checkpoint (header + one record line per completed job,
// flushed as jobs finish) until the sweep completes, at which point it is
// atomically replaced by the finalized topocon-sweep-v1 document. The
// checkpoint header carries the serialized queries themselves, so a run
// killed at any point can be finished with `topocon resume PATH` even if
// the catalog changed meanwhile: completed jobs are loaded, the missing
// ones re-run from the checkpointed query descriptions, and the final
// document is byte-identical to an uninterrupted run at any thread count
// (the engine's determinism contract).
//
// `--format=csv` renders the records as one CSV table on stdout (for
// plotting the E4/E6/E7 convergence curves); status messages then go to
// stderr so stdout is a clean artifact.
//
// `run`/`resume` additionally draw a single-line progress bar on stderr,
// fed by the Observer's per-chunk events -- but only when stderr is a
// terminal, so piped or redirected invocations (including `--json` runs
// under CI) stay byte-clean.
//
// `fuzz` is the composed-adversary differential harness: it expands the
// seeded fuzzer (scenario/fuzz.hpp) into `--count` composed points and
// runs every point through the oracle checker (check_solvability_oracle,
// the single-scan reference expansion) and through check_solvability on
// one lane (the calling thread) and on the `--threads` pool at chunk
// sizes 1 and default -- then demands bit-identical verdicts, certified depths, and per-depth
// statistics (including interned-view counts) from all of them. Any
// divergence prints the seed, the point index, and its replayable spec
// label to stderr and exits 1. The stdout table carries no timings, so a
// fixed seed is byte-reproducible across runs and thread counts.
//
// Observability (see telemetry/metrics.hpp for the determinism
// contract): `--metrics` prints a per-job counter table on stderr after
// run/resume, `--trace=PATH` writes a Chrome-trace span file
// (chrome://tracing, Perfetto) of jobs, depths, levels, and chunks, and
// `--telemetry-json` (run only, with --json) embeds each record's
// counters as a "telemetry" section of the document -- recorded in the
// checkpoint meta, so a resumed run stays byte-identical to an
// uninterrupted one. None of the three changes stdout or the artifact
// bytes other than that opt-in section.
//
// Exit codes: 0 success, 1 I/O failure or fuzz divergence, 2 usage
// error, 3 simulated crash (--fail-after, testing only).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "adversary/family.hpp"
#include "analysis/report.hpp"
#include "api/api.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/checkpoint.hpp"
#include "runtime/sweep/cli.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/render.hpp"
#include "scenario/scenario.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace {

using namespace topocon;

int usage(std::ostream& out, int code) {
  out << "usage: topocon COMMAND [ARGS]\n"
         "\n"
         "  list                      catalog of named scenarios\n"
         "  describe SCENARIO         grid and documentation of one "
         "scenario\n"
         "  run SCENARIO [FLAGS]      expand the grid and run it\n"
         "  resume PATH [FLAGS]       finish an interrupted `run --json` "
         "sweep\n"
         "  fuzz [FLAGS]              differential-test seeded composed "
         "adversaries\n"
         "  serve [FLAGS]             long-running sweep daemon on a Unix "
         "socket\n"
         "  client [FLAGS] ACTION     drive a running daemon "
         "(submit/stats/shutdown)\n"
         "  version | --version       protocol and artifact schema "
         "versions\n"
         "\n"
         "run/resume flags:\n"
         "  --threads=N               engine threads (default: hardware "
         "concurrency;\n"
         "                            results are identical for every N)\n"
         "  --chunk=N                 frontier states per expansion chunk "
         "(default\n"
         "                            4096; like --threads an execution "
         "detail --\n"
         "                            results are identical for every N)\n"
         "  --json=PATH               checkpoint to PATH while running, "
         "then finalize\n"
         "                            it as a topocon-sweep-v1 document\n"
         "  --format=table|csv        report style (default: table); csv "
         "prints one\n"
         "                            row per depth for plotting, with "
         "status\n"
         "                            messages moved to stderr\n"
         "  --n=N                     override the scenario's process "
         "count\n"
         "  --param-min=V             lower end of the parameter grid\n"
         "  --param-max=V             upper end of the parameter grid\n"
         "  --seed=N                  (run only) override the scenario's "
         "seed, full\n"
         "                            uint64 range (fuzz-composed; "
         "--param-min stays\n"
         "                            usable as a legacy alias)\n"
         "  --count=N                 (run only) override the scenario's "
         "point count\n"
         "                            (fuzz-composed; --param-max stays "
         "usable as a\n"
         "                            legacy alias)\n"
         "  --metrics                 print a per-job telemetry counter "
         "table on\n"
         "                            stderr after the run (stdout stays "
         "clean)\n"
         "  --trace=PATH              write a Chrome-trace span file of "
         "the run\n"
         "                            (open in chrome://tracing or "
         "Perfetto)\n"
         "  --telemetry-json          (run only, with --json) embed each "
         "record's\n"
         "                            deterministic counters as a "
         "\"telemetry\"\n"
         "                            section of the document\n"
         "  --fail-after=K            (testing) crash-exit 3 after K "
         "checkpoint appends\n"
         "\n"
         "fuzz flags:\n"
         "  --seed=N                  fuzzer seed (default 6); a fixed "
         "seed is\n"
         "                            byte-reproducible across runs and "
         "thread counts\n"
         "  --count=N                 composed points to draw and check "
         "(default 8)\n"
         "  --n=N                     process count of every point "
         "(default 2)\n"
         "  --depth=N                 max combinator nesting of a spec "
         "(default 2)\n"
         "  --threads=N               pool size for the parallel checker "
         "legs\n"
         "  --trace=PATH              write a Chrome-trace span file of "
         "every\n"
         "                            checker leg\n"
         "\n"
         "serve flags:\n"
         "  --socket=PATH             Unix-domain socket to listen on "
         "(required;\n"
         "                            a stale file at PATH is replaced)\n"
         "  --threads=N               session pool size (default: hardware "
         "concurrency)\n"
         "  --queue-limit=N           queued submissions beyond the one "
         "running sweep\n"
         "                            before `overloaded` (default 16)\n"
         "  --cache-entries=N         verdict cache artifact count limit "
         "(default 64)\n"
         "  --cache-mb=N              verdict cache byte limit in MiB "
         "(default 64)\n"
         "  --ring=N                  event-ring capacity per subscriber "
         "(default 1024)\n"
         "  --quiet                   no status lines on stderr\n"
         "\n"
         "client actions (all need --socket=PATH):\n"
         "  submit SCENARIO [--n= --param-min= --param-max= --seed= "
         "--count=]\n"
         "         [--out=PATH] [--subscribe]\n"
         "                            submit a scenario, wait for the "
         "artifact, and\n"
         "                            write it to --out (default stdout); "
         "--subscribe\n"
         "                            streams progress events to stderr\n"
         "  stats                     print the daemon's counter frame\n"
         "  shutdown                  ask the daemon to exit cleanly\n";
  return code;
}

enum class Format { kTable, kCsv };

struct RunFlags {
  int threads = 0;
  int chunk = 0;  // 0 = kDefaultChunkStates
  std::string json_path;
  Format format = Format::kTable;
  scenario::GridOverrides overrides;
  bool metrics = false;        // per-job counter table on stderr
  std::string trace_path;      // Chrome-trace span file; empty = off
  bool telemetry_json = false; // "telemetry" sections in the --json doc
  int fail_after = 0;  // 0 = disabled
};

/// Parses the flags shared by run/resume; returns false on an unknown
/// argument (after printing to stderr).
bool parse_flags(int argc, char** argv, int first, RunFlags* flags) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    try {
      if (const auto v = sweep::flag_value(arg, "threads")) {
        flags->threads = sweep::parse_threads_value("threads", *v);
      } else if (const auto v = sweep::flag_value(arg, "chunk")) {
        flags->chunk = sweep::parse_int_value("chunk", *v);
        if (flags->chunk <= 0) {
          std::cerr << "topocon: --chunk must be >= 1\n";
          return false;
        }
      } else if (const auto v = sweep::flag_value(arg, "json")) {
        if (v->empty()) {
          std::cerr << "topocon: --json needs a non-empty path\n";
          return false;
        }
        flags->json_path = *v;
      } else if (const auto v = sweep::flag_value(arg, "format")) {
        if (*v == "table") {
          flags->format = Format::kTable;
        } else if (*v == "csv") {
          flags->format = Format::kCsv;
        } else {
          std::cerr << "topocon: --format expects 'table' or 'csv', got '"
                    << *v << "'\n";
          return false;
        }
      } else if (const auto v = sweep::flag_value(arg, "n")) {
        flags->overrides.n = sweep::parse_int_value("n", *v);
      } else if (const auto v = sweep::flag_value(arg, "param-min")) {
        flags->overrides.param_min = sweep::parse_int_value("param-min", *v);
      } else if (const auto v = sweep::flag_value(arg, "param-max")) {
        flags->overrides.param_max = sweep::parse_int_value("param-max", *v);
      } else if (const auto v = sweep::flag_value(arg, "seed")) {
        flags->overrides.seed = sweep::parse_uint64_value("seed", *v);
      } else if (const auto v = sweep::flag_value(arg, "count")) {
        flags->overrides.count = sweep::parse_int_value("count", *v);
      } else if (arg == "--metrics") {
        flags->metrics = true;
      } else if (const auto v = sweep::flag_value(arg, "trace")) {
        if (v->empty()) {
          std::cerr << "topocon: --trace needs a non-empty path\n";
          return false;
        }
        flags->trace_path = *v;
      } else if (arg == "--telemetry-json") {
        flags->telemetry_json = true;
      } else if (const auto v = sweep::flag_value(arg, "fail-after")) {
        flags->fail_after = sweep::parse_int_value("fail-after", *v);
      } else {
        std::cerr << "topocon: unknown argument '" << arg << "'\n";
        return false;
      }
    } catch (const std::invalid_argument& error) {
      std::cerr << "topocon: " << error.what() << "\n";
      return false;
    }
  }
  return true;
}

/// Status stream: stderr when stdout is a CSV artifact.
std::ostream& info_stream(const RunFlags& flags) {
  return flags.format == Format::kCsv ? std::cerr : std::cout;
}

void render(std::ostream& out, const RunFlags& flags,
            const std::string& sweep_name,
            const std::vector<sweep::JobRecord>& records) {
  if (flags.format == Format::kCsv) {
    scenario::render_records_csv(out, sweep_name, records);
  } else {
    scenario::render_records(out, sweep_name, records);
  }
}

sweep::CheckpointHeader make_header(const std::string& scenario_name,
                                    const scenario::GridOverrides& overrides,
                                    bool telemetry_json,
                                    const std::vector<api::Query>& queries) {
  sweep::CheckpointHeader header;
  header.sweep_name = scenario_name;
  header.num_jobs = queries.size();
  header.meta.emplace_back("scenario", scenario_name);
  if (overrides.n.has_value()) {
    header.meta.emplace_back("n", std::to_string(*overrides.n));
  }
  if (overrides.param_min.has_value()) {
    header.meta.emplace_back("param_min",
                             std::to_string(*overrides.param_min));
  }
  if (overrides.param_max.has_value()) {
    header.meta.emplace_back("param_max",
                             std::to_string(*overrides.param_max));
  }
  if (overrides.seed.has_value()) {
    header.meta.emplace_back("seed", std::to_string(*overrides.seed));
  }
  if (overrides.count.has_value()) {
    header.meta.emplace_back("count", std::to_string(*overrides.count));
  }
  // Rides with the artifact so resume reproduces the same document shape
  // (records with or without "telemetry" sections) without re-passing the
  // flag.
  if (telemetry_json) {
    header.meta.emplace_back("telemetry_json", "1");
  }
  // The full job description rides along, so resume rebuilds the exact
  // job list from the checkpoint instead of re-expanding the catalog.
  for (const api::Query& query : queries) {
    header.queries.push_back(api::query_to_json(query));
  }
  return header;
}

scenario::GridOverrides overrides_from_meta(
    const sweep::CheckpointHeader& header) {
  scenario::GridOverrides overrides;
  for (const auto& [key, value] : header.meta) {
    if (key == "n") {
      overrides.n = sweep::parse_int_value("n", value);
    } else if (key == "param_min") {
      overrides.param_min = sweep::parse_int_value("param-min", value);
    } else if (key == "param_max") {
      overrides.param_max = sweep::parse_int_value("param-max", value);
    } else if (key == "seed") {
      overrides.seed = sweep::parse_uint64_value("seed", value);
    } else if (key == "count") {
      overrides.count = sweep::parse_int_value("count", value);
    }
  }
  return overrides;
}

const std::string* meta_value(const sweep::CheckpointHeader& header,
                              std::string_view key) {
  for (const auto& [k, v] : header.meta) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Writes `payload` to PATH atomically (tmp + rename), so a crash while
/// writing never destroys what PATH held before.
bool atomic_write(const std::string& path,
                  const std::function<void(std::ostream&)>& payload) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      std::cerr << "topocon: cannot write " << tmp_path << "\n";
      return false;
    }
    payload(out);
    if (!out) {
      std::cerr << "topocon: write to " << tmp_path << " failed\n";
      return false;
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::cerr << "topocon: cannot rename " << tmp_path << " to " << path
              << "\n";
    return false;
  }
  return true;
}

/// Replaces the checkpoint at PATH with the finalized document.
bool finalize_json(const std::string& path, const std::string& sweep_name,
                   const std::vector<sweep::JobRecord>& records) {
  return atomic_write(path, [&](std::ostream& out) {
    sweep::JsonWriter writer(out);
    writer.begin_object();
    writer.member("schema", sweep::kSweepSchema);
    writer.key("sweeps");
    writer.begin_array();
    sweep::write_sweep_json(writer, sweep_name, records);
    writer.end_array();
    writer.end_object();
    out << '\n';
  });
}

/// Single-line stderr progress display for run/resume, fed by the
/// Observer's per-chunk events. TTY-only: when stderr is not a terminal
/// (CI, piping, `2>file`) it draws nothing, so redirected output stays
/// byte-clean. Callbacks arrive serialized from the engine, so the bar
/// needs no locking of its own.
class ProgressBar {
 public:
  ProgressBar(std::string name, std::size_t jobs_total)
      : name_(std::move(name)),
        jobs_total_(jobs_total),
        enabled_(isatty(fileno(stderr)) != 0) {}
  ~ProgressBar() { clear(); }

  void job_started(const std::string& label) { draw(label + " starting"); }
  void chunk_done(const std::string& label, const ChunkProgress& progress) {
    // Throughput/ETA of the current level, derived purely from the
    // existing per-chunk events (no engine ABI change): the frontier
    // being expanded has frontier_states states spread uniformly over
    // chunks_total chunks, so chunks_done/chunks_total of it is behind
    // us. Level changes reset the clock.
    if (progress.depth != rate_depth_ || progress.level != rate_level_ ||
        progress.chunks_done <= 1) {
      rate_depth_ = progress.depth;
      rate_level_ = progress.level;
      level_start_ = std::chrono::steady_clock::now();
    }
    std::string rate;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      level_start_)
            .count();
    if (elapsed > 0 && progress.chunks_done > 0 &&
        progress.chunks_done <= progress.chunks_total) {
      const double done_states =
          static_cast<double>(progress.frontier_states) *
          static_cast<double>(progress.chunks_done) /
          static_cast<double>(progress.chunks_total);
      const double eta = elapsed *
                         static_cast<double>(progress.chunks_total -
                                             progress.chunks_done) /
                         static_cast<double>(progress.chunks_done);
      rate = ", " + fmt(done_states / elapsed, 0) + " st/s, ETA " +
             fmt(eta, 1) + "s";
    }
    draw(label + " depth " + std::to_string(progress.depth) + ": level " +
         std::to_string(progress.level) + ", chunk " +
         std::to_string(progress.chunks_done) + "/" +
         std::to_string(progress.chunks_total) + " (" +
         std::to_string(progress.frontier_states) + " states" + rate + ")");
  }
  void depth_done(const std::string& label, const DepthStats& stats) {
    draw(label + " depth " + std::to_string(stats.depth) + " done (" +
         std::to_string(stats.num_leaf_classes) + " classes)");
  }
  void job_done(const std::string& label) {
    ++jobs_done_;
    draw(label + " finished");
  }
  /// Erases the bar (before regular output; also run by the destructor).
  void clear() {
    if (!enabled_ || last_width_ == 0) return;
    std::fprintf(stderr, "\r%*s\r", static_cast<int>(last_width_), "");
    std::fflush(stderr);
    last_width_ = 0;
  }

 private:
  void draw(const std::string& activity) {
    if (!enabled_) return;
    std::string line = "[" + name_ + "] " + std::to_string(jobs_done_) +
                       "/" + std::to_string(jobs_total_) + " jobs | " +
                       activity;
    if (line.size() > kWidth) line.resize(kWidth);
    const std::size_t width = std::max(line.size(), last_width_);
    line.resize(width, ' ');  // overwrite remnants of a longer line
    std::fprintf(stderr, "\r%s", line.c_str());
    std::fflush(stderr);
    last_width_ = width;
  }

  static constexpr std::size_t kWidth = 78;
  std::string name_;
  std::size_t jobs_total_;
  bool enabled_;
  std::size_t jobs_done_ = 0;
  std::size_t last_width_ = 0;
  int rate_depth_ = -1;
  int rate_level_ = -1;
  std::chrono::steady_clock::time_point level_start_{};
};

/// Streams finished jobs into the checkpoint file and feeds the progress
/// bar. `job_index` maps the running plan's job positions to overall job
/// indices (resume runs a suffix of the plan). Crash-exits 3 after
/// `fail_after` appends.
class RunObserver : public api::Observer {
 public:
  RunObserver(sweep::CheckpointWriter* ckpt,
              const std::vector<std::size_t>& job_index, int fail_after,
              const std::vector<api::Query>& queries, ProgressBar* progress,
              bool telemetry_json,
              std::vector<std::optional<telemetry::JobTelemetry>>* telemetry)
      : ckpt_(ckpt),
        job_index_(job_index),
        fail_after_(fail_after),
        queries_(queries),
        progress_(progress),
        telemetry_json_(telemetry_json),
        telemetry_(telemetry) {}

  void on_job_start(std::size_t job, const api::Query& query) override {
    (void)job;
    if (progress_ != nullptr) progress_->job_started(api::label_of(query));
  }

  void on_depth(std::size_t job, const ChunkProgress& chunk) override {
    if (progress_ != nullptr) {
      progress_->chunk_done(api::label_of(queries_[job]), chunk);
    }
  }

  void on_depth(std::size_t job, const DepthStats& stats) override {
    if (progress_ != nullptr) {
      progress_->depth_done(api::label_of(queries_[job]), stats);
    }
  }

  void on_job_telemetry(std::size_t job,
                        const telemetry::JobTelemetry& snapshot) override {
    if (telemetry_ != nullptr) {
      (*telemetry_)[job_index_[job]] = snapshot;
    }
  }

  void on_job_done(std::size_t job,
                   const sweep::JobOutcome& outcome) override {
    if (progress_ != nullptr) {
      progress_->job_done(api::label_of(queries_[job]));
    }
    if (ckpt_ == nullptr) return;
    // Checkpoint lines must match the finalized document shape: a resumed
    // --telemetry-json run reloads these records verbatim, so they carry
    // the "telemetry" section under the same flag.
    ckpt_->append(job_index_[job],
                  sweep::summarize(outcome, telemetry_json_));
    if (fail_after_ > 0 && ++appended_ >= fail_after_) {
      // Simulated kill for the resume tests: no destructors, no final
      // document -- exactly what a crash mid-sweep leaves behind.
      std::_Exit(3);
    }
  }

 private:
  sweep::CheckpointWriter* ckpt_;
  const std::vector<std::size_t>& job_index_;
  int fail_after_;
  const std::vector<api::Query>& queries_;
  ProgressBar* progress_;
  bool telemetry_json_;
  /// Snapshot store indexed by OVERALL job index; null = don't capture.
  std::vector<std::optional<telemetry::JobTelemetry>>* telemetry_;
  int appended_ = 0;
};

/// Shared by run and resume: executes the queries on the session (query j
/// maps to overall job job_index[j]), checkpointing to `ckpt` when given,
/// then merges the fresh records into `records`.
void run_jobs(api::Session& session, const std::string& name,
              const std::vector<api::Query>& queries,
              const std::vector<std::size_t>& job_index,
              sweep::CheckpointWriter* ckpt, int fail_after,
              std::vector<std::optional<sweep::JobRecord>>* records,
              bool telemetry_json = false,
              std::vector<std::optional<telemetry::JobTelemetry>>*
                  telemetry = nullptr) {
  ProgressBar progress(name, queries.size());
  RunObserver observer(ckpt, job_index, fail_after, queries, &progress,
                       telemetry_json, telemetry);
  session.run(name, queries, &observer);
  progress.clear();
  // The session already summarized the run into its history; reuse those
  // records instead of summarizing the outcomes a second time.
  const std::vector<sweep::JobRecord>& fresh = session.history().back().second;
  for (std::size_t j = 0; j < fresh.size(); ++j) {
    (*records)[job_index[j]] = fresh[j];
  }
}

std::vector<sweep::JobRecord> unwrap(
    std::vector<std::optional<sweep::JobRecord>> records) {
  std::vector<sweep::JobRecord> result;
  result.reserve(records.size());
  for (auto& record : records) {
    result.push_back(std::move(*record));
  }
  return result;
}

/// --metrics: the per-job counter table, always on stderr so stdout
/// stays a clean report/CSV artifact. Rows cover only jobs that ran in
/// THIS process -- on resume, jobs restored from the checkpoint have no
/// live counters to report.
void print_metrics_table(
    const std::vector<api::Query>& queries,
    const std::vector<std::optional<telemetry::JobTelemetry>>& telemetry) {
  Table table({"job", "expanded", "committed", "interned", "chunks",
               "levels", "high water", "aborts", "wall s"});
  for (std::size_t column = 1; column <= 8; ++column) {
    table.align_right(column);
  }
  std::size_t rows = 0;
  for (std::size_t j = 0; j < telemetry.size(); ++j) {
    if (!telemetry[j].has_value()) continue;
    const telemetry::TelemetryCounters& c = telemetry[j]->counters;
    table.add_row({api::label_of(queries[j]),
                   std::to_string(c.states_expanded),
                   std::to_string(c.states_committed),
                   std::to_string(c.views_interned),
                   std::to_string(c.chunks_expanded),
                   std::to_string(c.levels_committed),
                   std::to_string(c.frontier_high_water),
                   std::to_string(c.budget_early_aborts),
                   fmt(telemetry[j]->wall_seconds, 3)});
    ++rows;
  }
  std::cerr << "\nTelemetry (" << rows << " job" << (rows == 1 ? "" : "s")
            << " ran in this process):\n";
  table.print(std::cerr);
}

/// Opens the --trace span file; null writer (and no error) when the flag
/// is unset. The TraceWriter must be destroyed before trace_out closes
/// (it writes the closing bracket from its destructor), so the caller
/// keeps both alive for the whole run, stream first.
bool open_trace(const std::string& path, std::ofstream* trace_out,
                std::optional<telemetry::TraceWriter>* writer) {
  if (path.empty()) return true;
  trace_out->open(path, std::ios::trunc);
  if (!*trace_out) {
    std::cerr << "topocon: cannot write " << path << "\n";
    return false;
  }
  writer->emplace(*trace_out);
  return true;
}

int cmd_list() {
  Table table({"scenario", "jobs", "overrides", "summary"});
  table.align_right(1);
  for (const scenario::Scenario& s : scenario::catalog()) {
    const api::Plan plan = scenario::expand_scenario(s, {});
    std::string overrides;
    if (s.supports_n) overrides += "--n ";
    if (s.supports_param_range) overrides += "--param-min/max";
    if (s.supports_seed) overrides += " --seed/--count";
    table.add_row({s.name, std::to_string(plan.queries.size()),
                   overrides.empty() ? "-" : overrides, s.summary});
  }
  table.print(std::cout);
  return 0;
}

int cmd_describe(const std::string& name) {
  const scenario::Scenario* s = scenario::find_scenario(name);
  if (s == nullptr) {
    std::cerr << "topocon: unknown scenario '" << name
              << "' (see `topocon list`)\n";
    return 2;
  }
  std::cout << s->name << " -- " << s->summary << "\n\n"
            << s->description << "\n\n";
  const api::Plan plan = scenario::expand_scenario(*s, {});
  std::cout << "Default grid (" << plan.queries.size() << " jobs):\n";
  Table table({"#", "family", "label", "n", "kind", "depth"});
  table.align_right(0);
  table.align_right(3);
  table.align_right(5);
  for (std::size_t j = 0; j < plan.queries.size(); ++j) {
    const api::Query& query = plan.queries[j];
    table.add_row({std::to_string(j), api::point_of(query).family,
                   api::label_of(query),
                   std::to_string(api::point_of(query).n),
                   to_string(api::kind_of(query)),
                   std::to_string(api::depth_of(query))});
  }
  table.print(std::cout);
  return 0;
}

int cmd_run(const std::string& name, const RunFlags& flags) {
  const scenario::Scenario* s = scenario::find_scenario(name);
  if (s == nullptr) {
    std::cerr << "topocon: unknown scenario '" << name
              << "' (see `topocon list`)\n";
    return 2;
  }
  api::Plan plan;
  try {
    plan = scenario::expand_scenario(*s, flags.overrides);
  } catch (const std::invalid_argument& error) {
    std::cerr << "topocon: " << error.what() << "\n";
    return 2;
  }

  if (flags.fail_after > 0 && flags.json_path.empty()) {
    std::cerr << "topocon: --fail-after only makes sense with --json\n";
    return 2;
  }
  if (flags.telemetry_json && flags.json_path.empty()) {
    std::cerr << "topocon: --telemetry-json only makes sense with --json\n";
    return 2;
  }

  std::ofstream trace_out;
  std::optional<telemetry::TraceWriter> trace;
  if (!open_trace(flags.trace_path, &trace_out, &trace)) return 1;
  api::Session session(
      {.num_threads = flags.threads,
       .chunk_states = static_cast<std::size_t>(flags.chunk),
       .record_global = false,
       .collect_telemetry = flags.metrics,
       .telemetry_in_records = flags.telemetry_json,
       .trace = trace.has_value() ? &*trace : nullptr});
  std::vector<std::size_t> job_index(plan.queries.size());
  for (std::size_t j = 0; j < job_index.size(); ++j) job_index[j] = j;
  std::vector<std::optional<sweep::JobRecord>> records(plan.queries.size());
  std::vector<std::optional<telemetry::JobTelemetry>> telemetry(
      plan.queries.size());
  auto* snapshots = flags.metrics ? &telemetry : nullptr;

  int code = 0;
  if (!flags.json_path.empty()) {
    std::ofstream ckpt_out(flags.json_path, std::ios::trunc);
    if (!ckpt_out) {
      std::cerr << "topocon: cannot write " << flags.json_path << "\n";
      return 1;
    }
    sweep::CheckpointWriter ckpt(ckpt_out);
    ckpt.write_header(make_header(s->name, flags.overrides,
                                  flags.telemetry_json, plan.queries));
    run_jobs(session, plan.name, plan.queries, job_index, &ckpt,
             flags.fail_after, &records, flags.telemetry_json, snapshots);
    ckpt_out.close();
    const std::vector<sweep::JobRecord> final_records =
        unwrap(std::move(records));
    if (!finalize_json(flags.json_path, s->name, final_records)) {
      code = 1;
    } else {
      info_stream(flags) << "Wrote " << flags.json_path << "\n\n";
      render(std::cout, flags, s->name, final_records);
    }
  } else {
    run_jobs(session, plan.name, plan.queries, job_index, nullptr, 0,
             &records, false, snapshots);
    render(std::cout, flags, s->name, unwrap(std::move(records)));
  }
  if (flags.metrics) print_metrics_table(plan.queries, telemetry);
  if (trace.has_value()) {
    trace.reset();  // writes the closing bracket
    std::cerr << "topocon: wrote trace " << flags.trace_path << "\n";
  }
  return code;
}

int cmd_resume(const std::string& path, const RunFlags& flags) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "topocon: cannot read " << path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  if (!sweep::looks_like_checkpoint(text)) {
    // Either already finalized, or not ours at all.
    try {
      const sweep::SweepDocument doc =
          sweep::read_sweep_document(std::string_view(text));
      info_stream(flags) << path
                         << " is already finalized; nothing to resume.\n\n";
      for (const auto& [sweep_name, records] : doc.sweeps) {
        render(std::cout, flags, sweep_name, records);
      }
      return 0;
    } catch (const std::runtime_error& error) {
      std::cerr << "topocon: " << path
                << " is neither a checkpoint nor a sweep document: "
                << error.what() << "\n";
      return 1;
    }
  }

  sweep::CheckpointState state;
  try {
    state = sweep::read_checkpoint(std::string_view(text));
  } catch (const std::runtime_error& error) {
    std::cerr << "topocon: corrupt checkpoint " << path << ": "
              << error.what() << "\n";
    return 1;
  }

  // The job list: from the checkpointed query descriptions when present
  // (the full job description travels with the artifact); for older
  // checkpoints, by re-expanding the named scenario.
  const std::string sweep_name = state.header.sweep_name;
  std::vector<api::Query> queries;
  if (!state.header.queries.empty()) {
    try {
      for (const sweep::JsonValue& value : state.header.queries) {
        queries.push_back(api::query_from_json(value));
      }
    } catch (const std::runtime_error& error) {
      std::cerr << "topocon: corrupt checkpoint " << path << ": "
                << error.what() << "\n";
      return 1;
    }
  } else {
    const std::string* scenario_name = meta_value(state.header, "scenario");
    const scenario::Scenario* s =
        scenario_name != nullptr ? scenario::find_scenario(*scenario_name)
                                 : nullptr;
    if (s == nullptr) {
      std::cerr << "topocon: checkpoint " << path
                << " carries no queries and names no known scenario\n";
      return 1;
    }
    try {
      queries =
          scenario::expand_scenario(*s, overrides_from_meta(state.header))
              .queries;
    } catch (const std::invalid_argument& error) {
      std::cerr << "topocon: " << error.what() << "\n";
      return 1;
    }
    if (queries.size() != state.header.num_jobs) {
      std::cerr << "topocon: checkpoint job count " << state.header.num_jobs
                << " does not match the scenario grid (" << queries.size()
                << " jobs)\n";
      return 1;
    }
  }

  std::vector<std::optional<sweep::JobRecord>> records(queries.size());
  for (auto& [job, record] : state.completed) {
    // Guard against a stale checkpoint from a different producer version:
    // matching job count alone would silently merge records with
    // different semantics and break the byte-identity guarantee.
    const api::Query& expected = queries[job];
    const FamilyPoint& point = api::point_of(expected);
    if (record.family != point.family ||
        record.label != api::label_of(expected) || record.n != point.n) {
      std::cerr << "topocon: checkpoint job " << job << " is "
                << record.family << " " << record.label
                << " but the job list expects " << point.family << " "
                << api::label_of(expected)
                << "; was the checkpoint written by another version?\n";
      return 1;
    }
    records[job] = std::move(record);
  }
  std::vector<api::Query> pending;
  std::vector<std::size_t> job_index;
  for (std::size_t j = 0; j < queries.size(); ++j) {
    if (!records[j].has_value()) {
      job_index.push_back(j);
      pending.push_back(queries[j]);
    }
  }
  info_stream(flags) << "Resuming " << sweep_name << ": "
                     << state.completed.size() << " of " << queries.size()
                     << " jobs checkpointed, " << pending.size() << " to run"
                     << (state.partial_tail
                             ? " (dropped a torn trailing line)"
                             : "")
                     << "\n";

  // Rewrite the checkpoint from the recovered state instead of appending
  // after whatever the kill left behind: a torn trailing line would
  // otherwise concatenate with the first new record and poison the file
  // for any further resume. Record lines serialize deterministically, so
  // the rewrite reproduces the surviving lines byte for byte; atomic_write
  // ensures a crash here cannot lose the progress the checkpoint exists
  // to protect.
  const bool rewritten = atomic_write(path, [&](std::ostream& out) {
    sweep::CheckpointWriter rewrite(out);
    rewrite.write_header(state.header);
    for (std::size_t j = 0; j < records.size(); ++j) {
      if (records[j].has_value()) rewrite.append(j, *records[j]);
    }
  });
  if (!rewritten) return 1;
  std::ofstream ckpt_out(path, std::ios::app);
  if (!ckpt_out) {
    std::cerr << "topocon: cannot append to " << path << "\n";
    return 1;
  }
  sweep::CheckpointWriter ckpt(ckpt_out);
  // The document shape travels with the checkpoint (make_header), not the
  // command line: a --telemetry-json run resumes with telemetry sections
  // automatically, and stays byte-identical to an uninterrupted run.
  const std::string* telemetry_meta = meta_value(state.header,
                                                 "telemetry_json");
  const bool telemetry_json =
      telemetry_meta != nullptr && *telemetry_meta == "1";
  std::ofstream trace_out;
  std::optional<telemetry::TraceWriter> trace;
  if (!open_trace(flags.trace_path, &trace_out, &trace)) return 1;
  api::Session session(
      {.num_threads = flags.threads,
       .chunk_states = static_cast<std::size_t>(flags.chunk),
       .record_global = false,
       .collect_telemetry = flags.metrics,
       .telemetry_in_records = telemetry_json,
       .trace = trace.has_value() ? &*trace : nullptr});
  std::vector<std::optional<telemetry::JobTelemetry>> telemetry(
      queries.size());
  run_jobs(session, sweep_name, pending, job_index, &ckpt, flags.fail_after,
           &records, telemetry_json,
           flags.metrics ? &telemetry : nullptr);
  ckpt_out.close();
  const std::vector<sweep::JobRecord> final_records =
      unwrap(std::move(records));
  if (!finalize_json(path, sweep_name, final_records)) return 1;
  info_stream(flags) << "Wrote " << path << "\n\n";
  render(std::cout, flags, sweep_name, final_records);
  if (flags.metrics) print_metrics_table(queries, telemetry);
  if (trace.has_value()) {
    trace.reset();
    std::cerr << "topocon: wrote trace " << flags.trace_path << "\n";
  }
  return 0;
}

struct FuzzFlags {
  scenario::FuzzSpec spec;
  int threads = 0;
  std::string trace_path;
};

bool parse_fuzz_flags(int argc, char** argv, FuzzFlags* flags) {
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    try {
      if (const auto v = sweep::flag_value(arg, "seed")) {
        flags->spec.seed = sweep::parse_uint64_value("seed", *v);
      } else if (const auto v = sweep::flag_value(arg, "count")) {
        flags->spec.count = sweep::parse_int_value("count", *v);
      } else if (const auto v = sweep::flag_value(arg, "n")) {
        flags->spec.n = sweep::parse_int_value("n", *v);
      } else if (const auto v = sweep::flag_value(arg, "depth")) {
        flags->spec.depth = sweep::parse_int_value("depth", *v);
      } else if (const auto v = sweep::flag_value(arg, "threads")) {
        flags->threads = sweep::parse_threads_value("threads", *v);
      } else if (const auto v = sweep::flag_value(arg, "trace")) {
        if (v->empty()) {
          std::cerr << "topocon: --trace needs a non-empty path\n";
          return false;
        }
        flags->trace_path = *v;
      } else {
        std::cerr << "topocon: unknown argument '" << arg << "'\n";
        return false;
      }
    } catch (const std::invalid_argument& error) {
      std::cerr << "topocon: " << error.what() << "\n";
      return false;
    }
  }
  return true;
}

/// First observable difference between two checker results, or "" when
/// they agree on every field the determinism contract covers.
std::string describe_divergence(const SolvabilityResult& oracle,
                                const SolvabilityResult& candidate) {
  if (candidate.verdict != oracle.verdict) {
    return std::string("verdict ") + to_string(candidate.verdict) +
           " (oracle: " + to_string(oracle.verdict) + ")";
  }
  if (candidate.certified_depth != oracle.certified_depth) {
    return "certified depth " + std::to_string(candidate.certified_depth) +
           " (oracle: " + std::to_string(oracle.certified_depth) + ")";
  }
  if (candidate.closure_only != oracle.closure_only) {
    return "closure_only " + std::to_string(candidate.closure_only) +
           " (oracle: " + std::to_string(oracle.closure_only) + ")";
  }
  if (candidate.per_depth.size() != oracle.per_depth.size()) {
    return "analyzed " + std::to_string(candidate.per_depth.size()) +
           " depths (oracle: " + std::to_string(oracle.per_depth.size()) +
           ")";
  }
  for (std::size_t d = 0; d < oracle.per_depth.size(); ++d) {
    if (candidate.per_depth[d] == oracle.per_depth[d]) continue;
    const DepthStats& c = candidate.per_depth[d];
    const DepthStats& o = oracle.per_depth[d];
    return "depth-" + std::to_string(o.depth) + " stats: " +
           std::to_string(c.num_leaf_classes) + " classes/" +
           std::to_string(c.num_components) + " components/" +
           std::to_string(c.interner_views) + " views (oracle: " +
           std::to_string(o.num_leaf_classes) + "/" +
           std::to_string(o.num_components) + "/" +
           std::to_string(o.interner_views) + ")";
  }
  return "";
}

/// `topocon fuzz`: the composed-adversary differential harness (see the
/// file comment). Exit 0 = every point agrees, 1 = divergence or a point
/// failed to build, 2 = usage error.
int cmd_fuzz(const FuzzFlags& flags) {
  std::vector<FamilyPoint> points;
  try {
    points = scenario::fuzz_points(flags.spec);
  } catch (const std::invalid_argument& error) {
    std::cerr << "topocon: " << error.what() << "\n";
    return 2;
  }
  const SolvabilityOptions options =
      scenario::fuzz_solve_options(flags.spec.n);
  sweep::ThreadPool pool(flags.threads);
  std::ofstream trace_out;
  std::optional<telemetry::TraceWriter> trace;
  if (!open_trace(flags.trace_path, &trace_out, &trace)) return 1;
  const std::string replay =
      "topocon fuzz --seed=" + std::to_string(flags.spec.seed) +
      " --count=" + std::to_string(flags.spec.count) +
      " --n=" + std::to_string(flags.spec.n) +
      " --depth=" + std::to_string(flags.spec.depth);

  Table table({"#", "label", "verdict", "cert depth", "depths", "views"});
  table.align_right(0);
  table.align_right(3);
  table.align_right(4);
  table.align_right(5);
  int divergences = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const FamilyPoint& point = points[i];
    const std::string label = family_point_label(point);
    SolvabilityResult oracle;
    try {
      const auto adversary = make_family_adversary(point);
      // One registry per point when tracing, so every checker leg's
      // depth/level/chunk spans land in the trace under a named leg span.
      std::optional<telemetry::MetricsRegistry> registry;
      SolvabilityOptions leg_options = options;
      if (trace.has_value()) {
        registry.emplace(&*trace);
        leg_options.metrics = &*registry;
      }
      const auto timed = [&](const char* leg, auto&& run_leg) {
        const std::uint64_t start =
            trace.has_value() ? trace->now_us() : 0;
        SolvabilityResult result = run_leg();
        if (trace.has_value()) {
          trace->complete(label + " " + leg, "fuzz", start,
                          trace->now_us() - start,
                          {telemetry::TraceArg::num(
                               "point", static_cast<std::uint64_t>(i)),
                           telemetry::TraceArg::str("leg", leg)});
        }
        return result;
      };
      oracle = timed("oracle", [&] {
        return check_solvability_oracle(*adversary, leg_options);
      });
      ShardingOptions finest;
      finest.chunk_states = 1;
      const struct {
        const char* name;
        SolvabilityResult result;
      } candidates[] = {
          {"1 lane", timed("1-lane", [&] {
             return check_solvability(*adversary, leg_options);
           })},
          {"parallel (chunk=1)", timed("parallel-chunk1", [&] {
             return check_solvability(*adversary, leg_options,
                                      pool.as_parallel_for(), {}, finest);
           })},
          {"parallel (chunk=default)", timed("parallel-default", [&] {
             return check_solvability(*adversary, leg_options,
                                      pool.as_parallel_for());
           })},
      };
      for (const auto& candidate : candidates) {
        const std::string diff =
            describe_divergence(oracle, candidate.result);
        if (diff.empty()) continue;
        ++divergences;
        std::cerr << "topocon fuzz: DIVERGENCE at point " << i << ": "
                  << candidate.name << " reports " << diff << "\n"
                  << "  spec:   " << label << "\n"
                  << "  replay: " << replay << "\n";
      }
    } catch (const std::exception& error) {
      ++divergences;
      std::cerr << "topocon fuzz: point " << i
                << " failed to run: " << error.what() << "\n"
                << "  spec:   " << label << "\n"
                << "  replay: " << replay << "\n";
      continue;
    }
    table.add_row({std::to_string(i), label, to_string(oracle.verdict),
                   oracle.certified_depth >= 0
                       ? std::to_string(oracle.certified_depth)
                       : "-",
                   std::to_string(oracle.per_depth.size()),
                   oracle.per_depth.empty()
                       ? "-"
                       : std::to_string(
                             oracle.per_depth.back().interner_views)});
  }

  std::cout << "Differential fuzz: seed " << flags.spec.seed << ", "
            << points.size() << " composed points (n = " << flags.spec.n
            << ", spec depth <= " << flags.spec.depth << ")\n";
  table.print(std::cout);
  if (divergences > 0) {
    std::cout << "FAIL: " << divergences
              << " divergence(s) between the oracle and the engines\n";
    return 1;
  }
  if (trace.has_value()) {
    trace.reset();
    std::cerr << "topocon: wrote trace " << flags.trace_path << "\n";
  }
  std::cout << "OK: oracle, 1-lane, and parallel checkers agree on every "
               "point\n";
  return 0;
}

/// The serve daemon being signalled, for SIGINT/SIGTERM-driven clean
/// shutdown (request_stop is one pipe write, so it is signal-safe).
std::atomic<service::Server*> g_serve_instance{nullptr};

void serve_signal_handler(int) {
  if (service::Server* server = g_serve_instance.load()) {
    server->request_stop();
  }
}

int cmd_serve(int argc, char** argv) {
  service::ServeOptions options;
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    try {
      if (const auto v = sweep::flag_value(arg, "socket")) {
        options.socket_path = *v;
      } else if (const auto v = sweep::flag_value(arg, "threads")) {
        options.num_threads = sweep::parse_threads_value("threads", *v);
      } else if (const auto v = sweep::flag_value(arg, "queue-limit")) {
        const int limit = sweep::parse_int_value("queue-limit", *v);
        if (limit < 0) {
          std::cerr << "topocon: --queue-limit must be >= 0\n";
          return 2;
        }
        options.queue_limit = static_cast<std::size_t>(limit);
      } else if (const auto v = sweep::flag_value(arg, "cache-entries")) {
        const int entries = sweep::parse_int_value("cache-entries", *v);
        if (entries < 0) {
          std::cerr << "topocon: --cache-entries must be >= 0\n";
          return 2;
        }
        options.cache_entries = static_cast<std::size_t>(entries);
      } else if (const auto v = sweep::flag_value(arg, "cache-mb")) {
        const int mb = sweep::parse_int_value("cache-mb", *v);
        if (mb < 0) {
          std::cerr << "topocon: --cache-mb must be >= 0\n";
          return 2;
        }
        options.cache_bytes = static_cast<std::size_t>(mb) << 20;
      } else if (const auto v = sweep::flag_value(arg, "ring")) {
        const int ring = sweep::parse_int_value("ring", *v);
        if (ring < 2) {
          std::cerr << "topocon: --ring must be >= 2\n";
          return 2;
        }
        options.ring_capacity = static_cast<std::size_t>(ring);
      } else if (arg == "--quiet") {
        quiet = true;
      } else {
        std::cerr << "topocon: unknown serve argument '" << arg << "'\n";
        return 2;
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << "topocon: " << e.what() << "\n";
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    std::cerr << "topocon: serve needs --socket=PATH\n";
    return 2;
  }
  options.log = quiet ? nullptr : &std::cerr;
  if (!quiet) std::cerr << service::version_line() << "\n";
  service::Server server(std::move(options));
  g_serve_instance.store(&server);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  const int code = server.run();
  g_serve_instance.store(nullptr);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  return code;
}

int cmd_client(int argc, char** argv) {
  std::string socket_path;
  std::string out_path;
  bool subscribe = false;
  scenario::GridOverrides overrides;
  std::vector<std::string_view> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    try {
      if (const auto v = sweep::flag_value(arg, "socket")) {
        socket_path = *v;
      } else if (const auto v = sweep::flag_value(arg, "out")) {
        out_path = *v;
      } else if (arg == "--subscribe") {
        subscribe = true;
      } else if (const auto v = sweep::flag_value(arg, "n")) {
        overrides.n = sweep::parse_int_value("n", *v);
      } else if (const auto v = sweep::flag_value(arg, "param-min")) {
        overrides.param_min = sweep::parse_int_value("param-min", *v);
      } else if (const auto v = sweep::flag_value(arg, "param-max")) {
        overrides.param_max = sweep::parse_int_value("param-max", *v);
      } else if (const auto v = sweep::flag_value(arg, "seed")) {
        overrides.seed = sweep::parse_uint64_value("seed", *v);
      } else if (const auto v = sweep::flag_value(arg, "count")) {
        overrides.count = sweep::parse_int_value("count", *v);
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "topocon: unknown client argument '" << arg << "'\n";
        return 2;
      } else {
        positional.push_back(arg);
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << "topocon: " << e.what() << "\n";
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::cerr << "topocon: client needs --socket=PATH\n";
    return 2;
  }
  if (positional.empty()) {
    std::cerr << "topocon: client needs an action "
                 "(submit/stats/shutdown)\n";
    return 2;
  }
  const std::string_view action = positional[0];
  try {
    service::ServeClient client(socket_path);
    std::cerr << client.hello() << "\n";
    if (action == "stats") {
      if (positional.size() != 1) return usage(std::cerr, 2);
      client.send_line("{\"op\":\"stats\"}");
      std::cout << client.read_line() << "\n";
      return 0;
    }
    if (action == "shutdown") {
      if (positional.size() != 1) return usage(std::cerr, 2);
      client.send_line("{\"op\":\"shutdown\"}");
      const std::string reply = client.read_line();
      std::cout << reply << "\n";
      return sweep::JsonReader::parse(reply).at("op").as_string() == "bye"
                 ? 0
                 : 1;
    }
    if (action != "submit" || positional.size() != 2) {
      std::cerr << "topocon: client action must be `submit SCENARIO`, "
                   "`stats`, or `shutdown`\n";
      return 2;
    }
    std::ostringstream request;
    sweep::JsonWriter writer(request, sweep::JsonStyle::kCompact);
    writer.begin_object();
    writer.member("op", "submit");
    writer.member("scenario", positional[1]);
    if (overrides.n.has_value()) writer.member("n", *overrides.n);
    if (overrides.param_min.has_value()) {
      writer.member("param_min", *overrides.param_min);
    }
    if (overrides.param_max.has_value()) {
      writer.member("param_max", *overrides.param_max);
    }
    if (overrides.seed.has_value()) writer.member("seed", *overrides.seed);
    if (overrides.count.has_value()) writer.member("count", *overrides.count);
    writer.end_object();
    if (subscribe) {
      client.send_line("{\"op\":\"subscribe\"}");
      std::cerr << client.read_line() << "\n";
    }
    client.send_line(request.str());
    for (;;) {
      const std::string line = client.read_line();
      const sweep::JsonValue frame = sweep::JsonReader::parse(line);
      const std::string& op = frame.at("op").as_string();
      if (op == "accepted" || op == "event") {
        std::cerr << line << "\n";
        continue;
      }
      if (op == "result") {
        const std::string artifact = client.read_bytes(
            static_cast<std::size_t>(frame.at("artifact_bytes").as_uint()));
        std::cerr << line << "\n";
        if (out_path.empty()) {
          std::cout << artifact;
        } else if (!atomic_write(out_path,
                                 [&](std::ostream& out) { out << artifact; })) {
          return 1;
        }
        return 0;
      }
      // overloaded, error, or anything unexpected: surface and fail.
      std::cerr << "topocon client: " << line << "\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "topocon client: " << e.what() << "\n";
    return 1;
  }
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string_view command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    return usage(std::cout, 0);
  }
  if (command == "version" || command == "--version") {
    std::cout << service::version_line() << "\n";
    return 0;
  }
  if (command == "serve") return cmd_serve(argc, argv);
  if (command == "client") return cmd_client(argc, argv);
  if (command == "list") {
    if (argc != 2) return usage(std::cerr, 2);
    return cmd_list();
  }
  if (command == "describe") {
    if (argc != 3) return usage(std::cerr, 2);
    return cmd_describe(argv[2]);
  }
  if (command == "fuzz") {
    FuzzFlags flags;
    if (!parse_fuzz_flags(argc, argv, &flags)) return 2;
    return cmd_fuzz(flags);
  }
  if (command == "run" || command == "resume") {
    if (argc < 3 || argv[2][0] == '-') return usage(std::cerr, 2);
    RunFlags flags;
    if (!parse_flags(argc, argv, 3, &flags)) return 2;
    if (command == "run") return cmd_run(argv[2], flags);
    if (!flags.json_path.empty() || flags.telemetry_json ||
        flags.overrides.n.has_value() ||
        flags.overrides.param_min.has_value() ||
        flags.overrides.param_max.has_value() ||
        flags.overrides.seed.has_value() ||
        flags.overrides.count.has_value()) {
      std::cerr << "topocon: resume takes the checkpoint PATH plus "
                   "--threads/--chunk/--format/--metrics/"
                   "--trace/--fail-after only (--telemetry-json travels "
                   "with the checkpoint)\n";
      return 2;
    }
    return cmd_resume(argv[2], flags);
  }
  std::cerr << "topocon: unknown command '" << command << "'\n";
  return usage(std::cerr, 2);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return dispatch(argc, argv);
  } catch (const std::system_error& error) {
    // A system error, say a pool that cannot start its threads under an
    // address-space cap ("cannot start N threads: ..."), is not an abort.
    std::cerr << "topocon: " << error.what() << "\n";
    return 1;
  }
}
