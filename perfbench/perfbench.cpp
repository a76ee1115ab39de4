// perfbench: runs one measured leg of a benchmark workload and
// prints its measurements as one JSON line on stdout. perfbench/run.py
// spawns one process per leg, so each leg's peak RSS belongs to it alone.
//
//   perfbench info
//   perfbench leg WORKLOAD t1|tN THREADS ARTIFACT_OUT
//   perfbench setup WORKLOAD PROBES
//   perfbench layers WORKLOAD THREADS TRACE_OUT
//   perfbench serve TOPOCON THREADS SEED [--corrupt-expected]
//
// The workloads (omission-n3, omission-n4, deep-n2) run through
// api::Session; `leg t1` runs the whole plan in one Session::run at one
// thread, `leg tN` runs the plan's queries one at a time on one Session.
// `setup` spawns PROBES copies of this program (`perfbench probe WORKLOAD`)
// that each run the plan as `leg t1` does and end at their first
// Observer::on_job_start, and reports spawn-to-start per probe.
// `layers` is the traced run: it times the calls into each src/ layer's
// public functions from here (no span inside src/), records the spans
// with telemetry::TraceWriter into memory, and writes them out at the
// end. `serve` drives a `topocon serve` daemon with a seeded Zipf stream
// of fuzz-composed submits in a closed loop, for the service layer.
//
// Times are steady-clock seconds.
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/oracles.hpp"
#include "api/api.hpp"
#include "core/decision_table.hpp"
#include "core/frontier.hpp"
#include "ptg/prefix.hpp"
#include "runtime/sweep/checkpoint.hpp"
#include "runtime/sweep/parallel_solver.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "scenario/render.hpp"
#include "scenario/scenario.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "telemetry/trace.hpp"

extern char** environ;

namespace {

using namespace topocon;
using Clock = std::chrono::steady_clock;

std::uint64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double self_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

long self_peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// A "VmRSS:"/"VmHWM:" field of /proc/<pid>/status in KiB (pid 0 = self).
long proc_status_kib(pid_t pid, const std::string& field) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

/// One flat JSON object, built member by member.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return raw(key, buffer);
  }
  JsonLine& integer(const std::string& key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonLine& nums(const std::string& key, const std::vector<double>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%s%.17g", i == 0 ? "" : ",",
                    values[i]);
      list += buffer;
    }
    return raw(key, list + "]");
  }
  std::string line() const { return "{" + body_ + "}"; }

 private:
  JsonLine& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

void emit(const JsonLine& line) {
  std::cout << line.line() << std::endl;
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return static_cast<bool>(out);
}

// ---- Workloads --------------------------------------------------------------

/// deep-n2: low-branching n=2 families at large depth, where iterative
/// deepening re-expands earlier levels and commit outweighs expand.
api::Plan deep_n2_plan() {
  api::Plan plan{"deep-n2", {}};
  SolvabilityOptions lossy;
  lossy.max_depth = 11;
  for (int mask = 1; mask <= 7; ++mask) {
    plan.queries.push_back(api::solvability({"lossy_link", 2, mask}, lossy));
  }
  SolvabilityOptions heard_of;
  heard_of.max_depth = 8;
  for (int k = 1; k <= 2; ++k) {
    plan.queries.push_back(api::solvability({"heard_of", 2, k}, heard_of));
  }
  return plan;
}

api::Plan batch_plan(const std::string& workload) {
  if (workload == "deep-n2") return deep_n2_plan();
  if (workload == "omission-n3" || workload == "omission-n4") {
    return scenario::expand_scenario(*scenario::find_scenario(workload), {});
  }
  throw std::invalid_argument("unknown batch workload " + workload);
}

/// The literature's verdict for a deep-n2 point: lossy link n=2 from
/// analysis/oracles.hpp; heard_of is solvable iff every receiver hears
/// everyone (k = n), the family's defining threshold.
std::string oracle_verdict(const FamilyPoint& point) {
  bool solvable = false;
  if (point.family == "lossy_link") {
    solvable = lossy_link_solvable(static_cast<unsigned>(point.param));
  } else if (point.family == "heard_of") {
    solvable = point.param == point.n;
  } else {
    throw std::invalid_argument("no oracle for family " + point.family);
  }
  return to_string(solvable ? SolvabilityVerdict::kSolvable
                            : SolvabilityVerdict::kNotSeparated);
}

/// The service probe's submit sequence: a pure function of the seed. Keys are
/// fuzz-composed seeds 1..kZipfKeys; rank r (0-based) is drawn with
/// probability proportional to (r+1)^-kZipfExponent. The draws are
/// stratified (one uniform per 1/count slice, then shuffled), so every seed
/// submits nearly the same multiset of keys in a different order: the set
/// of misses, and with it the work, stays steady from seed to seed.
constexpr int kZipfKeys = 1024;
constexpr double kZipfExponent = 1.2;
constexpr int kFuzzN = 3;
constexpr int kFuzzCount = 4;
constexpr std::size_t kServeSubmits = 1500;

std::vector<std::uint64_t> zipf_sequence(std::uint64_t seed,
                                         std::size_t count) {
  std::vector<double> cdf(kZipfKeys);
  double total = 0;
  for (int r = 0; r < kZipfKeys; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[static_cast<std::size_t>(r)] = total;
  }
  // Plain modulus instead of <random> distributions: the sequence must
  // replay identically with every standard library.
  std::mt19937_64 rng(seed);
  std::vector<double> draws(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double unit = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    draws[i] = (static_cast<double>(i) + unit) / static_cast<double>(count);
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(draws[i - 1], draws[rng() % i]);
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(count);
  for (const double u : draws) {
    const auto rank = static_cast<std::uint64_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u * total) - cdf.begin());
    keys.push_back(std::min<std::uint64_t>(rank, kZipfKeys - 1) + 1);
  }
  return keys;
}

std::vector<sweep::JobRecord> flatten(const api::Session::History& history) {
  std::vector<sweep::JobRecord> records;
  for (const auto& [name, run] : history) {
    records.insert(records.end(), run.begin(), run.end());
  }
  return records;
}

// ---- leg --------------------------------------------------------------------

int cmd_leg(const std::string& workload, const std::string& mode, int threads,
            const std::string& artifact_path) {
  const api::Plan plan = batch_plan(workload);
  const bool t1 = mode == "t1";
  api::Session session(
      {.num_threads = t1 ? 1 : threads, .record_global = false});
  long rss_after_first_kib = 0;
  const double cpu_start = self_cpu_seconds();
  const auto start = Clock::now();
  // t1 holds every outcome until the run returns; the tN client drops
  // each query's outcome once it has its verdict, as `topocon run` and
  // the daemon do.
  std::vector<sweep::JobOutcome> outcomes;
  std::vector<SolvabilityVerdict> verdicts;
  if (t1) {
    outcomes = session.run(plan);
    for (const sweep::JobOutcome& outcome : outcomes) {
      verdicts.push_back(outcome.result.verdict);
    }
  } else {
    for (const api::Query& query : plan.queries) {
      verdicts.push_back(
          session.run(plan.name, {query}).front().result.verdict);
      if (rss_after_first_kib == 0) {
        rss_after_first_kib = proc_status_kib(0, "VmRSS");
      }
    }
  }
  const double wall = since(start);
  const double cpu = self_cpu_seconds() - cpu_start;
  const long rss_end_kib = proc_status_kib(0, "VmRSS");

  std::string artifact;
  if (t1) {
    std::ostringstream out;
    session.write_json(out);
    artifact = out.str();
  } else {
    artifact = service::render_artifact(plan.name, flatten(session.history()));
  }
  if (!write_file(artifact_path, artifact)) {
    std::cerr << "perfbench: cannot write " << artifact_path << "\n";
    return 1;
  }
  // Verdict checks against the literature (deep-n2 only).
  int oracle_checks = 0;
  int oracle_failures = 0;
  if (workload == "deep-n2") {
    for (std::size_t j = 0; j < verdicts.size(); ++j) {
      ++oracle_checks;
      if (to_string(verdicts[j]) !=
          oracle_verdict(api::point_of(plan.queries[j]))) {
        ++oracle_failures;
        std::cerr << "perfbench: " << api::label_of(plan.queries[j])
                  << " verdict " << to_string(verdicts[j])
                  << " contradicts the oracle\n";
      }
    }
  }
  emit(JsonLine()
           .num("wall_s", wall)
           .num("cpu_s", cpu)
           .integer("peak_rss_kib", self_peak_rss_kib())
           .integer("rss_after_first_kib", rss_after_first_kib)
           .integer("rss_end_kib", rss_end_kib)
           .integer("jobs", static_cast<std::int64_t>(verdicts.size()))
           .integer("oracle_checks", oracle_checks)
           .integer("oracle_failures", oracle_failures));
  // End here without tearing down the outcomes and the Session: that is
  // no part of the leg's figures (the traced run times it as
  // api.teardown_s) and takes up to 2 s per leg.
  std::_Exit(0);
}

// ---- setup ------------------------------------------------------------------

/// The probe child: prints CLOCK_MONOTONIC at its first on_job_start (the
/// end of set-up) and ends the process there.
class SetupObserver : public api::Observer {
 public:
  void on_job_start(std::size_t, const api::Query&) override {
    const std::string line = std::to_string(mono_ns()) + "\n";
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fflush(stdout);
    std::_Exit(0);
  }
};

int cmd_probe(const std::string& workload) {
  const api::Plan plan = batch_plan(workload);
  api::Session session({.num_threads = 1, .record_global = false});
  SetupObserver observer;
  session.run(plan, &observer);
  return 1;  // the plan started no job
}

/// Spawns one probe with its stdout on a pipe; returns the seconds from
/// just before posix_spawn to the probe's first on_job_start.
double spawn_probe(const std::string& self, const std::string& workload) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("cannot create a pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {self, "probe", workload};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const std::uint64_t spawn_ns = mono_ns();
  const int spawned = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buffer[64];
  ssize_t got = 0;
  while (spawned == 0 && (got = read(fds[0], buffer, sizeof buffer)) > 0) {
    out.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  if (spawned != 0) throw std::runtime_error("cannot spawn " + self);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
    throw std::runtime_error("a set-up probe failed");
  }
  return static_cast<double>(std::stoull(out) - spawn_ns) * 1e-9;
}

int cmd_setup(const std::string& workload, int probes) {
  char self[4096];
  const ssize_t length = readlink("/proc/self/exe", self, sizeof self - 1);
  if (length <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  self[length] = '\0';
  std::vector<double> samples;
  for (int probe = 0; probe < probes; ++probe) {
    samples.push_back(spawn_probe(self, workload));
  }
  emit(JsonLine().nums("setup_s", samples));
  return 0;
}

// ---- layers (traced run) ----------------------------------------------------

/// Times one call into a layer and records it as a complete span.
class Tracer {
 public:
  explicit Tracer(telemetry::TraceWriter& writer) : writer_(writer) {}

  template <typename Fn>
  double span(const char* name, const char* layer, Fn&& fn) {
    const std::uint64_t ts = writer_.now_us();
    const auto start = Clock::now();
    fn();
    const double seconds = since(start);
    writer_.complete(name, layer, ts, writer_.now_us() - ts);
    return seconds;
  }
  /// Like span() for a top-level call; its time counts towards coverage.
  template <typename Fn>
  double top(const char* name, const char* layer, Fn&& fn) {
    const double seconds = span(name, layer, std::forward<Fn>(fn));
    covered_ += seconds;
    return seconds;
  }
  double covered() const { return covered_; }

 private:
  telemetry::TraceWriter& writer_;
  double covered_ = 0;
};

struct LayerTotals {
  double expand_s = 0, merge_s = 0, commit_s = 0;
  std::uint64_t states_committed = 0, merge_in = 0, merge_out = 0;
  std::uint64_t views_interned = 0, states_retained = 0;
  double rss_growth_bytes = 0;
  double analyze_s = 0, components_s = 0;
  std::uint64_t component_leaves = 0;
  double table_s = 0;
  std::uint64_t table_entries = 0;
  double adversary_s = 0;
  double check_s = 0, redo_s = 0;
  int cross_checks = 0, cross_failures = 0;
};

struct FrontierResult {
  bool truncated = false;
  std::uint64_t leaves = 0;
};

// One root's engine plus the interner it commits into (address-stable).
struct RootShard {
  ViewInterner interner;
  std::optional<FrontierEngine> engine;
};

/// Drives FrontierEngine partition/expand/merge/commit serially over one
/// depth pass, with the solver's two-pass FrontierBudget protocol.
FrontierResult drive_frontier(const MessageAdversary& adversary,
                              const AnalysisOptions& options, Tracer& tracer,
                              LayerTotals& totals) {
  // Hand the memory freed by earlier work back to the kernel first, so
  // the BFS cannot reuse it without growing VmRSS.
  malloc_trim(0);
  const long rss_start_kib = proc_status_kib(0, "VmRSS");
  const std::size_t num_roots =
      all_input_vectors(adversary.num_processes(), options.num_values).size();
  std::vector<RootShard> shards(num_roots);
  for (std::size_t r = 0; r < num_roots; ++r) {
    shards[r].engine.emplace(adversary, options, shards[r].interner,
                             static_cast<int>(r), static_cast<int>(r) + 1);
  }
  FrontierResult result;
  for (int s = 1; s <= options.depth && !result.truncated; ++s) {
    struct Item {
      std::size_t root;
      FrontierChunk chunk;
    };
    std::vector<Item> items;
    std::vector<std::size_t> first_item(num_roots + 1, 0);
    totals.expand_s += tracer.span("partition", "core/frontier", [&] {
      for (std::size_t r = 0; r < num_roots; ++r) {
        first_item[r] = items.size();
        for (const FrontierChunk& chunk :
             shards[r].engine->partition(sweep::kDefaultChunkStates)) {
          items.push_back(Item{r, chunk});
        }
      }
      first_item[num_roots] = items.size();
    });
    std::vector<PendingFrontier> expansions;
    bool tripped = false;
    const auto expand_all = [&] {
      FrontierBudget budget(options.max_states);
      expansions.clear();
      expansions.resize(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        expansions[i] =
            shards[items[i].root].engine->expand(items[i].chunk, &budget);
      }
      tripped = budget.exceeded();
      for (const PendingFrontier& expansion : expansions) {
        tripped |= expansion.overflow;
      }
    };
    totals.expand_s += tracer.span("expand", "core/frontier", expand_all);
    if (tripped && items.size() != num_roots) {
      // Exact pass with root-granular chunks, as the solver does.
      items.clear();
      for (std::size_t r = 0; r < num_roots; ++r) {
        first_item[r] = r;
        items.push_back(
            Item{r, FrontierChunk{0, shards[r].engine->frontier().size()}});
      }
      first_item[num_roots] = num_roots;
      totals.expand_s +=
          tracer.span("expand (exact)", "core/frontier", expand_all);
    }
    if (tripped) {
      result.truncated = true;
      break;
    }
    std::vector<PendingFrontier> pending(num_roots);
    totals.merge_s += tracer.span("merge", "core/frontier", [&] {
      for (std::size_t r = 0; r < num_roots; ++r) {
        std::vector<PendingFrontier> mine;
        for (std::size_t i = first_item[r]; i < first_item[r + 1]; ++i) {
          totals.merge_in += expansions[i].states.size();
          mine.push_back(std::move(expansions[i]));
        }
        pending[r] = shards[r].engine->merge(std::move(mine));
        totals.merge_out += pending[r].states.size();
      }
    });
    std::size_t level_states = 0;
    for (const PendingFrontier& level : pending) {
      result.truncated |= level.overflow;
      level_states += level.states.size();
    }
    if (result.truncated || level_states > options.max_states) {
      result.truncated = true;
      break;
    }
    totals.commit_s += tracer.span("commit", "core/frontier", [&] {
      for (std::size_t r = 0; r < num_roots; ++r) {
        shards[r].engine->commit(std::move(pending[r]));
      }
    });
    totals.states_committed += level_states;
  }
  for (const RootShard& shard : shards) {
    totals.views_interned += shard.interner.size();
    result.leaves += shard.engine->frontier().size();
  }
  totals.states_retained += result.leaves;
  totals.rss_growth_bytes +=
      static_cast<double>(proc_status_kib(0, "VmRSS") - rss_start_kib) *
      1024.0;
  return result;
}

/// Per-run timestamps of the traced Session runs, for solver.check_s and
/// solver.redo_share.
class CheckObserver : public api::Observer {
 public:
  struct Job {
    Clock::time_point start{};
    Clock::time_point done{};
    std::vector<Clock::time_point> depth_done;
  };
  void begin_run(std::size_t jobs) { current_.assign(jobs, Job{}); }
  void end_run() {
    finished_.insert(finished_.end(), current_.begin(), current_.end());
  }
  void on_job_start(std::size_t job, const api::Query&) override {
    current_[job].start = Clock::now();
  }
  void on_depth(std::size_t job, const DepthStats&) override {
    current_[job].depth_done.push_back(Clock::now());
  }
  void on_job_done(std::size_t job, const sweep::JobOutcome&) override {
    current_[job].done = Clock::now();
  }
  const std::vector<Job>& jobs() const { return finished_; }

 private:
  std::vector<Job> current_;
  std::vector<Job> finished_;
};

/// The depth of a job's last analysis pass and whether it truncated.
std::pair<int, bool> final_depth(const sweep::JobOutcome& outcome) {
  const SolvabilityResult& result = outcome.result;
  const int completed = static_cast<int>(result.per_depth.size());
  if (result.verdict == SolvabilityVerdict::kResourceLimit) {
    return {completed + 1, true};
  }
  return {completed, false};
}

int cmd_layers(const std::string& workload, int threads,
               const std::string& trace_path) {
  const auto run_start = Clock::now();
  std::ostringstream trace_buffer;
  std::optional<telemetry::TraceWriter> writer(std::in_place, trace_buffer);
  Tracer tracer(*writer);
  LayerTotals totals;

  // scenario: plan expansion.
  api::Plan plan;
  const double expand_s = tracer.top("expand plan", "scenario",
                                     [&] { plan = batch_plan(workload); });
  const std::vector<api::Query>& queries = plan.queries;

  // api: the query loop of the tN leg on two Sessions in this process,
  // query by query: an untraced one (the overhead base) and a traced one.
  // Both count the Session::run calls alone, each started on a trimmed
  // heap, in alternating order, so neither runs on the other's warm pages
  // and drift on the host hits both. The traced outcomes are kept for the
  // decomposition and destroyed in the teardown span.
  auto baseline = std::make_unique<api::Session>(
      api::SessionOptions{.num_threads = threads, .record_global = false});
  auto session = std::make_unique<api::Session>(api::SessionOptions{
      .num_threads = threads, .record_global = false, .trace = &*writer});
  CheckObserver checks;
  std::vector<sweep::JobOutcome> outcomes;
  double untraced_run_s = 0;
  double run_s = 0;
  const auto run_untraced = [&](const api::Query& query) {
    tracer.top("baseline run", "api", [&] {
      malloc_trim(0);
      const auto start = Clock::now();
      const std::vector<sweep::JobOutcome> ran =
          baseline->run(plan.name, {query});
      untraced_run_s += since(start);
    });
  };
  const auto run_traced = [&](const api::Query& query) {
    tracer.top("Session::run", "api", [&] {
      malloc_trim(0);
      checks.begin_run(1);
      const auto start = Clock::now();
      std::vector<sweep::JobOutcome> ran =
          session->run(plan.name, {query}, &checks);
      run_s += since(start);
      checks.end_run();
      outcomes.push_back(std::move(ran.front()));
    });
  };
  for (std::size_t j = 0; j < queries.size(); ++j) {
    if (j % 2 == 0) run_untraced(queries[j]);
    run_traced(queries[j]);
    if (j % 2 == 1) run_untraced(queries[j]);
  }
  tracer.top("~Session (baseline)", "api", [&] { baseline.reset(); });
  const std::vector<sweep::JobRecord> records = flatten(session->history());
  const double write_json_s = tracer.top("write_json", "api", [&] {
    std::ostringstream out;
    session->write_json(out);
  });
  const double render_s = tracer.top("render_records", "scenario", [&] {
    std::ostringstream out;
    scenario::render_records(out, plan.name, records);
  });
  // service: the memo key and artifact rendering of the same plan.
  constexpr int kKeyReps = 100;
  double plan_key_s = tracer.top("plan_cache_key", "service", [&] {
    for (int rep = 0; rep < kKeyReps; ++rep) service::plan_cache_key(plan);
  });
  plan_key_s /= kKeyReps;
  const double render_artifact_s =
      tracer.top("render_artifact", "service",
                 [&] { service::render_artifact(plan.name, records); });

  // Per job: the serial decomposition of its final depth pass.
  sweep::ThreadPool serial_pool(1);
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    const sweep::JobOutcome& outcome = outcomes[j];
    const FamilyPoint& point = api::point_of(queries[j]);
    const sweep::SweepJob job = api::to_sweep_job(queries[j]);
    std::unique_ptr<MessageAdversary> adversary;
    totals.adversary_s += tracer.top("make_family_adversary", "adversary",
                                     [&] {
                                       adversary = make_family_adversary(point);
                                     });
    const CheckObserver::Job& timing = checks.jobs()[j];
    const double check =
        std::chrono::duration<double>(timing.done - timing.start).count();
    totals.check_s += check;
    const auto [depth, truncated] = final_depth(outcome);
    if (depth >= 2 && timing.depth_done.size() >= static_cast<std::size_t>(
                                                      depth - 1)) {
      totals.redo_s += std::chrono::duration<double>(
                           timing.depth_done[static_cast<std::size_t>(
                               depth - 2)] -
                           timing.start)
                           .count();
    }
    if (depth < 1) continue;
    AnalysisOptions options;
    options.depth = depth;
    options.num_values = job.solve.num_values;
    options.max_states = job.solve.max_states;
    options.keep_levels = false;
    FrontierResult bfs;
    double frontier_s = 0;
    tracer.top("frontier BFS", "core/frontier", [&] {
      const double before =
          totals.expand_s + totals.merge_s + totals.commit_s;
      bfs = drive_frontier(*adversary, options, tracer, totals);
      frontier_s = totals.expand_s + totals.merge_s + totals.commit_s - before;
    });
    std::optional<DepthAnalysis> analysis;
    const double analyze_s =
        tracer.top("parallel_analyze_depth", "runtime/sweep", [&] {
          analysis = sweep::parallel_analyze_depth(*adversary, options,
                                                   serial_pool);
        });
    const double components_s =
        tracer.top("compute_components", "core/epsilon_approx",
                   [&] { compute_components(options, *analysis); });
    totals.analyze_s += analyze_s - frontier_s - components_s;
    totals.components_s += components_s;
    totals.component_leaves += analysis->leaves().size();
    // Cross-check: the decomposition must agree with the Session.
    ++totals.cross_checks;
    bool agrees = bfs.truncated == truncated &&
                  analysis->truncated == truncated;
    if (!truncated) {
      const DepthStats& stats = outcome.result.per_depth.back();
      agrees = agrees && bfs.leaves == stats.num_leaf_classes &&
               analysis->leaves().size() == stats.num_leaf_classes &&
               analysis->components.size() ==
                   static_cast<std::size_t>(stats.num_components);
    }
    if (!agrees) {
      ++totals.cross_failures;
      std::cerr << "perfbench: decomposition of " << outcome.label
                << " disagrees with the Session's DepthStats\n";
    }
    tracer.top("~DepthAnalysis", "core/epsilon_approx",
               [&] { analysis.reset(); });
    if (outcome.result.table.has_value() &&
        outcome.result.analysis.has_value()) {
      std::optional<DecisionTable> table;
      totals.table_s += tracer.top("DecisionTable::build",
                                   "core/decision_table", [&] {
                                     table = DecisionTable::build(
                                         *outcome.result.analysis,
                                         job.solve.strong_validity);
                                   });
      totals.table_entries += table->size();
      ++totals.cross_checks;
      if (table->size() != outcome.result.table->size()) {
        ++totals.cross_failures;
      }
    }
  }

  const double teardown_s = tracer.top("teardown", "api", [&] {
    outcomes.clear();
    outcomes.shrink_to_fit();
    session.reset();
  });
  const double traced_wall = since(run_start);
  const double covered = tracer.covered();
  writer.reset();  // writes the closing bracket
  if (!write_file(trace_path, trace_buffer.str())) {
    std::cerr << "perfbench: cannot write " << trace_path << "\n";
    return 1;
  }
  emit(JsonLine()
           .num("scenario_expand_s", expand_s)
           .num("scenario_render_s", render_s)
           .num("api_run_s", run_s)
           .num("api_untraced_run_s", untraced_run_s)
           .num("api_write_json_s", write_json_s)
           .num("api_teardown_s", teardown_s)
           .num("service_plan_key_s", plan_key_s)
           .num("service_render_artifact_s", render_artifact_s)
           .num("adversary_build_s", totals.adversary_s)
           .num("frontier_expand_s", totals.expand_s)
           .num("frontier_merge_s", totals.merge_s)
           .num("frontier_commit_s", totals.commit_s)
           .integer("frontier_states_committed",
                    static_cast<std::int64_t>(totals.states_committed))
           .integer("frontier_merge_in",
                    static_cast<std::int64_t>(totals.merge_in))
           .integer("frontier_merge_out",
                    static_cast<std::int64_t>(totals.merge_out))
           .integer("frontier_views_interned",
                    static_cast<std::int64_t>(totals.views_interned))
           .integer("frontier_states_retained",
                    static_cast<std::int64_t>(totals.states_retained))
           .num("frontier_rss_growth_bytes", totals.rss_growth_bytes)
           .num("components_s", totals.components_s)
           .integer("components_leaves",
                    static_cast<std::int64_t>(totals.component_leaves))
           .num("decision_table_s", totals.table_s)
           .integer("decision_table_entries",
                    static_cast<std::int64_t>(totals.table_entries))
           .num("solver_check_s", totals.check_s)
           .num("solver_redo_s", totals.redo_s)
           .num("solver_unattributed_s", totals.analyze_s)
           .integer("jobs", static_cast<std::int64_t>(queries.size()))
           .integer("cross_checks", totals.cross_checks)
           .integer("cross_failures", totals.cross_failures)
           .num("covered_s", covered)
           .num("traced_wall_s", traced_wall));
  return 0;
}

// ---- serve ------------------------------------------------------------------

/// A `topocon serve` child process on a socket in the working directory;
/// the destructor stops and reaps it.
class Daemon {
 public:
  Daemon(const std::string& topocon, int threads, const std::string& socket)
      : socket_(socket) {
    unlink(socket.c_str());
    std::vector<std::string> args = {topocon, "serve", "--socket=" + socket,
                                     "--threads=" + std::to_string(threads),
                                     "--quiet"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, topocon.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
      throw std::runtime_error("cannot spawn " + topocon);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects once the daemon listens.
  std::unique_ptr<service::ServeClient> connect() {
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      try {
        return std::make_unique<service::ServeClient>(socket_);
      } catch (const std::runtime_error&) {
        if (Clock::now() > deadline) throw;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
  pid_t pid() const { return pid_; }

  /// SIGTERM, then reap.
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    unlink(socket_.c_str());
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

int cmd_serve(const std::string& topocon, int threads, std::uint64_t seed,
              bool corrupt_expected) {
  const std::string socket = "serve-" + std::to_string(getpid()) + ".sock";
  const std::vector<std::uint64_t> keys = zipf_sequence(seed, kServeSubmits);
  const std::size_t warmup = 100;
  Daemon daemon(topocon, threads, socket);
  std::unique_ptr<service::ServeClient> client = daemon.connect();

  std::map<std::uint64_t, std::string> first_artifact;
  std::vector<double> latency_ms, miss_ms, hit_ms;
  int failed = 0;
  std::size_t distinct_after_warmup = 0;
  long rss_warm_kib = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i == warmup) rss_warm_kib = proc_status_kib(daemon.pid(), "VmRSS");
    const std::uint64_t key = keys[i];
    const std::string request =
        "{\"op\":\"submit\",\"scenario\":\"fuzz-composed\",\"n\":" +
        std::to_string(kFuzzN) + ",\"seed\":" + std::to_string(key) +
        ",\"count\":" + std::to_string(kFuzzCount) + "}";
    const auto sent = Clock::now();
    client->send_line(request);
    std::optional<sweep::JsonValue> result;
    std::string artifact;
    for (;;) {
      const sweep::JsonValue frame =
          sweep::JsonReader::parse(client->read_line());
      const std::string& op = frame.at("op").as_string();
      if (op == "accepted") continue;
      if (op == "result") {
        artifact = client->read_bytes(
            static_cast<std::size_t>(frame.at("artifact_bytes").as_uint()));
        result = frame;
      }
      break;
    }
    const double ms = since(sent) * 1e3;
    latency_ms.push_back(ms);
    if (!result.has_value()) {
      ++failed;
      continue;
    }
    (result->at("cached").as_bool() ? hit_ms : miss_ms).push_back(ms);
    const auto [it, inserted] = first_artifact.try_emplace(key, artifact);
    if (inserted) {
      if (i >= warmup) ++distinct_after_warmup;
      // The first rendering must be a complete sweep document.
      bool complete = false;
      try {
        const sweep::SweepDocument doc = sweep::read_sweep_document(artifact);
        complete = doc.sweeps.size() == 1 &&
                   doc.sweeps.front().second.size() ==
                       static_cast<std::size_t>(kFuzzCount);
      } catch (const std::runtime_error&) {
      }
      if (!complete) ++failed;
      if (corrupt_expected) it->second.back() = ' ';
    } else if (artifact != it->second) {
      ++failed;  // a repeat (hit or re-run after eviction) changed bytes
    }
  }
  const long rss_end_kib = proc_status_kib(daemon.pid(), "VmRSS");
  client.reset();
  daemon.stop();
  emit(JsonLine()
           .integer("seed", static_cast<std::int64_t>(seed))
           .integer("submits", static_cast<std::int64_t>(keys.size()))
           .integer("failed", failed)
           .integer("rss_warm_kib", rss_warm_kib)
           .integer("rss_end_kib", rss_end_kib)
           .integer("distinct_after_warmup",
                    static_cast<std::int64_t>(distinct_after_warmup))
           .nums("latency_ms", latency_ms)
           .nums("miss_ms", miss_ms)
           .nums("hit_ms", hit_ms));
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench info\n"
               "       perfbench leg WORKLOAD t1|tN THREADS ARTIFACT_OUT\n"
               "       perfbench setup WORKLOAD PROBES\n"
               "       perfbench layers WORKLOAD THREADS TRACE_OUT\n"
               "       perfbench serve TOPOCON THREADS SEED "
               "[--corrupt-expected]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    if (args[0] == "info" && args.size() == 1) {
      emit(JsonLine()
               .str("compiler", __VERSION__)
               .str("build_type", PERFBENCH_BUILD_TYPE));
      return 0;
    }
    if (args[0] == "leg" && args.size() == 5 &&
        (args[2] == "t1" || args[2] == "tN")) {
      return cmd_leg(args[1], args[2], std::stoi(args[3]), args[4]);
    }
    if (args[0] == "setup" && args.size() == 3) {
      return cmd_setup(args[1], std::stoi(args[2]));
    }
    if (args[0] == "probe" && args.size() == 2) {
      return cmd_probe(args[1]);
    }
    if (args[0] == "layers" && args.size() == 4) {
      return cmd_layers(args[1], std::stoi(args[2]), args[3]);
    }
    if (args[0] == "serve" && (args.size() == 4 || args.size() == 5)) {
      const bool corrupt = args.size() == 5;
      if (corrupt && args[4] != "--corrupt-expected") return usage();
      return cmd_serve(args[1], std::stoi(args[2]), std::stoull(args[3]),
                       corrupt);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
