#include "service/server.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <initializer_list>
#include <ostream>
#include <stdexcept>

#include "core/frontier.hpp"
#include "core/solvability.hpp"
#include "telemetry/metrics.hpp"

namespace topocon::service {

namespace {

/// Request lines beyond this are abuse, not workloads (an explicit
/// submit with hundreds of queries stays far below it).
constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Per-connection output buffered beyond this stops ring draining for
/// that subscriber -- backpressure surfaces as ring drops, never as a
/// blocked compute thread.
constexpr std::size_t kOutputSoftCap = 256 << 10;

/// Poll tick; also the executor's stop-check cadence, so request_stop
/// needs no condition-variable notify (it must stay signal-safe).
constexpr int kPollMillis = 200;

/// Shutdown waits this long for pending output to flush before closing
/// straggler connections (units of kPollMillis).
constexpr int kShutdownGraceTicks = 25;

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

/// The executor's view of a running sweep: every engine callback becomes
/// one ServeEvent pushed at the subscriber rings (never blocking).
class Server::ExecObserver : public api::Observer {
 public:
  ExecObserver(Server* server, std::uint64_t submission,
               std::uint64_t jobs_total)
      : server_(server), submission_(submission), jobs_total_(jobs_total) {}

  void on_job_start(std::size_t job, const api::Query&) override {
    publish(job, ServeEvent::Kind::kJobStart, {});
  }
  void on_depth(std::size_t job, const DepthStats& stats) override {
    publish(job, ServeEvent::Kind::kDepth,
            {static_cast<std::uint64_t>(stats.depth), stats.num_leaf_classes,
             static_cast<std::uint64_t>(stats.num_components),
             stats.separated ? 1u : 0u});
  }
  void on_depth(std::size_t job, const ChunkProgress& progress) override {
    publish(job, ServeEvent::Kind::kChunk,
            {static_cast<std::uint64_t>(progress.depth),
             static_cast<std::uint64_t>(progress.level), progress.chunks_done,
             progress.chunks_total, progress.frontier_states});
  }
  void on_job_telemetry(std::size_t job,
                        const telemetry::JobTelemetry& snapshot) override {
    publish(job, ServeEvent::Kind::kTelemetry,
            {snapshot.counters.states_expanded,
             snapshot.counters.states_committed,
             snapshot.counters.views_interned,
             snapshot.counters.levels_committed,
             snapshot.counters.frontier_high_water});
  }
  void on_job_done(std::size_t job, const sweep::JobOutcome&) override {
    ++jobs_done_;
    publish(job, ServeEvent::Kind::kJobDone, {jobs_done_, jobs_total_});
  }

 private:
  void publish(std::size_t job, ServeEvent::Kind kind,
               std::initializer_list<std::uint64_t> payload) {
    ServeEvent event;
    event.submission = submission_;
    event.job = static_cast<std::uint32_t>(job);
    event.kind = kind;
    std::uint64_t* slot = &event.a;
    for (const std::uint64_t value : payload) *slot++ = value;
    server_->publish(event);
  }

  Server* server_;
  std::uint64_t submission_;
  std::uint64_t jobs_total_;
  std::uint64_t jobs_done_ = 0;
};

// Telemetry collection is always on -- it feeds the subscriber event
// stream and never changes the serialized records (telemetry_in_records
// stays false, so artifacts match `topocon run` byte for byte).
Server::Server(ServeOptions options)
    : options_(std::move(options)),
      session_({.num_threads = options_.num_threads,
                .record_global = false,
                .collect_telemetry = true,
                .telemetry_in_records = false}),
      cache_(options_.cache_entries, options_.cache_bytes) {
  // The wake pipe exists for the object's whole lifetime so request_stop
  // works even before (or after) run().
  if (pipe(wake_pipe_) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  } else {
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(wake_pipe_[1]);
  }
}

Server::~Server() {
  stopping_.store(true, std::memory_order_relaxed);
  if (executor_.joinable()) executor_.join();
  for (Connection& conn : connections_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
}

void Server::request_stop() {
  stopping_.store(true, std::memory_order_relaxed);
  wake_io();
}

void Server::wake_io() {
  if (wake_pipe_[1] < 0) return;
  const char byte = 'w';
  // A full pipe means a wakeup is already pending; any other failure is
  // recovered by the poll timeout.
  [[maybe_unused]] const ssize_t n = write(wake_pipe_[1], &byte, 1);
}

int Server::setup_listener() {
  if (options_.socket_path.empty()) {
    if (options_.log) *options_.log << "serve: --socket is required\n";
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (options_.log) {
      *options_.log << "serve: socket path too long: " << options_.socket_path
                    << "\n";
    }
    return -1;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (options_.log) *options_.log << "serve: socket() failed\n";
    return -1;
  }
  // A previous daemon's stale socket file would make bind fail; the
  // path is operator-chosen, so replacing it is the expected behavior.
  unlink(options_.socket_path.c_str());
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 16) != 0 || !set_nonblocking(fd)) {
    if (options_.log) {
      *options_.log << "serve: cannot listen on " << options_.socket_path
                    << ": " << std::strerror(errno) << "\n";
    }
    close(fd);
    return -1;
  }
  return fd;
}

int Server::run() {
  listen_fd_ = setup_listener();
  if (listen_fd_ < 0 || wake_pipe_[0] < 0) return 1;
  if (options_.log) {
    *options_.log << "serve: listening on " << options_.socket_path << "\n";
  }
  executor_ = std::thread([this] { executor_main(); });

  int grace_ticks = 0;
  bool listener_open = true;
  for (;;) {
    std::vector<pollfd> fds;
    fds.push_back({listener_open ? listen_fd_ : -1, POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    const std::size_t base = fds.size();
    for (const Connection& conn : connections_) {
      short events = POLLIN;
      if (!conn.output.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
    }
    poll(fds.data(), fds.size(), kPollMillis);
    drain_wakeup_pipe();

    const std::size_t present = connections_.size();
    for (std::size_t i = 0; i < present; ++i) {
      Connection& conn = connections_[i];
      const short revents = fds[base + i].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        conn.closing = true;
        conn.output.clear();
        continue;
      }
      if (revents & POLLIN) handle_readable(conn);
    }

    // Rings drain before results: the executor publishes every event of
    // a job before marking it finished, so this order keeps a job's
    // progress frames ahead of its result even when the whole sweep ran
    // within one poll interval.
    drain_rings();
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      for (const std::uint64_t id : finished_) {
        const auto it = submissions_.find(id);
        if (it != submissions_.end()) deliver_finished_locked(it->second);
      }
      finished_.clear();
    }

    // Single flush point: every frame queued above goes out here.
    for (Connection& conn : connections_) {
      while (!conn.output.empty()) {
        // MSG_NOSIGNAL: a vanished client is an EPIPE on this socket,
        // never a process-wide SIGPIPE.
        const ssize_t n = send(conn.fd, conn.output.data(),
                               conn.output.size(), MSG_NOSIGNAL);
        if (n > 0) {
          conn.output.erase(0, static_cast<std::size_t>(n));
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          conn.closing = true;
          conn.output.clear();
          break;
        }
      }
    }
    for (std::size_t i = connections_.size(); i-- > 0;) {
      if (connections_[i].closing && connections_[i].output.empty()) {
        close_connection(i);
      }
    }
    if (listener_open && (fds[0].revents & POLLIN)) accept_clients();

    if (stopping_.load(std::memory_order_relaxed)) {
      if (listener_open) {
        close(listen_fd_);
        listen_fd_ = -1;
        listener_open = false;
        unlink(options_.socket_path.c_str());
        std::unique_lock<std::mutex> lock(state_mutex_);
        for (const std::uint64_t id : job_queue_) {
          const auto it = submissions_.find(id);
          if (it != submissions_.end()) {
            it->second.state = Submission::State::kCancelled;
          }
          cancelled_.fetch_add(1, std::memory_order_relaxed);
        }
        job_queue_.clear();
      }
      const bool flushed = std::all_of(
          connections_.begin(), connections_.end(),
          [](const Connection& conn) { return conn.output.empty(); });
      if (executor_done_.load(std::memory_order_acquire) &&
          (flushed || ++grace_ticks > kShutdownGraceTicks)) {
        break;
      }
    }
  }
  while (!connections_.empty()) close_connection(connections_.size() - 1);
  executor_.join();
  if (options_.log) *options_.log << "serve: shut down\n";
  return 0;
}

void Server::accept_clients() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN, or a race with a vanished client
    if (!set_nonblocking(fd)) {
      close(fd);
      continue;
    }
    Connection conn;
    conn.fd = fd;
    conn.gen = next_conn_gen_++;
    conn.output = hello_line();
    connections_.push_back(std::move(conn));
  }
}

void Server::handle_readable(Connection& conn) {
  char buffer[4096];
  bool eof = false;
  for (;;) {
    const ssize_t n = read(conn.fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn.input.append(buffer, static_cast<std::size_t>(n));
      if (conn.input.size() > kMaxLineBytes) {
        conn.output += error_line("request line too long");
        conn.closing = true;
        return;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0) {  // hard error: drop the connection, pending output too
      conn.closing = true;
      conn.output.clear();
      return;
    }
    eof = true;  // buffered lines (e.g. a final shutdown) still parse
    break;
  }
  std::size_t newline;
  while (!conn.closing &&
         (newline = conn.input.find('\n')) != std::string::npos) {
    const std::string line = conn.input.substr(0, newline);
    conn.input.erase(0, newline + 1);
    if (!line.empty()) handle_line(conn, line);
  }
  if (eof) conn.closing = true;
}

void Server::handle_line(Connection& conn, std::string_view line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::runtime_error& e) {
    conn.output += error_line(e.what());
    return;
  }
  switch (request.op) {
    case Request::Op::kSubmit:
      handle_submit(conn, std::move(request));
      return;
    case Request::Op::kStatus: {
      std::unique_lock<std::mutex> lock(state_mutex_);
      const auto it = submissions_.find(request.id);
      if (it == submissions_.end()) {
        lock.unlock();
        conn.output += error_line("status: unknown id " +
                                  std::to_string(request.id));
        return;
      }
      const char* state = "done";
      std::uint64_t position = 0;
      switch (it->second.state) {
        case Submission::State::kQueued: {
          state = "queued";
          const auto at = std::find(job_queue_.begin(), job_queue_.end(),
                                    request.id);
          position = static_cast<std::uint64_t>(
              at == job_queue_.end() ? 0 : at - job_queue_.begin() + 1);
          break;
        }
        case Submission::State::kRunning: state = "running"; break;
        case Submission::State::kDone: state = "done"; break;
        case Submission::State::kCancelled: state = "cancelled"; break;
        case Submission::State::kFailed: state = "failed"; break;
      }
      lock.unlock();
      conn.output += status_line(request.id, state, position);
      return;
    }
    case Request::Op::kSubscribe: {
      if (conn.ring == nullptr) {
        conn.ring = std::make_unique<EventRing>(options_.ring_capacity);
      }
      conn.subscribe_id = request.has_id ? request.id : 0;
      {
        std::unique_lock<std::mutex> lock(subscribers_mutex_);
        if (!conn.subscribed) {
          subscriber_rings_.emplace_back(conn.ring.get(), conn.subscribe_id);
        } else {
          for (auto& [ring, filter] : subscriber_rings_) {
            if (ring == conn.ring.get()) filter = conn.subscribe_id;
          }
        }
      }
      conn.subscribed = true;
      conn.output += subscribed_line(conn.subscribe_id);
      return;
    }
    case Request::Op::kCancel: {
      std::unique_lock<std::mutex> lock(state_mutex_);
      const auto at =
          std::find(job_queue_.begin(), job_queue_.end(), request.id);
      if (at == job_queue_.end()) {
        lock.unlock();
        conn.output +=
            error_line("cancel: id " + std::to_string(request.id) +
                       " is not queued (running sweeps finish)");
        return;
      }
      job_queue_.erase(at);
      const auto it = submissions_.find(request.id);
      if (it != submissions_.end()) {
        it->second.state = Submission::State::kCancelled;
      }
      lock.unlock();
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      conn.output += cancelled_line(request.id);
      return;
    }
    case Request::Op::kStats:
      conn.output += stats_line(stats());
      return;
    case Request::Op::kShutdown:
      conn.output += bye_line();
      conn.closing = true;
      stopping_.store(true, std::memory_order_relaxed);
      return;
  }
}

void Server::handle_submit(Connection& conn, Request request) {
  submits_.fetch_add(1, std::memory_order_relaxed);
  api::Plan plan;
  try {
    if (!request.scenario.empty()) {
      const scenario::Scenario* s = scenario::find_scenario(request.scenario);
      if (s == nullptr) {
        throw std::invalid_argument("unknown scenario: " + request.scenario);
      }
      plan = scenario::expand_scenario(*s, request.overrides);
    } else {
      plan.name = std::move(request.name);
      plan.queries = std::move(request.queries);
    }
  } catch (const std::exception& e) {
    conn.output += error_line(std::string("submit: ") + e.what());
    return;
  }
  const std::string key = plan_cache_key(plan);

  std::string cached_artifact;
  {
    std::unique_lock<std::mutex> lock(cache_mutex_);
    const std::string* hit = cache_.find(key);
    if (hit != nullptr) cached_artifact = *hit;
  }
  if (!cached_artifact.empty()) {
    std::uint64_t id;
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      id = next_id_++;
      Submission& submission = submissions_[id];
      submission.id = id;
      submission.cache_key = key;
      submission.state = Submission::State::kDone;
      submission.plan.name = plan.name;
    }
    conn.output += accepted_line(id, /*cached=*/true, /*queued=*/0);
    conn.output += result_line(id, plan.name, /*cached=*/true,
                               cached_artifact.size());
    conn.output += cached_artifact;
    return;
  }

  std::unique_lock<std::mutex> lock(state_mutex_);
  if (stopping_.load(std::memory_order_relaxed)) {
    lock.unlock();
    conn.output += error_line("submit: server is shutting down");
    return;
  }
  if (job_queue_.size() >= options_.queue_limit) {
    const std::uint64_t depth = job_queue_.size();
    lock.unlock();
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    conn.output += overloaded_line(depth, options_.queue_limit);
    return;
  }
  const std::uint64_t id = next_id_++;
  Submission& submission = submissions_[id];
  submission.id = id;
  submission.plan = std::move(plan);
  submission.cache_key = key;
  submission.fd = conn.fd;
  submission.conn_gen = conn.gen;
  submission.state = Submission::State::kQueued;
  job_queue_.push_back(id);
  const std::uint64_t position = job_queue_.size();
  lock.unlock();
  work_available_.notify_one();
  conn.output += accepted_line(id, /*cached=*/false, position);
}

/// state_mutex_ held by the caller.
void Server::deliver_finished_locked(Submission& submission) {
  Connection* conn = nullptr;
  for (Connection& candidate : connections_) {
    if (candidate.fd == submission.fd && candidate.gen == submission.conn_gen) {
      conn = &candidate;
      break;
    }
  }
  if (conn == nullptr || conn->closing) {
    submission.artifact.clear();  // submitter is gone; drop the payload
    return;
  }
  if (submission.state == Submission::State::kFailed) {
    conn->output += error_line("submission " + std::to_string(submission.id) +
                               " failed: " + submission.error);
    return;
  }
  conn->output += result_line(submission.id, submission.plan.name,
                              /*cached=*/false, submission.artifact.size());
  conn->output += submission.artifact;
  submission.artifact.clear();  // the cache owns the retained copy
}

void Server::drain_rings() {
  for (Connection& conn : connections_) {
    if (!conn.subscribed || conn.ring == nullptr || conn.closing) continue;
    ServeEvent event;
    while (conn.output.size() < kOutputSoftCap && conn.ring->pop(&event)) {
      conn.output += event_line(event);
    }
  }
}

void Server::drain_wakeup_pipe() {
  char buffer[256];
  while (read(wake_pipe_[0], buffer, sizeof(buffer)) > 0) {
  }
}

void Server::close_connection(std::size_t index) {
  Connection& conn = connections_[index];
  if (conn.subscribed && conn.ring != nullptr) {
    std::unique_lock<std::mutex> lock(subscribers_mutex_);
    std::erase_if(subscriber_rings_, [&](const auto& entry) {
      return entry.first == conn.ring.get();
    });
    retired_drops_.fetch_add(conn.ring->drops(), std::memory_order_relaxed);
  }
  close(conn.fd);
  connections_.erase(connections_.begin() +
                     static_cast<std::ptrdiff_t>(index));
}

void Server::publish(const ServeEvent& event) {
  bool delivered = false;
  {
    std::unique_lock<std::mutex> lock(subscribers_mutex_);
    for (const auto& [ring, filter] : subscriber_rings_) {
      if (filter != 0 && filter != event.submission) continue;
      ring->push(event);
      events_streamed_.fetch_add(1, std::memory_order_relaxed);
      delivered = true;
    }
  }
  if (delivered) wake_io();
}

void Server::executor_main() {
  for (;;) {
    std::uint64_t id = 0;
    api::Plan plan;
    std::string cache_key;
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      work_available_.wait_for(
          lock, std::chrono::milliseconds(kPollMillis), [this] {
            return !job_queue_.empty() ||
                   stopping_.load(std::memory_order_relaxed);
          });
      if (job_queue_.empty()) {
        if (stopping_.load(std::memory_order_relaxed)) break;
        continue;
      }
      if (stopping_.load(std::memory_order_relaxed)) break;  // queue discarded
      id = job_queue_.front();
      job_queue_.pop_front();
      Submission& submission = submissions_[id];
      submission.state = Submission::State::kRunning;
      plan = submission.plan;
      cache_key = submission.cache_key;
      executor_running_job_ = true;
    }

    std::string artifact;
    std::string error;
    try {
      ExecObserver observer(this, id, plan.queries.size());
      session_.run(plan.name, plan.queries, &observer);
      const std::vector<sweep::JobRecord>& records =
          session_.history().back().second;
      artifact = render_artifact(plan.name, records);
      // History growth is unbounded across a daemon's life, so the
      // Session keeps none; the outcomes die here, and their interners
      // with them.
      session_.clear_history();
    } catch (const std::exception& e) {
      error = e.what();
    }

    if (error.empty()) {
      std::unique_lock<std::mutex> lock(cache_mutex_);
      cache_.insert(cache_key, artifact);
    }
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      Submission& submission = submissions_[id];
      submission.state = error.empty() ? Submission::State::kDone
                                       : Submission::State::kFailed;
      submission.artifact = std::move(artifact);
      submission.error = std::move(error);
      finished_.push_back(id);
      executor_running_job_ = false;
    }
    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    wake_io();
  }
  executor_done_.store(true, std::memory_order_release);
  wake_io();
}

StatsSnapshot Server::stats() {
  StatsSnapshot snapshot;
  snapshot.requests = requests_.load(std::memory_order_relaxed);
  snapshot.submits = submits_.load(std::memory_order_relaxed);
  snapshot.rejected_overload =
      rejected_overload_.load(std::memory_order_relaxed);
  snapshot.cancelled = cancelled_.load(std::memory_order_relaxed);
  snapshot.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
  snapshot.events_streamed = events_streamed_.load(std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(cache_mutex_);
    snapshot.cache_hits = cache_.hits();
    snapshot.cache_misses = cache_.misses();
    snapshot.cache_entries = cache_.entries();
    snapshot.cache_bytes = cache_.bytes();
  }
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    snapshot.queue_depth = job_queue_.size();
    snapshot.running = executor_running_job_ ? 1 : 0;
  }
  {
    std::unique_lock<std::mutex> lock(subscribers_mutex_);
    snapshot.subscribers = subscriber_rings_.size();
    snapshot.subscriber_drops = retired_drops_.load(std::memory_order_relaxed);
    for (const auto& [ring, filter] : subscriber_rings_) {
      snapshot.subscriber_drops += ring->drops();
    }
  }
  return snapshot;
}

}  // namespace topocon::service
