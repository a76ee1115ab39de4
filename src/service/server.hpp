// The topocon serve daemon: one poll()-based I/O loop on a Unix-domain
// socket plus one executor thread that runs the shared api::Session.
//
// Threading model (two threads, three queues):
//
//   I/O thread       parses request lines, runs admission control, and
//                    owns every connection, subscription, and output
//                    buffer. It never computes.
//   executor thread  is the only user of the api::Session (Sessions are
//                    single-threaded by contract; the constructor builds
//                    it) and runs one submission at a time off a FIFO
//                    queue; it never touches sockets.
//
// They meet at (a) the mutex-protected submission table + job queue,
// (b) the mutex-protected VerdictCache, and (c) one preallocated
// EventRing per subscriber, which the executor's Observer pushes into
// without ever blocking (service/ring.hpp). A self-pipe wakes the poll
// loop when the executor finishes a job or publishes events.
//
// Admission: one running sweep plus at most `queue_limit` queued ones;
// a submit beyond that is answered `overloaded` and never enqueued.
// Memoized submissions bypass admission entirely -- the stored artifact
// bytes are replayed from the I/O thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/ring.hpp"

namespace topocon::service {

struct ServeOptions {
  std::string socket_path;
  /// Session pool size; 0 = every core (sweep::resolve_threads).
  int num_threads = 0;
  /// Queued (not yet running) submissions beyond which submits are
  /// rejected as overloaded.
  std::size_t queue_limit = 16;
  /// Verdict cache limits (see service/cache.hpp).
  std::size_t cache_entries = 64;
  std::size_t cache_bytes = 64ull << 20;
  /// Event-ring capacity per subscriber (rounded up to a power of two).
  std::size_t ring_capacity = 1024;
  /// Info log sink (the CLI passes stderr); null = silent.
  std::ostream* log = nullptr;
};

class Server {
 public:
  /// Builds the daemon's Session and starts its pool, so a pool that
  /// cannot start its threads throws std::system_error ("cannot start N
  /// threads: ...") here, before anything listens.
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and serves until a shutdown request (or
  /// request_stop). Returns 0 on clean shutdown, 1 on a socket-layer
  /// failure (message on the log sink).
  int run();

  /// Asks the running loop to stop; safe from any thread and from
  /// signal handlers (one pipe write).
  void request_stop();

  /// Coherent counter snapshot (also the `stats` frame's source).
  StatsSnapshot stats();

 private:
  struct Submission {
    std::uint64_t id = 0;
    api::Plan plan;
    std::string cache_key;
    /// Connection generation stamp of the submitter (see Connection);
    /// results are dropped when the connection is gone.
    int fd = -1;
    std::uint64_t conn_gen = 0;
    enum class State { kQueued, kRunning, kDone, kCancelled, kFailed };
    State state = State::kQueued;
    std::string artifact;  // kDone
    std::string error;     // kFailed
  };

  struct Connection {
    int fd = -1;
    /// Monotonic stamp distinguishing reuses of the same fd number.
    std::uint64_t gen = 0;
    std::string input;
    std::string output;
    bool subscribed = false;
    /// Submission filter; 0 = all.
    std::uint64_t subscribe_id = 0;
    std::unique_ptr<EventRing> ring;
    bool closing = false;  ///< flush output, then close (bye sent)
  };

  // I/O-thread side.
  int setup_listener();
  void accept_clients();
  void handle_readable(Connection& conn);
  void handle_line(Connection& conn, std::string_view line);
  void handle_submit(Connection& conn, Request request);
  void deliver_finished_locked(Submission& submission);
  void drain_rings();
  void drain_wakeup_pipe();
  void close_connection(std::size_t index);

  // Executor side.
  void executor_main();
  void publish(const ServeEvent& event);
  void wake_io();

  class ExecObserver;

  ServeOptions options_;
  /// One warm Session for the daemon's lifetime: the pool amortizes
  /// across submissions (the whole point of serving).
  api::Session session_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::vector<Connection> connections_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> executor_done_{false};

  std::mutex state_mutex_;
  std::condition_variable work_available_;
  std::deque<std::uint64_t> job_queue_;
  std::map<std::uint64_t, Submission> submissions_;
  std::vector<std::uint64_t> finished_;  ///< done/failed, result not yet sent
  std::uint64_t next_id_ = 1;
  std::uint64_t next_conn_gen_ = 1;
  bool executor_running_job_ = false;

  std::mutex cache_mutex_;
  VerdictCache cache_;

  /// Rings of live subscribers, shared with the executor's observer.
  std::mutex subscribers_mutex_;
  std::vector<std::pair<EventRing*, std::uint64_t>> subscriber_rings_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> submits_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> events_streamed_{0};
  /// Drops of rings whose connection already closed.
  std::atomic<std::uint64_t> retired_drops_{0};

  std::thread executor_;
};

}  // namespace topocon::service
