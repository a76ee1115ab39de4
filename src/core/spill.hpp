// Out-of-core tier for the chunked frontier engine: expanded-but-unmerged
// PendingFrontier slices are serialized to temp files when a level's
// resident expansions would exceed a soft byte budget, then streamed back
// one at a time -- in the same deterministic (root, chunk) order the
// merge already uses -- through merge()/commit(). Spilling is an
// execution detail like the chunk size: a slice round-trips losslessly
// (states, the KeyCodec-packed view table, view indices, children, in
// order), so artifacts are byte-identical at every budget, thread count,
// chunk size, and frontier mode. What changes is only the resident-set bound:
// with spill on, a level holds the merged result plus at most one
// restored chunk instead of every chunk at once.
//
// Policy. A chunk spills iff spilling is enabled and
//   chunk.approx_bytes() * level_chunk_count > budget_bytes (saturating),
// the "fair share" rule: a chunk keeps its share of the budget and goes
// to disk the moment it exceeds it. The decision depends only on the
// chunk's content and the level's chunk count -- never on scheduling --
// so the set of spilled chunks is deterministic for a fixed knob vector.
//
// Telemetry. Spill counters follow the commit-only contract of
// telemetry/metrics.hpp: spill()/restore tallies are STAGED and only
// folded into the visible totals when the level commits; the expansions
// of a truncated level leave no trace. The totals surface as JobTelemetry::spill -- a non-serialized
// member like wall_seconds, shown by --metrics and never part of any
// artifact (telemetry JSON artifacts are byte-identical spill-on vs off).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/epsilon_approx.hpp"
#include "core/frontier.hpp"

namespace topocon {

/// Process-wide default for SpillOptions::budget_bytes == 0: set from
/// the CLI (`topocon --spill-budget-mb/--spill-dir`,
/// `--sweep-spill-budget-mb/--sweep-spill-dir`). The initial value
/// disables spilling. An execution knob only -- results are identical
/// for every setting.
void set_default_spill(const SpillOptions& options);
SpillOptions default_spill();

/// `options` with budget_bytes == 0 replaced by the process-wide
/// default (and then an empty dir by the default dir).
SpillOptions resolve_spill(const SpillOptions& options);

/// Saturating MiB -> bytes, shared by every --spill-budget-mb-style
/// flag; 0 stays 0 (disabled / inherit the default).
std::uint64_t spill_budget_mb_to_bytes(std::uint64_t mb);

class FrontierSpill;

/// Handle to one spilled chunk's file. Deleting the ticket (e.g. when a
/// truncated level discards its expansions) unlinks the file; a
/// restore consumes the ticket after replaying it.
class SpillTicket {
 public:
  SpillTicket(std::string path, std::uint64_t bytes, FrontierSpill* owner)
      : path_(std::move(path)), bytes_(bytes), owner_(owner) {}
  ~SpillTicket();
  SpillTicket(const SpillTicket&) = delete;
  SpillTicket& operator=(const SpillTicket&) = delete;

  const std::string& path() const { return path_; }
  std::uint64_t bytes() const { return bytes_; }
  FrontierSpill* owner() const { return owner_; }

 private:
  std::string path_;
  std::uint64_t bytes_ = 0;
  FrontierSpill* owner_ = nullptr;
};

/// Writer/reader of spilled PendingFrontier slices for ONE analysis
/// call: owns a unique temp subdirectory (removed on destruction, so a
/// discarded run never leaks files) and the staged/committed counters.
/// Must outlive every ticket it issued. spill() and restore_spilled()
/// are thread-safe (distinct files, atomic counters); the level-staging
/// calls (commit_level/discard_staged) belong to the level loop's
/// single-threaded sections.
class FrontierSpill {
 public:
  /// Observational spill totals; see the header comment for the
  /// commit-only staging contract.
  struct Stats {
    std::uint64_t chunks_spilled = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t bytes_replayed = 0;
    /// Levels whose merge replayed at least one spilled chunk.
    std::uint64_t replay_passes = 0;
  };

  /// `options` must be resolved (resolve_spill) and enabled. Creates the
  /// unique spill subdirectory eagerly; throws std::runtime_error when
  /// the directory cannot be created.
  explicit FrontierSpill(const SpillOptions& options);
  ~FrontierSpill();
  FrontierSpill(const FrontierSpill&) = delete;
  FrontierSpill& operator=(const FrontierSpill&) = delete;

  const SpillOptions& options() const { return options_; }
  const std::string& dir() const { return dir_; }

  /// The fair-share policy: true iff `chunk` should go to disk given
  /// this level's chunk count.
  bool should_spill(const PendingFrontier& chunk,
                    std::size_t level_chunks) const;

  /// Serializes the chunk's payload (states, views, state_views,
  /// children) to a new spill file and releases it from memory;
  /// chunk.spilled holds the ticket. chunk/overflow/stats stay resident.
  void spill(PendingFrontier& chunk);

  /// should_spill + spill in one call; returns true iff it spilled.
  bool maybe_spill(PendingFrontier& chunk, std::size_t level_chunks);

  /// Folds the staged tallies of the level that just committed into the
  /// visible totals (one replay pass if anything was staged).
  void commit_level();
  /// Drops staged tallies (truncated level); the files themselves die
  /// with their tickets.
  void discard_staged();

  /// Committed totals only (staged work invisible until commit_level).
  Stats stats() const;

 private:
  friend void restore_spilled(PendingFrontier& chunk);

  /// Private (de)serializer (spill.cpp); nested so it shares this
  /// class's WordSeqIndex friendship.
  struct Io;

  SpillOptions options_;
  std::string dir_;
  std::atomic<std::uint64_t> next_file_{0};
  // Staged (current level) and committed tallies.
  std::atomic<std::uint64_t> staged_chunks_{0};
  std::atomic<std::uint64_t> staged_written_{0};
  std::atomic<std::uint64_t> staged_replayed_{0};
  Stats committed_;
};

/// Replays chunk.spilled back into memory and consumes the ticket (the
/// file is deleted; the replayed bytes are staged on the owner).
/// frontier.cpp calls this from merge()/commit(); restored dedup tables
/// are read-only, which is all merge/commit need.
void restore_spilled(PendingFrontier& chunk);

}  // namespace topocon
