// Incremental checkpointing for sweep runs, and the parsing side of the
// topocon-sweep-v1 schema.
//
// A checkpoint file is line-oriented JSON ("JSONL"): one compact header
// object followed by one compact {"job": index, "record": {...}} object
// per completed job, appended and flushed as jobs finish. Because every
// line is self-contained, a process killed mid-sweep leaves at worst one
// torn trailing line, which the reader detects and drops -- everything
// before it is recovered. Completion order depends on the thread count,
// so consumers key on the "job" index (the position in the expanded
// job list), never on line order; re-serializing the merged records in
// job order is what makes an interrupted-and-resumed sweep byte-identical
// to an uninterrupted one.
//
// The same reader also loads finalized topocon-sweep-v1 documents (the
// output of SweepRegistry::write_json and of `topocon run --json`) back
// into JobRecords -- the JSON-visible projection of JobOutcomes -- for
// rendering and round-trip tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/sweep/engine.hpp"
#include "runtime/sweep/json.hpp"

namespace topocon::sweep {

inline constexpr std::string_view kSweepSchema = "topocon-sweep-v1";
inline constexpr std::string_view kCheckpointSchema = "topocon-sweep-ckpt-v1";

/// First line of a checkpoint file: what sweep this is and how to rebuild
/// it. `meta` is an ordered string map for the producer's own use (the
/// topocon CLI stores the scenario name and grid overrides for display
/// and validation). `queries` carries the FULL job description -- one
/// serialized api::Query object per job, in job order (api::query_to_json
/// / api::query_from_json) -- so a resume rebuilds the exact job list
/// from the checkpoint itself instead of re-deriving it from a catalog
/// that may have changed. Checkpoints written before the api facade have
/// no "queries" member; readers fall back to meta-based reconstruction.
struct CheckpointHeader {
  std::string sweep_name;
  std::uint64_t num_jobs = 0;
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<JsonValue> queries;

  friend bool operator==(const CheckpointHeader&,
                         const CheckpointHeader&) = default;
};

/// Appends checkpoint lines to a stream, flushing after every line so a
/// kill loses at most the line being written.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::ostream& out) : out_(out) {}

  void write_header(const CheckpointHeader& header);
  void append(std::size_t job_index, const JobRecord& record);

 private:
  std::ostream& out_;
};

/// Everything recovered from a (possibly truncated) checkpoint file.
struct CheckpointState {
  CheckpointHeader header;
  /// (job index, record) in file order; indices are < header.num_jobs and
  /// unique (a later duplicate line for the same index wins).
  std::vector<std::pair<std::uint64_t, JobRecord>> completed;
  /// True iff the file ended in a torn line (interrupted mid-append).
  bool partial_tail = false;
};

/// True iff `text` begins with a checkpoint header line (as opposed to a
/// finalized sweep document or arbitrary junk).
bool looks_like_checkpoint(std::string_view text);

/// Parses a checkpoint file, dropping a torn trailing line. Throws
/// std::runtime_error on a malformed header or a corrupt interior line.
/// Resumers must not append blindly after a torn tail -- rewrite the
/// file from the recovered state first (the CLI does), or the torn bytes
/// corrupt the next line.
CheckpointState read_checkpoint(std::string_view text);
CheckpointState read_checkpoint(std::istream& in);

/// A parsed topocon-sweep-v1 document: (sweep name, records) in document
/// order.
struct SweepDocument {
  std::vector<std::pair<std::string, std::vector<JobRecord>>> sweeps;
};

/// Parses a finalized sweep document (schema topocon-sweep-v1). Throws
/// std::runtime_error on schema mismatch or malformed input.
SweepDocument read_sweep_document(std::string_view text);
SweepDocument read_sweep_document(std::istream& in);

/// Decodes one "jobs" array element (the write_job_record_json format).
JobRecord job_record_from_json(const JsonValue& value);

}  // namespace topocon::sweep
