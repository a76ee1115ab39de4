// Command-line plumbing shared by the bench binaries, the examples, and
// the topocon CLI: one flag-matching helper (`--name=value` form) and the
// --sweep-threads / --sweep-json handling that used to be copy-pasted
// around consume_sweep_args call sites.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace topocon::sweep {

/// If `arg` is "--FLAG=VALUE" for the given flag name (without dashes),
/// returns VALUE (possibly empty); otherwise std::nullopt. This is the
/// one flag syntax every topocon binary accepts.
std::optional<std::string_view> flag_value(std::string_view arg,
                                           std::string_view flag);

/// Parses a mandatory integer flag value. Throws std::invalid_argument
/// naming the flag on malformed or out-of-int-range input.
int parse_int_value(std::string_view flag, std::string_view value);

/// Parses a thread-count flag value like parse_int_value, and also
/// throws std::invalid_argument for values below 0 (0 = every core; see
/// resolve_threads).
int parse_threads_value(std::string_view flag, std::string_view value);

/// Parses a mandatory unsigned 64-bit flag value (the full seed space;
/// parse_int_value would cap it at int). Throws std::invalid_argument
/// naming the flag on malformed, negative, or out-of-range input.
std::uint64_t parse_uint64_value(std::string_view flag,
                                 std::string_view value);

/// Options consumed by consume_sweep_args.
struct SweepCliOptions {
  /// Destination of the registry dump; empty = no dump.
  std::string json_path;
};

/// Strips --sweep-threads=N, --sweep-frontier=MODE, and
/// --sweep-json=PATH from argv (so they can precede google-benchmark's
/// own argument parsing) and applies the thread/frontier defaults
/// immediately.
SweepCliOptions consume_sweep_args(int* argc, char** argv);

/// Writes the registry to options.json_path if set. Returns false (after
/// printing to stderr) when the file cannot be written.
bool flush_sweep_json(const SweepCliOptions& options);

}  // namespace topocon::sweep
