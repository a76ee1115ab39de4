#include "runtime/sweep/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "core/frontier.hpp"
#include "runtime/sweep/engine.hpp"

namespace topocon::sweep {

std::optional<std::string_view> flag_value(std::string_view arg,
                                           std::string_view flag) {
  if (arg.size() < flag.size() + 3 || !arg.starts_with("--")) {
    return std::nullopt;
  }
  arg.remove_prefix(2);
  if (!arg.starts_with(flag) || arg[flag.size()] != '=') return std::nullopt;
  return arg.substr(flag.size() + 1);
}

int parse_int_value(std::string_view flag, std::string_view value) {
  int parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    throw std::invalid_argument("--" + std::string(flag) +
                                " expects an integer, got '" +
                                std::string(value) + "'");
  }
  return parsed;
}

int parse_threads_value(std::string_view flag, std::string_view value) {
  const int threads = parse_int_value(flag, value);
  if (threads < 0) {
    throw std::invalid_argument("--" + std::string(flag) +
                                " must be >= 0 (0 = every core), got '" +
                                std::string(value) + "'");
  }
  return threads;
}

std::uint64_t parse_uint64_value(std::string_view flag,
                                 std::string_view value) {
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    throw std::invalid_argument("--" + std::string(flag) +
                                " expects an unsigned integer, got '" +
                                std::string(value) + "'");
  }
  return parsed;
}

SweepCliOptions consume_sweep_args(int* argc, char** argv) {
  SweepCliOptions options;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (const auto threads = flag_value(arg, "sweep-threads")) {
      // Callers (bench mains, examples) have no try block around argv
      // consumption; fail the process cleanly instead of letting the
      // invalid_argument escape to std::terminate.
      try {
        set_default_num_threads(
            parse_threads_value("sweep-threads", *threads));
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "sweep: %s\n", error.what());
        std::exit(2);
      }
      continue;
    }
    if (const auto mode = flag_value(arg, "sweep-frontier")) {
      const auto parsed = frontier_mode_from_name(*mode);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "sweep: --sweep-frontier expects 'auto', 'dense', or "
                     "'sparse', got '%s'\n",
                     std::string(*mode).c_str());
        std::exit(2);
      }
      set_default_frontier_mode(*parsed);
      continue;
    }
    if (const auto path = flag_value(arg, "sweep-json")) {
      options.json_path = *path;
      SweepRegistry::instance().set_enabled(true);
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  return options;
}

bool flush_sweep_json(const SweepCliOptions& options) {
  if (options.json_path.empty()) return true;
  std::ofstream out(options.json_path);
  if (!out) {
    std::fprintf(stderr, "sweep: cannot write %s\n",
                 options.json_path.c_str());
    return false;
  }
  SweepRegistry::instance().write_json(out);
  return static_cast<bool>(out);
}

}  // namespace topocon::sweep
