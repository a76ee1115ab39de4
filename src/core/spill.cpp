#include "core/spill.hpp"

#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

namespace topocon {

namespace {

// "TOPOSPL1" little-endian; spill files never cross a process boundary
// (the owning FrontierSpill unlinks them), so host endianness is fine
// and the magic only guards against torn or foreign files.
constexpr std::uint64_t kSpillMagic = 0x314c50534f504f54ull;

constexpr std::size_t kIoBuffer = std::size_t{1} << 20;

std::mutex g_default_spill_mutex;
SpillOptions g_default_spill;

std::atomic<std::uint64_t> g_spill_dir_seq{0};

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("spill: " + what + ": " + path);
}

/// Buffered binary writer: put() appends POD fields to an in-memory
/// block flushed at kIoBuffer, so multi-million-state chunks cost large
/// sequential fwrites, not one syscall per field.
class Writer {
 public:
  explicit Writer(const std::string& path) : path_(path) {
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) fail("cannot create spill file", path_);
    buffer_.resize(kIoBuffer);
  }
  ~Writer() {
    if (file_ != nullptr) std::fclose(file_);
  }

  template <typename T>
  void put(T value) {
    put_raw(&value, sizeof(T));
  }
  void put_raw(const void* data, std::size_t bytes) {
    if (bytes > buffer_.size() - used_) {
      flush();
      if (bytes >= buffer_.size()) {
        if (std::fwrite(data, 1, bytes, file_) != bytes) {
          fail("short write", path_);
        }
        total_ += bytes;
        return;
      }
    }
    std::memcpy(buffer_.data() + used_, data, bytes);
    used_ += bytes;
    total_ += bytes;
  }

  /// Flushes and closes; returns the bytes written.
  std::uint64_t finish() {
    flush();
    if (std::fclose(file_) != 0) {
      file_ = nullptr;
      fail("short write", path_);
    }
    file_ = nullptr;
    return total_;
  }

 private:
  void flush() {
    if (used_ == 0) return;
    if (std::fwrite(buffer_.data(), 1, used_, file_) != used_) {
      fail("short write", path_);
    }
    used_ = 0;
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<unsigned char> buffer_;
  std::size_t used_ = 0;
  std::uint64_t total_ = 0;
};

class Reader {
 public:
  explicit Reader(const std::string& path) : path_(path) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) fail("cannot open spill file", path_);
    std::setvbuf(file_, nullptr, _IOFBF, kIoBuffer);
  }
  ~Reader() {
    if (file_ != nullptr) std::fclose(file_);
  }

  template <typename T>
  T get() {
    T value;
    get_raw(&value, sizeof(T));
    return value;
  }
  void get_raw(void* data, std::size_t bytes) {
    if (std::fread(data, 1, bytes, file_) != bytes) {
      fail("short read", path_);
    }
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

std::uint64_t sat_mul64(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  if (a == 0 || b == 0) return 0;
  return a > kMax / b ? kMax : a * b;
}

}  // namespace

void set_default_spill(const SpillOptions& options) {
  const std::lock_guard<std::mutex> lock(g_default_spill_mutex);
  g_default_spill = options;
}

SpillOptions default_spill() {
  const std::lock_guard<std::mutex> lock(g_default_spill_mutex);
  return g_default_spill;
}

std::uint64_t spill_budget_mb_to_bytes(std::uint64_t mb) {
  return sat_mul64(mb, std::uint64_t{1} << 20);
}

SpillOptions resolve_spill(const SpillOptions& options) {
  SpillOptions resolved = options;
  const SpillOptions fallback = default_spill();
  if (resolved.budget_bytes == 0) resolved.budget_bytes = fallback.budget_bytes;
  // The dir falls back independently: a job that pins only its budget
  // (e.g. a scenario builder) still honors a CLI-set --spill-dir.
  if (resolved.dir.empty()) resolved.dir = fallback.dir;
  return resolved;
}

/// Private (de)serializer; as a member of FrontierSpill it shares the
/// WordSeqIndex friendship needed to rebuild tables without their probe
/// arrays.
struct FrontierSpill::Io {
  static void save_table(Writer& writer, const WordSeqIndex& table) {
    writer.put<std::uint64_t>(table.pool_.size());
    writer.put_raw(table.pool_.data(),
                   table.pool_.size() * sizeof(std::uint32_t));
    writer.put<std::uint64_t>(table.entries_.size());
    for (const WordSeqIndex::Entry& entry : table.entries_) {
      writer.put<std::uint64_t>(entry.offset);
      writer.put<std::uint32_t>(entry.count);
    }
  }

  static void load_table(Reader& reader, WordSeqIndex& table) {
    table.pool_.resize(reader.get<std::uint64_t>());
    reader.get_raw(table.pool_.data(),
                   table.pool_.size() * sizeof(std::uint32_t));
    table.entries_.resize(reader.get<std::uint64_t>());
    for (WordSeqIndex::Entry& entry : table.entries_) {
      entry.offset = reader.get<std::uint64_t>();
      entry.count = reader.get<std::uint32_t>();
      entry.hash = 0;
    }
    // No probe table: like after append_new, the restored table serves
    // words_of/count_of/size only, which is all merge()/commit() use.
    table.appended_ = true;
  }

  static void save_chunk(Writer& writer, const PendingFrontier& chunk) {
    writer.put<std::uint64_t>(kSpillMagic);
    writer.put<std::uint64_t>(chunk.states.size());
    const std::uint32_t n_inputs =
        chunk.states.empty()
            ? 0
            : static_cast<std::uint32_t>(chunk.states.front().inputs.size());
    const std::uint32_t n_reach =
        chunk.states.empty()
            ? 0
            : static_cast<std::uint32_t>(chunk.states.front().reach.size());
    writer.put<std::uint32_t>(n_inputs);
    writer.put<std::uint32_t>(n_reach);
    for (const PendingState& state : chunk.states) {
      assert(state.inputs.size() == n_inputs && state.reach.size() == n_reach);
      writer.put_raw(state.inputs.data(), n_inputs * sizeof(Value));
      writer.put_raw(state.reach.data(), n_reach * sizeof(NodeMask));
      writer.put<AdvState>(state.adv_state);
      writer.put<std::int32_t>(state.parent);
      writer.put<std::int32_t>(state.letter);
    }
    save_table(writer, chunk.views);
    writer.put<std::uint64_t>(chunk.state_views.size());
    writer.put_raw(chunk.state_views.data(),
                   chunk.state_views.size() * sizeof(std::uint32_t));
    writer.put<std::uint64_t>(chunk.children.size());
    for (const std::vector<int>& kids : chunk.children) {
      writer.put<std::uint64_t>(kids.size());
      writer.put_raw(kids.data(), kids.size() * sizeof(int));
    }
  }

  static void load_chunk(Reader& reader, PendingFrontier& chunk) {
    if (reader.get<std::uint64_t>() != kSpillMagic) {
      fail("bad magic", chunk.spilled->path());
    }
    chunk.states.resize(reader.get<std::uint64_t>());
    const auto n_inputs = reader.get<std::uint32_t>();
    const auto n_reach = reader.get<std::uint32_t>();
    for (PendingState& state : chunk.states) {
      state.inputs.resize(n_inputs);
      reader.get_raw(state.inputs.data(), n_inputs * sizeof(Value));
      state.reach.resize(n_reach);
      reader.get_raw(state.reach.data(), n_reach * sizeof(NodeMask));
      state.adv_state = reader.get<AdvState>();
      state.parent = reader.get<std::int32_t>();
      state.letter = reader.get<std::int32_t>();
    }
    load_table(reader, chunk.views);
    chunk.state_views.resize(reader.get<std::uint64_t>());
    reader.get_raw(chunk.state_views.data(),
                   chunk.state_views.size() * sizeof(std::uint32_t));
    chunk.children.resize(reader.get<std::uint64_t>());
    for (std::vector<int>& kids : chunk.children) {
      kids.resize(reader.get<std::uint64_t>());
      reader.get_raw(kids.data(), kids.size() * sizeof(int));
    }
  }
};

SpillTicket::~SpillTicket() {
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best effort; the dir is removed too
}

FrontierSpill::FrontierSpill(const SpillOptions& options)
    : options_(options) {
  assert(options_.budget_bytes > 0 && "construct only when enabled");
  const std::filesystem::path base =
      options_.dir.empty() ? std::filesystem::temp_directory_path()
                           : std::filesystem::path(options_.dir);
  const std::filesystem::path sub =
      base / ("topocon-spill-" + std::to_string(::getpid()) + "-" +
              std::to_string(g_spill_dir_seq.fetch_add(
                  1, std::memory_order_relaxed)));
  std::error_code ec;
  std::filesystem::create_directories(sub, ec);
  if (ec) fail("cannot create spill directory", sub.string());
  dir_ = sub.string();
}

FrontierSpill::~FrontierSpill() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

bool FrontierSpill::should_spill(const PendingFrontier& chunk,
                                 std::size_t level_chunks) const {
  if (chunk.spilled != nullptr || chunk.overflow) return false;
  const std::uint64_t bytes = chunk.approx_bytes();
  return sat_mul64(bytes, level_chunks) > options_.budget_bytes;
}

void FrontierSpill::spill(PendingFrontier& chunk) {
  assert(chunk.spilled == nullptr);
  const std::string path =
      dir_ + "/chunk-" +
      std::to_string(next_file_.fetch_add(1, std::memory_order_relaxed)) +
      ".bin";
  Writer writer(path);
  Io::save_chunk(writer, chunk);
  const std::uint64_t written = writer.finish();
  // Release the payload; the shell (chunk bounds, overflow, stats) stays.
  chunk.states = {};
  chunk.views = WordSeqIndex{};
  chunk.state_views = {};
  chunk.children = {};
  chunk.spilled = std::make_shared<SpillTicket>(path, written, this);
  staged_chunks_.fetch_add(1, std::memory_order_relaxed);
  staged_written_.fetch_add(written, std::memory_order_relaxed);
}

bool FrontierSpill::maybe_spill(PendingFrontier& chunk,
                                std::size_t level_chunks) {
  if (!should_spill(chunk, level_chunks)) return false;
  spill(chunk);
  return true;
}

void FrontierSpill::commit_level() {
  const std::uint64_t chunks =
      staged_chunks_.exchange(0, std::memory_order_relaxed);
  committed_.chunks_spilled += chunks;
  committed_.bytes_written +=
      staged_written_.exchange(0, std::memory_order_relaxed);
  committed_.bytes_replayed +=
      staged_replayed_.exchange(0, std::memory_order_relaxed);
  if (chunks > 0) ++committed_.replay_passes;
}

void FrontierSpill::discard_staged() {
  staged_chunks_.store(0, std::memory_order_relaxed);
  staged_written_.store(0, std::memory_order_relaxed);
  staged_replayed_.store(0, std::memory_order_relaxed);
}

FrontierSpill::Stats FrontierSpill::stats() const { return committed_; }

void restore_spilled(PendingFrontier& chunk) {
  assert(chunk.spilled != nullptr);
  {
    Reader reader(chunk.spilled->path());
    FrontierSpill::Io::load_chunk(reader, chunk);
  }
  FrontierSpill* owner = chunk.spilled->owner();
  if (owner != nullptr) {
    owner->staged_replayed_.fetch_add(chunk.spilled->bytes(),
                                      std::memory_order_relaxed);
  }
  chunk.spilled.reset();  // consumed: unlinks the file
}

}  // namespace topocon
