// Unit tests for the chunked frontier engine (core/frontier.hpp): the
// engine must reproduce the single-scan reference expansion
// (expand_frontier) state for state at EVERY chunk size -- including the
// interner's id assignment order -- plus partition determinism, budget
// early-abort semantics, and the WordSeqIndex dedup table.
#include <cstdint>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "core/frontier.hpp"

namespace topocon {
namespace {

/// Expands `depth` levels with the reference single-scan expansion.
std::vector<std::vector<PrefixState>> reference_levels(
    const MessageAdversary& adversary, const AnalysisOptions& options,
    ViewInterner& interner, int num_roots) {
  std::vector<std::vector<PrefixState>> levels;
  levels.push_back(
      initial_frontier(adversary, options, interner, 0, num_roots));
  for (int s = 1; s <= options.depth; ++s) {
    FrontierLevel level =
        expand_frontier(adversary, interner, levels.back(),
                        options.max_states, options.keep_levels);
    if (level.overflow) break;
    levels.push_back(std::move(level.states));
  }
  return levels;
}

/// One level the way the level driver (core/shard_set.hpp) runs it on
/// one lane, without a budget: partition into chunks of at most
/// `chunk_states` parents (0 = one chunk), expand, merge, and commit.
/// Returns false, committing nothing, if the merged level overflows
/// max_states.
bool commit_next_level(FrontierEngine& engine, std::size_t chunk_states = 0) {
  std::vector<PendingFrontier> expansions;
  for (const FrontierChunk& chunk : engine.partition(chunk_states)) {
    expansions.push_back(engine.expand(chunk));
  }
  PendingFrontier level = engine.merge(std::move(expansions));
  if (level.overflow) return false;
  engine.commit(std::move(level));
  return true;
}

void expect_states_equal(const std::vector<PrefixState>& a,
                         const std::vector<PrefixState>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].inputs, b[i].inputs) << what << " state " << i;
    // Same interner insertion order => identical view ids, not merely
    // isomorphic ones. This is the strongest form of the determinism
    // contract and what makes absorb() merges bit-stable.
    EXPECT_EQ(a[i].views, b[i].views) << what << " state " << i;
    EXPECT_EQ(a[i].reach, b[i].reach) << what << " state " << i;
    EXPECT_EQ(a[i].adv_state, b[i].adv_state) << what << " state " << i;
  }
}

TEST(WordSeqIndex, DedupsAndRetainsKeys) {
  WordSeqIndex index;
  const std::uint32_t a[] = {1, 2, 3};
  const std::uint32_t b[] = {1, 2, 4};
  const std::uint32_t c[] = {1, 2};
  bool inserted = false;
  EXPECT_EQ(index.intern(a, 3, &inserted), 0);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(index.intern(b, 3, &inserted), 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(index.intern(c, 2, &inserted), 2);  // prefix, distinct length
  EXPECT_TRUE(inserted);
  EXPECT_EQ(index.intern(a, 3, &inserted), 0);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.count_of(2), 2u);
  EXPECT_EQ(index.words_of(1)[2], 4u);
}

TEST(WordSeqIndex, SurvivesGrowth) {
  WordSeqIndex index;
  bool inserted = false;
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    const std::uint32_t key[] = {i, i * 7u + 1u};
    EXPECT_EQ(index.intern(key, 2, &inserted), static_cast<int>(i));
    EXPECT_TRUE(inserted);
  }
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    const std::uint32_t key[] = {i, i * 7u + 1u};
    EXPECT_EQ(index.intern(key, 2, &inserted), static_cast<int>(i));
    EXPECT_FALSE(inserted);
  }
}

/// The table's FNV-1a over key words, replicated so tests can construct
/// probe collisions deliberately.
std::size_t fnv1a(const std::uint32_t* words, std::size_t count) {
  std::size_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= words[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(WordSeqIndex, ProbeCollisionsResolveByFullKeyComparison) {
  // Single-word keys that land in the same slot of the initial 64-slot
  // table must linear-probe to distinct entries, and each must still be
  // found afterwards (the probe walks past foreign entries).
  std::vector<std::uint32_t> colliding;
  const std::size_t target = fnv1a(&colliding.emplace_back(0), 1) & 63;
  for (std::uint32_t w = 1; colliding.size() < 5; ++w) {
    if ((fnv1a(&w, 1) & 63) == target) colliding.push_back(w);
  }
  WordSeqIndex index;
  bool inserted = false;
  for (std::size_t i = 0; i < colliding.size(); ++i) {
    EXPECT_EQ(index.intern(&colliding[i], 1, &inserted),
              static_cast<int>(i));
    EXPECT_TRUE(inserted);
  }
  for (std::size_t i = 0; i < colliding.size(); ++i) {
    EXPECT_EQ(index.intern(&colliding[i], 1, &inserted),
              static_cast<int>(i));
    EXPECT_FALSE(inserted);
    EXPECT_EQ(index.words_of(static_cast<int>(i))[0], colliding[i]);
  }
}

TEST(WordSeqIndex, GrowthBoundaryKeepsIdsStable) {
  // The 64-slot table rehashes on the insert that would push the load
  // past 7/10 (the 45th entry). Ids and lookups must be unaffected on
  // both sides of the boundary.
  WordSeqIndex index;
  bool inserted = false;
  for (std::uint32_t i = 0; i < 44; ++i) {
    ASSERT_EQ(index.intern(&i, 1, &inserted), static_cast<int>(i));
  }
  for (std::uint32_t i = 44; i < 50; ++i) {  // crosses the rehash
    ASSERT_EQ(index.intern(&i, 1, &inserted), static_cast<int>(i));
    ASSERT_TRUE(inserted);
  }
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(index.intern(&i, 1, &inserted), static_cast<int>(i));
    EXPECT_FALSE(inserted);
  }
}

TEST(WordSeqIndex, DuplicateInsertsKeepOneEntry) {
  WordSeqIndex index;
  const std::uint32_t key[] = {7, 8, 9};
  bool inserted = false;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(index.intern(key, 3, &inserted), 0);
    EXPECT_EQ(inserted, i == 0);
  }
  EXPECT_EQ(index.size(), 1u);
}

TEST(WordSeqIndex, AppendNewExtendsTheEntryListInOrder) {
  // append_new is the dense expansion path's bulk append: the caller
  // already proved the key fresh, so the entry bypasses the probe table
  // but must round-trip through words_of/count_of like any other.
  WordSeqIndex index;
  bool inserted = false;
  const std::uint32_t first[] = {1, 2};
  ASSERT_EQ(index.intern(first, 2, &inserted), 0);
  const std::uint32_t second[] = {3, 4, 5};
  EXPECT_EQ(index.append_new(second, 3), 1);
  const std::uint32_t third[] = {6};
  EXPECT_EQ(index.append_new(third, 1), 2);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.count_of(1), 3u);
  EXPECT_EQ(index.words_of(1)[2], 5u);
  EXPECT_EQ(index.count_of(2), 1u);
  EXPECT_EQ(index.words_of(2)[0], 6u);
  EXPECT_EQ(index.words_of(0)[0], 1u);  // pre-append entries untouched
}

TEST(FrontierEngine, MatchesReferenceExpansionLevelByLevel) {
  for (const unsigned mask : {0b011u, 0b111u}) {
    const auto ma = make_lossy_link(mask);
    AnalysisOptions options;
    options.depth = 4;
    options.keep_levels = false;
    ViewInterner reference_interner;
    const std::vector<std::vector<PrefixState>> reference =
        reference_levels(*ma, options, reference_interner, 4);

    ViewInterner interner;
    FrontierEngine engine(*ma, options, interner, 0, 4);
    expect_states_equal(reference[0], engine.frontier(), "level 0");
    for (std::size_t s = 1; s < reference.size(); ++s) {
      ASSERT_TRUE(commit_next_level(engine));
      expect_states_equal(reference[s], engine.frontier(), "level");
    }
    // Dedup-before-intern must produce the same interner content in the
    // same order as the reference's intern-per-emission scan.
    EXPECT_EQ(interner.size(), reference_interner.size());
  }
}

TEST(FrontierEngine, EveryChunkSizeYieldsIdenticalLevelsAndIds) {
  const auto ma = make_omission_adversary(2, 1);
  AnalysisOptions options;
  options.depth = 3;
  options.keep_levels = true;
  ViewInterner base_interner;
  FrontierEngine base(*ma, options, base_interner, 0, 4);
  while (base.level() < options.depth) ASSERT_TRUE(commit_next_level(base));

  for (const std::size_t chunk_states :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    ViewInterner interner;
    FrontierEngine engine(*ma, options, interner, 0, 4);
    while (engine.level() < options.depth) {
      ASSERT_TRUE(commit_next_level(engine, chunk_states));
    }
    ASSERT_EQ(engine.levels().size(), base.levels().size());
    for (std::size_t s = 0; s < base.levels().size(); ++s) {
      expect_states_equal(base.levels()[s], engine.levels()[s], "level");
    }
    EXPECT_EQ(engine.first_parent(), base.first_parent());
    EXPECT_EQ(engine.children(), base.children());
    EXPECT_EQ(engine.level_sizes(), base.level_sizes());
    EXPECT_EQ(interner.size(), base_interner.size());
  }
}

TEST(FrontierEngine, PartitionIsDeterministicAndCoversTheFrontier) {
  const auto ma = make_omission_adversary(2, 1);
  AnalysisOptions options;
  options.depth = 2;
  ViewInterner interner;
  FrontierEngine engine(*ma, options, interner, 0, 4);
  ASSERT_TRUE(commit_next_level(engine));
  ASSERT_TRUE(commit_next_level(engine));
  const std::size_t size = engine.frontier().size();
  ASSERT_GT(size, 4u);

  const std::vector<FrontierChunk> whole = engine.partition(0);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].begin, 0u);
  EXPECT_EQ(whole[0].end, size);

  const std::vector<FrontierChunk> fine = engine.partition(3);
  EXPECT_EQ(fine.size(), (size + 2) / 3);
  std::size_t expected_begin = 0;
  for (const FrontierChunk& chunk : fine) {
    EXPECT_EQ(chunk.begin, expected_begin);
    EXPECT_LE(chunk.end - chunk.begin, 3u);
    expected_begin = chunk.end;
  }
  EXPECT_EQ(expected_begin, size);
}

TEST(FrontierEngine, ExpandIsReadOnlyAndChunksCompose) {
  // Expanding chunks out of order and merging in order must equal the
  // one-chunk expansion -- expand() never touches engine state.
  const auto ma = make_lossy_link(0b111);
  AnalysisOptions options;
  options.depth = 2;
  ViewInterner interner;
  FrontierEngine engine(*ma, options, interner, 0, 4);
  ASSERT_TRUE(commit_next_level(engine));

  const std::vector<FrontierChunk> chunks = engine.partition(2);
  ASSERT_GT(chunks.size(), 1u);
  std::vector<PendingFrontier> expansions(chunks.size());
  for (std::size_t c = chunks.size(); c-- > 0;) {  // reverse order
    expansions[c] = engine.expand(chunks[c]);
  }
  PendingFrontier merged = engine.merge(std::move(expansions));
  ASSERT_FALSE(merged.overflow);

  PendingFrontier whole = engine.expand(engine.partition(0).front());
  ASSERT_EQ(merged.states.size(), whole.states.size());
  for (std::size_t i = 0; i < whole.states.size(); ++i) {
    EXPECT_EQ(merged.states[i].parent, whole.states[i].parent) << i;
    EXPECT_EQ(merged.states[i].letter, whole.states[i].letter) << i;
    EXPECT_EQ(merged.states[i].adv_state, whole.states[i].adv_state) << i;
  }
}

TEST(FrontierEngine, BudgetAbortsDoomedLevels) {
  const auto ma = make_omission_adversary(3, 2);
  AnalysisOptions options;
  options.depth = 2;
  options.max_states = 1000;  // level 1 has 176 classes, level 2 has 3872
  ViewInterner interner;
  FrontierEngine engine(*ma, options, interner, 0, 8);
  ASSERT_TRUE(commit_next_level(engine));  // level 1 fits

  FrontierBudget budget(options.max_states);
  const std::vector<FrontierChunk> chunks = engine.partition(4);
  bool aborted = false;
  for (const FrontierChunk& chunk : chunks) {
    if (engine.expand(chunk, &budget).overflow) aborted = true;
  }
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(budget.exceeded());
  // The engine itself is untouched: the level was never committed.
  EXPECT_EQ(engine.level(), 1);
}

TEST(FrontierEngine, OverflowLeavesLastCompleteLevel) {
  const auto ma = make_lossy_link(0b111);
  AnalysisOptions options;
  options.depth = 6;
  options.max_states = 50;
  ViewInterner interner;
  FrontierEngine engine(*ma, options, interner, 0, 4);
  int completed = 0;
  while (engine.level() < options.depth && commit_next_level(engine, 1)) {
    ++completed;
  }
  EXPECT_LT(completed, options.depth) << "no level overflowed";
  EXPECT_EQ(engine.level(), completed);
  EXPECT_LE(engine.frontier().size(), options.max_states);
}

}  // namespace
}  // namespace topocon
