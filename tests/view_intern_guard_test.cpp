// Misuse guards of ViewInterner: the interner is single-threaded state
// (one instance per shard in the parallel engine); sharing one across
// concurrently mutating threads, or calling step() with malformed sender
// lists, must abort loudly instead of corrupting the hash-consing
// invariant id(V) == id(W) <=> V = W.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/shard_set.hpp"
#include "ptg/view_intern.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon {
namespace {

TEST(ViewInternerGuard, StepSenderCountMismatchDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ViewInterner interner;
  const ViewId a = interner.base(0, 0);
  // Mask has two senders but only one id is supplied.
  EXPECT_DEATH(interner.step(1, 0b11, {a}), "sender count");
}

TEST(ViewInternerGuard, CrossThreadMutationWithoutAttachDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ViewInterner interner;
        interner.base(0, 0);  // binds the interner to this thread
        std::thread other([&interner] { interner.base(1, 0); });
        other.join();
      },
      "second thread");
}

TEST(ViewInternerGuard, AttachAllowsSequentialHandOff) {
  ViewInterner interner;
  const ViewId before = interner.base(0, 0);
  ViewId after = -1;
  std::thread other([&interner, &after] {
    interner.attach_to_current_thread();
    after = interner.base(0, 0);
  });
  other.join();
  EXPECT_EQ(before, after);
  // Hand the interner back to this thread, too.
  interner.attach_to_current_thread();
  EXPECT_EQ(interner.base(0, 0), before);
}

TEST(ViewInternerGuard, FreshInternerBindsToFirstMutatingThread) {
  // Creating on one thread and mutating on another is fine as long as the
  // creator never mutated: ownership is claimed by the first mutation.
  ViewInterner interner;
  ViewId id = -1;
  std::thread worker([&interner, &id] { id = interner.base(2, 1); });
  worker.join();
  EXPECT_GE(id, 0);
}

// The parallel absorb mutates `into` from the lanes, but only after the
// calling thread has passed the ownership check: absorbing into an
// interner that another thread owns still dies.
TEST(ViewInternerGuard, AbsorbDepthIntoAnotherThreadsInternerDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ViewInterner shard;
        shard.base(0, 0);
        std::vector<ViewId> remap;
        ViewInterner into;
        std::thread other([&into] { into.base(1, 0); });
        other.join();
        absorb_depth(into, {AbsorbSource{&shard, &remap}}, 0);
      },
      "second thread");
}

// The lanes of a parallel absorb never take ownership: afterwards the
// calling thread mutates `into` without attach_to_current_thread().
TEST(ViewInternerGuard, ParallelAbsorbLeavesTheCallerOwner) {
  std::vector<ViewInterner> shards(4);
  for (std::size_t r = 0; r < shards.size(); ++r) {
    ViewVector views = shards[r].initial({0, static_cast<Value>(r % 2)});
    for (int round = 0; round < 3; ++round) {
      views = shards[r].advance(views, Digraph::complete(2));
    }
  }
  sweep::ThreadPool pool(4);
  for (const bool fresh : {true, false}) {
    ViewInterner into;
    if (!fresh) into.base(0, 7);  // owned by this thread before the absorb
    std::vector<std::vector<ViewId>> remaps(shards.size());
    std::vector<AbsorbSource> sources;
    for (std::size_t r = 0; r < shards.size(); ++r) {
      sources.push_back({&shards[r], &remaps[r]});
    }
    for (int depth = 0; depth <= 3; ++depth) {
      absorb_depth(into, sources, depth, pool.as_parallel_for());
    }
    const std::size_t size = into.size();
    const ViewId base = into.base(1, 9);
    EXPECT_EQ(static_cast<std::size_t>(base), size);
    EXPECT_EQ(into.step(1, 0b10, {base}), base + 1);
  }
}

#ifndef NDEBUG
TEST(ViewInternerGuard, UnsortedSenderIdsDieInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ViewInterner interner;
  const ViewId p0 = interner.base(0, 0);
  const ViewId p1 = interner.base(1, 0);
  // Senders swapped: process order of {p1, p0} does not match mask 0b11.
  EXPECT_DEATH(interner.step(1, 0b11, {p1, p0}), "process");
}

TEST(ViewInternerGuard, MixedDepthSendersDieInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ViewInterner interner;
  const ViewId p0 = interner.base(0, 0);
  const ViewId p1 = interner.base(1, 0);
  const ViewId deep0 = interner.step(0, 0b01, {p0});
  EXPECT_DEATH(interner.step(1, 0b11, {deep0, p1}), "depth");
}
#endif

}  // namespace
}  // namespace topocon
