// Unit tests for the page-backed columns (memory/page_column.hpp): growth
// across a remap keeps the contents, a pool reuses what was given back,
// a pool unmaps everything when it dies, and moving hands a mapping over.
// In the AddressSanitizer build, a read past size() is reported even
// though the page behind it is mapped.
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "memory/page_column.hpp"

namespace topocon {
namespace {

TEST(PageColumn, GrowthAcrossARemapKeepsTheContents) {
  PagePool pool;
  for (PagePool* owner : {&pool, static_cast<PagePool*>(nullptr)}) {
    PageColumn<std::uint32_t> column(owner);
    // From one page to over a megabyte: many remaps, some of which the
    // kernel may serve by moving the mapping.
    for (std::uint32_t i = 0; i < 300000; ++i) column.push_back(i * 7u);
    EXPECT_GE(column.mapped_bytes(), 300000u * sizeof(std::uint32_t));
    ASSERT_EQ(column.size(), 300000u);
    for (std::uint32_t i = 0; i < column.size(); ++i) {
      ASSERT_EQ(column[i], i * 7u) << i;
    }
    const std::vector<std::uint32_t> tail(5000, 3);
    column.append(tail.data(), tail.size());
    EXPECT_EQ(column[299999], 299999u * 7u);
    EXPECT_EQ(column[304999], 3u);
  }
}

TEST(PageColumn, ShrinkAndReserveKeepTheContents) {
  PagePool pool;
  PageColumn<std::uint64_t> column(&pool);
  column.reserve(1 << 20);
  const std::size_t reserved = column.mapped_bytes();
  for (std::uint64_t i = 0; i < 1000; ++i) column.push_back(i);
  column.shrink_to_fit();
  EXPECT_LT(column.mapped_bytes(), reserved);
  EXPECT_GE(column.capacity(), 1000u);
  // The cut tail went back to the pool, not to the system.
  EXPECT_EQ(pool.mapped_bytes(), reserved);
  for (std::uint64_t i = 0; i < 1000; ++i) ASSERT_EQ(column[i], i);
}

TEST(PageColumn, AReleasedMappingIsReusedByTheNextAcquireThatFits) {
  PagePool pool;
  const PageSpan first = pool.acquire(1 << 20);
  ASSERT_NE(first.base, nullptr);
  EXPECT_EQ(pool.mapped_bytes(), first.bytes);
  pool.release(first);
  // A smaller request is cut from the cached mapping: no new pages.
  const PageSpan second = pool.acquire(1 << 19);
  EXPECT_EQ(second.base, first.base);
  EXPECT_EQ(second.bytes, std::size_t{1} << 19);
  EXPECT_EQ(pool.mapped_bytes(), first.bytes);
  // The rest of the cached mapping serves the next request that fits.
  const PageSpan third = pool.acquire(1 << 19);
  EXPECT_EQ(static_cast<char*>(third.base),
            static_cast<char*>(first.base) + (1 << 19));
  EXPECT_EQ(pool.mapped_bytes(), first.bytes);
  // A column takes the same path.
  pool.release(second);
  PageColumn<int> column(&pool);
  column.reserve(1000);
  EXPECT_EQ(static_cast<void*>(column.data()), second.base);
  EXPECT_EQ(pool.mapped_bytes(), first.bytes);
  pool.release(third);
}

TEST(PageColumn, ACachedMappingTooSmallIsGrownNotDuplicated) {
  PagePool pool;
  const PageSpan small = pool.acquire(4096);
  pool.release(small);
  const PageSpan big = pool.acquire(1 << 20);
  EXPECT_EQ(big.bytes, std::size_t{1} << 20);
  EXPECT_EQ(pool.mapped_bytes(), big.bytes);
  pool.release(big);
}

TEST(PageColumn, ThePoolsMappedBytesAreZeroAfterItDies) {
  const std::size_t before = PagePool::process_mapped_bytes();
  {
    PagePool pool;
    PageColumn<std::uint32_t> kept(&pool);
    {
      PageColumn<std::uint32_t> dropped(&pool);
      for (std::uint32_t i = 0; i < 100000; ++i) dropped.push_back(i);
    }
    for (std::uint32_t i = 0; i < 50000; ++i) kept.push_back(i);
    EXPECT_GT(pool.mapped_bytes(), 0u);
    EXPECT_EQ(PagePool::process_mapped_bytes(), before + pool.mapped_bytes());
    kept.reset();
    EXPECT_GT(pool.mapped_bytes(), 0u);  // cached, not unmapped
  }
  EXPECT_EQ(PagePool::process_mapped_bytes(), before);
}

TEST(PageColumn, ADrainingPoolUnmapsWhatIsGivenBack) {
  PagePool pool;
  PageColumn<std::uint32_t> column(&pool);
  column.reserve(1 << 18);
  pool.release(pool.acquire(1 << 20));
  const std::size_t held = column.mapped_bytes();
  pool.drain();
  EXPECT_EQ(pool.mapped_bytes(), held);
  column.reset();
  EXPECT_EQ(pool.mapped_bytes(), 0u);
}

TEST(PageColumn, AMovedFromColumnOwnsNothing) {
  PagePool pool;
  PageColumn<std::uint32_t> from(&pool);
  for (std::uint32_t i = 0; i < 5000; ++i) from.push_back(i);
  const std::uint32_t* data = from.data();
  const std::size_t mapped = pool.mapped_bytes();

  PageColumn<std::uint32_t> to(std::move(from));
  EXPECT_EQ(from.size(), 0u);
  EXPECT_EQ(from.mapped_bytes(), 0u);
  EXPECT_EQ(from.data(), nullptr);
  EXPECT_EQ(to.data(), data);
  EXPECT_EQ(to.size(), 5000u);

  PageColumn<std::uint32_t> assigned(&pool);
  assigned.push_back(1);
  assigned = std::move(to);
  EXPECT_EQ(to.size(), 0u);
  EXPECT_EQ(to.mapped_bytes(), 0u);
  EXPECT_EQ(assigned.data(), data);
  EXPECT_EQ(assigned[4999], 4999u);
  // Moving mapped nothing; the overwritten column's mapping went back to
  // the pool.
  EXPECT_GE(pool.mapped_bytes(), mapped);
  // A moved-from column is usable again.
  from.push_back(7);
  EXPECT_EQ(from[0], 7u);
}

TEST(PageColumn, EqualityComparesTheValues) {
  PageColumn<int> a;
  PageColumn<int> b;
  EXPECT_EQ(a, b);
  a.assign(3, 5);
  b.push_back(5);
  EXPECT_FALSE(a == b);
  b.append(a.data(), 2);
  EXPECT_EQ(a, b);
}

TEST(PageColumn, PageAllocatorBacksAVector) {
  PagePool pool;
  {
    std::vector<int, PageAllocator<int>> values{PageAllocator<int>(&pool)};
    for (int i = 0; i < 10000; ++i) values.push_back(i);
    EXPECT_EQ(values[9999], 9999);
    EXPECT_GT(pool.mapped_bytes(), 0u);
  }
  const std::size_t cached = pool.mapped_bytes();
  pool.drain();
  EXPECT_GT(cached, 0u);
  EXPECT_EQ(pool.mapped_bytes(), 0u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PageColumnDeathTest, ReadingOnePastTheSizeIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PagePool pool;
  PageColumn<std::uint64_t> column(&pool);
  column.reserve(1024);
  for (std::uint64_t i = 0; i < 10; ++i) column.push_back(i);
  EXPECT_DEATH(
      {
        const volatile std::uint64_t past = column.data()[column.size()];
        (void)past;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace topocon
