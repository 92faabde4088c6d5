/** @file Unit tests for the generic SRAM cache. */

#include <gtest/gtest.h>

#include "cache/sram_cache.hpp"

using namespace accord;
using namespace accord::cache;

namespace
{

SramCacheParams
tinyCache(unsigned ways = 2, std::uint64_t capacity = 4096)
{
    SramCacheParams p;
    p.name = "test";
    p.capacityBytes = capacity;
    p.ways = ways;
    p.replacement = "lru";
    return p;
}

} // namespace

TEST(SramCache, MissThenHit)
{
    SramCache cache(tinyCache());
    EXPECT_FALSE(cache.access(100, AccessType::Read).hit);
    EXPECT_TRUE(cache.access(100, AccessType::Read).hit);
    EXPECT_DOUBLE_EQ(cache.hitRatio().rate(), 0.5);
}

TEST(SramCache, WriteMarksDirtyAndEvictsDirty)
{
    SramCache cache(tinyCache(1, 64));     // 1 set, 1 way
    cache.access(5, AccessType::Write);
    const auto r = cache.access(5 + 1, AccessType::Read);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedLine, 5u);
}

TEST(SramCache, CleanEvictionIsNotDirty)
{
    SramCache cache(tinyCache(1, 64));
    cache.access(5, AccessType::Read);
    const auto r = cache.access(6, AccessType::Read);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_FALSE(r.evictedDirty);
}

TEST(SramCache, WritebackTypeAllocatesDirty)
{
    SramCache cache(tinyCache());
    cache.access(9, AccessType::Writeback);
    auto dirty = cache.invalidate(9);
    ASSERT_TRUE(dirty.has_value());
    EXPECT_TRUE(*dirty);
}

TEST(SramCache, ProbeDoesNotAllocate)
{
    SramCache cache(tinyCache());
    EXPECT_FALSE(cache.probe(77));
    EXPECT_FALSE(cache.probe(77));
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(SramCache, InvalidateAbsentLine)
{
    SramCache cache(tinyCache());
    EXPECT_FALSE(cache.invalidate(123).has_value());
}

TEST(SramCache, MetadataRoundTrip)
{
    SramCache cache(tinyCache());
    cache.access(42, AccessType::Read);
    cache.setMetadata(42, 0xBEEF);
    EXPECT_EQ(cache.metadata(42), 0xBEEF);
}

TEST(SramCache, MetadataClearedOnRefill)
{
    SramCache cache(tinyCache(1, 64));
    cache.access(1, AccessType::Read);
    cache.setMetadata(1, 7);
    cache.access(2, AccessType::Read);  // evicts line 1
    cache.access(1, AccessType::Read);  // refills line 1
    EXPECT_EQ(cache.metadata(1), 0u);
}

TEST(SramCache, EvictedMetadataReported)
{
    SramCache cache(tinyCache(1, 64));
    cache.access(1, AccessType::Write);
    cache.setMetadata(1, 0x55);
    const auto r = cache.access(2, AccessType::Read);
    EXPECT_EQ(r.evictedMeta, 0x55);
}

TEST(SramCache, LruOrderWithinSet)
{
    SramCache cache(tinyCache(2, 128));    // 1 set, 2 ways
    cache.access(10, AccessType::Read);
    cache.access(11, AccessType::Read);
    cache.access(10, AccessType::Read);    // 11 is LRU now
    const auto r = cache.access(12, AccessType::Read);
    EXPECT_EQ(r.evictedLine, 11u);
}

TEST(SramCache, DistinctSetsDoNotConflict)
{
    SramCache cache(tinyCache(1, 128));    // 2 sets, 1 way
    cache.access(0, AccessType::Read);     // set 0
    cache.access(1, AccessType::Read);     // set 1
    EXPECT_TRUE(cache.probe(0));
    EXPECT_TRUE(cache.probe(1));
}

TEST(SramCacheDeath, MetadataOnAbsentLinePanics)
{
    SramCache cache(tinyCache());
    EXPECT_DEATH(cache.metadata(999), "absent");
}

TEST(SramCacheDeath, NonPow2SetsFatal)
{
    // 12288 bytes direct-mapped -> 192 sets, not a power of two.
    const SramCacheParams p = tinyCache(1, 12288);
    EXPECT_EXIT(SramCache cache(p), ::testing::ExitedWithCode(1),
                "power of two");
}

/** Property sweep over geometries: capacity is never exceeded and a
 *  working set smaller than one set's ways always fits. */
struct Geometry
{
    // Both fields are 64-bit so the struct has no padding: gtest prints a
    // parameter without a PrintTo overload as its raw bytes, and that string
    // names the discovered ctest case, so uninitialised padding would give
    // the cases a different name on every build.
    std::uint64_t ways;
    std::uint64_t capacity;
};

class SramGeometry : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(SramGeometry, OccupancyNeverExceedsCapacity)
{
    const auto g = GetParam();
    SramCache cache(tinyCache(static_cast<unsigned>(g.ways), g.capacity));
    for (LineAddr line = 0; line < 10000; ++line)
        cache.access(line * 7 + 3, AccessType::Read);
    EXPECT_LE(cache.validLines(), g.capacity / lineSize);
}

TEST_P(SramGeometry, ResidentSetFitsWithinWays)
{
    const auto g = GetParam();
    SramCache cache(tinyCache(static_cast<unsigned>(g.ways), g.capacity));
    // Touch `ways` lines of one set repeatedly: all must stick.
    const std::uint64_t sets = cache.numSets();
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t i = 0; i < g.ways; ++i)
            cache.access(i * sets, AccessType::Read);
    }
    for (std::uint64_t i = 0; i < g.ways; ++i)
        EXPECT_TRUE(cache.probe(i * sets));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SramGeometry,
    ::testing::Values(Geometry{1, 1024}, Geometry{2, 4096},
                      Geometry{4, 8192}, Geometry{8, 32768},
                      Geometry{16, 1 << 20}));
