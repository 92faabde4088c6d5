/** @file Unit tests for the fixed-block pool. */

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <vector>

#include "common/object_pool.hpp"

using namespace accord;

TEST(BlockPool, FixesBlockSizeOnFirstTake)
{
    BlockPool pool;
    EXPECT_EQ(pool.blockSize(), 0u);
    void *block = pool.take(40);
    EXPECT_GE(pool.blockSize(), 40u);
    EXPECT_EQ(pool.blockSize() % alignof(std::max_align_t), 0u);
    pool.give(block);
}

TEST(BlockPool, RecyclesFreedBlocks)
{
    BlockPool pool(4);
    void *first = pool.take(64);
    pool.give(first);
    // LIFO freelist: the next take pops the block just given back.
    EXPECT_EQ(pool.take(64), first);
    pool.give(first);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(BlockPool, GrowsPastOneChunk)
{
    constexpr std::size_t per_chunk = 4;
    BlockPool pool(per_chunk);
    // accord-lint: allow(pointer-key) distinctness check only;
    // iteration order never reaches output
    std::set<void *> blocks;
    for (int i = 0; i < 3 * static_cast<int>(per_chunk); ++i)
        blocks.insert(pool.take(32));
    EXPECT_EQ(blocks.size(), 3 * per_chunk); // all distinct
    EXPECT_EQ(pool.live(), 3 * per_chunk);
    for (void *block : blocks)
        pool.give(block);
    EXPECT_EQ(pool.live(), 0u);
}
