/** @file Unit tests for the small-buffer callback type. */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>

#include "common/event_queue.hpp"
#include "common/inline_callback.hpp"
#include "dram/mem_op.hpp"
#include "dramcache/controller.hpp"

using namespace accord;

namespace
{

using ReadDone = dramcache::DramCacheController::ReadDone;

/** Counts its destructions; moved-from copies do not count. */
struct Tally
{
    int *destroyed;
    bool owner = true;

    explicit Tally(int *counter) : destroyed(counter) {}

    Tally(Tally &&other) noexcept
        : destroyed(other.destroyed), owner(other.owner)
    {
        other.owner = false;
    }

    Tally(const Tally &) = delete;
    Tally &operator=(const Tally &) = delete;
    Tally &operator=(Tally &&) = delete;

    ~Tally()
    {
        if (owner)
            ++*destroyed;
    }
};

} // namespace

TEST(InlineCallback, ForwardsMemCallbackArgument)
{
    Cycle got = 0;
    dram::MemCallback cb = [&got](Cycle when) { got = when; };
    ASSERT_TRUE(cb);
    cb(1234);
    EXPECT_EQ(got, 1234u);
}

TEST(InlineCallback, ForwardsReadDoneArguments)
{
    bool hit = false;
    Cycle when = 0;
    ReadDone done = [&hit, &when](bool was_hit, Cycle at) {
        hit = was_hit;
        when = at;
    };
    done(true, 77);
    EXPECT_TRUE(hit);
    EXPECT_EQ(when, 77u);
    done(false, 78);
    EXPECT_FALSE(hit);
    EXPECT_EQ(when, 78u);
}

TEST(InlineCallback, NullptrAndBracesAreEmpty)
{
    dram::MemCallback from_null = nullptr;
    dram::MemCallback from_braces = {};
    dram::MemCallback defaulted;
    ReadDone done_null = nullptr;
    EXPECT_FALSE(from_null);
    EXPECT_FALSE(from_braces);
    EXPECT_FALSE(defaulted);
    EXPECT_FALSE(done_null);

    dram::MemCallback set = [](Cycle) {};
    ASSERT_TRUE(set);
    set = nullptr;
    EXPECT_FALSE(set);
}

// The timed path's continuations fit inline; a capture over the
// buffer spills to the heap and is still destroyed exactly once.
TEST(InlineCallback, OversizedCaptureSpillsAndDiesOnce)
{
    int destroyed = 0;
    Cycle seen = 0;
    {
        std::array<std::uint64_t, 4> pad{1, 2, 3, 4};
        auto big = [tally = Tally(&destroyed), pad, &seen](Cycle when) {
            seen = when + pad[3];
        };
        static_assert(!dram::MemCallback::fitsInline<decltype(big)>());
        dram::MemCallback cb = std::move(big);
        dram::MemCallback moved = std::move(cb);
        EXPECT_FALSE(cb);
        dram::MemCallback assigned;
        assigned = std::move(moved);
        assigned(10);
        EXPECT_EQ(seen, 14u);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(InlineCallback, InlineCaptureWithDestructorDiesOnce)
{
    int destroyed = 0;
    {
        auto small = [tally = Tally(&destroyed)](Cycle) {};
        static_assert(dram::MemCallback::fitsInline<decltype(small)>());
        dram::MemCallback cb = std::move(small);
        dram::MemCallback moved = std::move(cb);
        moved(0);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(InlineCallback, EmplaceReplacesAndMoveAssignTransfers)
{
    int destroyed = 0;
    int ran = 0;
    EventCallback cb;
    cb.emplace([tally = Tally(&destroyed), &ran] { ran += 1; });
    ASSERT_TRUE(cb);
    cb();
    EXPECT_EQ(ran, 1);

    // Emplacing over a held callable destroys the old one first.
    cb.emplace([&ran] { ran += 10; });
    EXPECT_EQ(destroyed, 1);
    cb();
    EXPECT_EQ(ran, 11);

    EventCallback other;
    other = std::move(cb);
    EXPECT_FALSE(cb);
    ASSERT_TRUE(other);
    other();
    EXPECT_EQ(ran, 21);

    // Emplacing another callback object moves it in.
    EventCallback third;
    third.emplace(std::move(other));
    EXPECT_FALSE(other);
    third();
    EXPECT_EQ(ran, 31);
}

// The shapes the timed path schedules fit their buffers.
TEST(InlineCallback, TimedPathCapturesFitInline)
{
    struct Controller;
    struct Txn;
    Controller *self = nullptr;
    Txn *txn = nullptr;
    const unsigned index = 0;
    auto probe = [self, txn, index](Cycle) {
        (void)self;
        (void)txn;
        (void)index;
    };
    auto done = [self](bool, Cycle) { (void)self; };
    static_assert(dram::MemCallback::fitsInline<decltype(probe)>());
    static_assert(ReadDone::fitsInline<decltype(done)>());
    static_assert(sizeof(dram::MemCallback) == 32);
    static_assert(sizeof(ReadDone) == 24);
    static_assert(sizeof(EventCallback) == 64);
    (void)probe;
    (void)done;
}
