/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/event_queue.hpp"

using namespace accord;

TEST(EventQueue, StartsEmptyAtZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&] { order.push_back(3); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Cycle fired_at = 0;
    eq.scheduleAt(100, [&] {
        eq.scheduleAfter(5, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 105u);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            eq.scheduleAfter(1, recurse);
    };
    eq.scheduleAt(0, recurse);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 4u);
}

TEST(EventQueue, RunUntilPredicate)
{
    EventQueue eq;
    int count = 0;
    for (Cycle t = 1; t <= 10; ++t)
        eq.scheduleAt(t, [&] { ++count; });
    eq.runUntil([&] { return count >= 4; });
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.size(), 6u);
}

TEST(EventQueue, ExecutedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 3; ++i)
        eq.scheduleAt(1, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, ScheduleAtNowIsAllowed)
{
    EventQueue eq;
    bool ran = false;
    eq.scheduleAt(0, [&] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
}

// Delays beyond the calendar horizon take the overflow path and must
// still fire in time order, across several full bucket-array wraps.
TEST(EventQueue, FarFutureCrossesBucketWraps)
{
    constexpr Cycle horizon = EventQueue::kBuckets;
    EventQueue eq;
    std::vector<Cycle> fired;
    const std::vector<Cycle> whens = {
        10 * horizon + 1, 2 * horizon + 3, horizon,
        horizon - 1, 0,
    };
    for (const Cycle when : whens)
        eq.scheduleAt(when, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Cycle>{0, horizon - 1, horizon,
                                         2 * horizon + 3,
                                         10 * horizon + 1}));
    EXPECT_EQ(eq.now(), 10 * horizon + 1);
    EXPECT_EQ(eq.executed(), whens.size());
}

// An event scheduled beyond the horizon and one scheduled later for
// the SAME cycle (from within the horizon) must keep schedule order:
// first scheduled, first run.
TEST(EventQueue, OverflowAndBucketedSameCycleKeepScheduleOrder)
{
    constexpr Cycle target = EventQueue::kBuckets + 10;
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(target, [&] { order.push_back(1); }); // overflow
    eq.scheduleAt(20, [&] {
        // target is now inside the horizon: bucketed directly.
        eq.scheduleAt(target, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Rolling scheduleAfter chains drive the calendar through many wraps;
// the pending/executed bookkeeping must stay exact throughout.
TEST(EventQueue, CountersSurviveManyWraps)
{
    EventQueue eq;
    std::uint64_t hops = 0;
    std::function<void()> hop = [&] {
        if (++hops < 50)
            eq.scheduleAfter(EventQueue::kBuckets / 3 + 7, hop);
    };
    eq.scheduleAt(0, hop);
    std::uint64_t steps = 0;
    while (eq.step())
        ++steps;
    EXPECT_EQ(hops, 50u);
    EXPECT_EQ(steps, 50u);
    EXPECT_EQ(eq.executed(), 50u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_FALSE(eq.step());
}

// step() drains one event at a time and size() tracks the remainder,
// including events still parked in the overflow heap.
TEST(EventQueue, StepDrainsOneAtATime)
{
    EventQueue eq;
    int ran = 0;
    eq.scheduleAt(1, [&] { ++ran; });
    eq.scheduleAt(1, [&] { ++ran; });
    eq.scheduleAt(2 * EventQueue::kBuckets, [&] { ++ran; });
    EXPECT_EQ(eq.size(), 3u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_TRUE(eq.step());
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(ran, 3);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 3u);
}

// Captures too large for the callback's inline buffer spill to the
// heap; the payload must survive the spill and any node moves.
TEST(EventQueue, LargeCaptureCallbackSurvives)
{
    EventQueue eq;
    std::array<std::uint64_t, 16> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = i * 3 + 1;
    std::uint64_t sum = 0;
    eq.scheduleAt(7, [payload, &sum] {
        for (const std::uint64_t v : payload)
            sum += v;
    });
    eq.run();
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < payload.size(); ++i)
        expect += i * 3 + 1;
    EXPECT_EQ(sum, expect);
}

// Move-only captures must work: the queue never copies callbacks.
TEST(EventQueue, MoveOnlyCallback)
{
    EventQueue eq;
    auto box = std::make_unique<int>(41);
    int got = 0;
    eq.scheduleAt(3, [box = std::move(box), &got] { got = *box + 1; });
    eq.run();
    EXPECT_EQ(got, 42);
}

// Callbacks run in place, inside their own node.  One that schedules
// same-cycle, next-cycle and beyond-horizon events while it runs must
// still yield the (when, schedule order) sequence, and its captures
// must stay intact while the events it schedules grow the node arena.
TEST(EventQueue, InPlaceCallbackKeepsWhenThenScheduleOrder)
{
    constexpr Cycle start = 10;
    constexpr Cycle far = start + EventQueue::kBuckets + 5;
    EventQueue eq;
    std::vector<std::pair<Cycle, int>> order;
    const auto record = [&](int label) {
        return [&order, &eq, label] {
            order.emplace_back(eq.now(), label);
        };
    };
    std::array<std::uint64_t, 3> guard{1, 2, 3};
    auto first = [&order, &eq, &record, guard] {
        order.emplace_back(eq.now(), 0);
        eq.scheduleAt(far, record(1));       // overflow heap
        eq.scheduleAt(start, [&] {           // same cycle, runs next
            order.emplace_back(eq.now(), 2);
            eq.scheduleAt(start, record(3)); // same cycle, behind it
            eq.scheduleAt(far, record(4));   // same far cycle as 1
        });
        eq.scheduleAt(start + 1, record(5));
        eq.scheduleAt(start, record(6));
        // Enough pending events to add arena chunks while this
        // callback still runs from its node.
        for (int i = 0; i < 1000; ++i)
            eq.scheduleAt(start + 2, [] {});
        std::uint64_t sum = 0;
        for (const std::uint64_t v : guard)
            sum += v;
        order.emplace_back(eq.now(), static_cast<int>(sum));
    };
    // The guard must live in the node, not in a heap spill.
    static_assert(EventCallback::fitsInline<decltype(first)>());
    eq.scheduleAt(start, std::move(first));
    eq.run();
    const std::vector<std::pair<Cycle, int>> expect = {
        {start, 0}, {start, 6}, {start, 2}, {start, 6}, {start, 3},
        {start + 1, 5}, {far, 1}, {far, 4}};
    EXPECT_EQ(order, expect);
    EXPECT_EQ(eq.executed(), 7u + 1000u);
    EXPECT_EQ(eq.overflowSpills(), 2u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.scheduleAt(10, [] {});
    eq.step();
    EXPECT_DEATH(eq.scheduleAt(5, [] {}), "past");
}
