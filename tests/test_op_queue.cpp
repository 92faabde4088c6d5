/**
 * @file
 * Differential test of the channel request queue: OpQueue against a
 * std::deque<MemOp> running the two-loop FR-FCFS pick and middle
 * erase the channel used before, under seeded random traffic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "dram/op_queue.hpp"

using namespace accord;
using namespace accord::dram;

namespace
{

/** The reference scheduler: scan for priority, then row hit, else 0. */
std::size_t
referencePick(const std::deque<MemOp> &queue,
              const std::vector<std::uint64_t> &open_rows)
{
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i].priority)
            return i;
    }
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const MemOp &op = queue[i];
        if (open_rows[op.loc.bank] == op.loc.row)
            return i;
    }
    return 0;
}

MemOp
referenceTake(std::deque<MemOp> &queue, std::size_t index)
{
    MemOp op = std::move(queue[index]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(index));
    return op;
}

} // namespace

TEST(OpQueue, MatchesDequeReferenceUnderRandomTraffic)
{
    constexpr unsigned kBanks = 8;
    constexpr std::uint64_t kRows = 4;
    constexpr int kSteps = 200000;
    constexpr double kPriorityShare[] = {0.0, 0.02, 0.3};

    Rng rng(2024);
    std::vector<std::uint64_t> open_rows(kBanks, 0);
    const auto row_hit = [&open_rows](unsigned bank, std::uint64_t row) {
        return open_rows[bank] == row;
    };

    OpQueue queue(16);
    std::deque<MemOp> reference;
    std::uint64_t next_id = 1;
    std::uint64_t completed_id = 0;
    std::uint64_t pushes = 0;
    std::uint64_t takes = 0;
    std::uint64_t priority_picks = 0;
    std::uint64_t hit_picks = 0;

    for (int step = 0; step < kSteps; ++step) {
        // Phases of no, rare and frequent priority ops, so the
        // priority count drops to zero and rises again many times.
        const double priority_p = kPriorityShare[(step / 5000) % 3];
        // Drift the target depth so the queue empties and refills.
        const std::size_t target = (step / 777) % 2 == 0 ? 6 : 48;
        const bool push = reference.empty()
            || (reference.size() < target ? rng.chance(0.7)
                                          : rng.chance(0.3));

        if (rng.chance(0.1))
            open_rows[rng.below(kBanks)] = rng.below(kRows);

        if (push) {
            MemOp op;
            op.loc.bank = static_cast<unsigned>(rng.below(kBanks));
            op.loc.row = rng.below(kRows);
            op.isWrite = rng.chance(0.5);
            op.priority = rng.chance(priority_p);
            op.txn = next_id++;
            MemOp twin;
            twin.loc = op.loc;
            twin.isWrite = op.isWrite;
            twin.priority = op.priority;
            twin.txn = op.txn;
            const std::uint64_t id = op.txn;
            op.onComplete = [&completed_id, id](Cycle) {
                completed_id = id;
            };
            queue.push(std::move(op));
            reference.push_back(std::move(twin));
            ++pushes;
        } else {
            const std::size_t want = referencePick(reference, open_rows);
            const std::size_t got = queue.pick(row_hit);
            ASSERT_EQ(got, want) << "step " << step;
            if (reference[want].priority)
                ++priority_picks;
            else if (row_hit(reference[want].loc.bank,
                             reference[want].loc.row))
                ++hit_picks;

            const MemOp expect = referenceTake(reference, want);
            MemOp taken = queue.take(got);
            ASSERT_EQ(taken.txn, expect.txn);
            ASSERT_EQ(taken.loc, expect.loc);
            ASSERT_EQ(taken.isWrite, expect.isWrite);
            ASSERT_EQ(taken.priority, expect.priority);
            // The payload's callback travelled with it.
            ASSERT_TRUE(taken.onComplete);
            taken.onComplete(0);
            ASSERT_EQ(completed_id, expect.txn);
            ++takes;
        }

        ASSERT_EQ(queue.size(), reference.size());
        ASSERT_EQ(queue.empty(), reference.empty());
        for (std::size_t i = 0; i < reference.size(); ++i)
            ASSERT_EQ(queue.at(i).txn, reference[i].txn)
                << "step " << step;
    }

    // The traffic exercised every branch of the pick rule.
    EXPECT_GT(pushes, 90000u);
    EXPECT_GT(takes, 90000u);
    EXPECT_GT(priority_picks, 1000u);
    EXPECT_GT(hit_picks, 1000u);
}

TEST(OpQueue, ReusesVacatedSlotsWithoutReordering)
{
    OpQueue queue;
    for (std::uint64_t id = 1; id <= 4; ++id) {
        MemOp op;
        op.loc.row = id;
        op.txn = id;
        queue.push(std::move(op));
    }
    EXPECT_EQ(queue.take(1).txn, 2u);
    EXPECT_EQ(queue.take(1).txn, 3u);
    MemOp op;
    op.txn = 5;
    queue.push(std::move(op));   // lands in a vacated slot
    ASSERT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.at(0).txn, 1u);
    EXPECT_EQ(queue.at(1).txn, 4u);
    EXPECT_EQ(queue.at(2).txn, 5u);
}
