/** @file Timed-path tests of the DRAM-cache controller. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "controller_fixture.hpp"

using namespace accord;
using namespace accord::test;
using dramcache::LookupMode;
using dramcache::Organization;

TEST(TimedDm, MissThenHit)
{
    MiniSystem sys(1, LookupMode::Serial, "");
    EXPECT_FALSE(sys.readBlocking(1000));
    EXPECT_TRUE(sys.readBlocking(1000));
}

TEST(TimedDm, HitFasterThanMiss)
{
    MiniSystem sys(1, LookupMode::Serial, "");
    sys.readBlocking(1000);
    sys.eq.run();
    sys->resetStats();
    sys.readBlocking(2000);     // miss (new line)
    sys.readBlocking(1000);     // hit
    const auto &s = sys->stats();
    EXPECT_EQ(s.readHits.hits(), 1u);
    EXPECT_EQ(s.readHits.misses(), 1u);
    EXPECT_LT(s.readHitLatency.mean(), s.readMissLatency.mean());
}

TEST(TimedDm, MissLatencyIncludesNvm)
{
    MiniSystem sys(1, LookupMode::Serial, "");
    sys.readBlocking(5);
    // Probe (HBM round trip) + NVM array read; must exceed the NVM
    // unloaded latency alone.
    const auto &nvm_params = sys.nvm.params();
    EXPECT_GT(sys->stats().readMissLatency.mean(),
              static_cast<double>(nvm_params.tRcd));
}

TEST(Timed2Way, PredictedHitTakesOneProbe)
{
    MiniSystem sys(2, LookupMode::Predicted, "perfect");
    sys.readBlocking(42);
    sys.eq.run();
    sys->resetStats();
    EXPECT_TRUE(sys.readBlocking(42));
    EXPECT_EQ(sys->stats().cacheReadTransfers.value(), 1u);
    EXPECT_DOUBLE_EQ(sys->stats().wayPrediction.rate(), 1.0);
}

TEST(Timed2Way, MispredictedHitTakesTwoProbesAndLonger)
{
    // Force mispredictions: policy predicts the preferred way, but we
    // keep re-installing lines until one lands in the other way.
    MiniSystem sys(2, LookupMode::Predicted, "pws");
    Rng rng(3);
    for (int i = 0; i < 3000; ++i)
        sys->warmRead(rng.below(2048));
    sys.eq.run();
    sys->resetStats();
    for (int i = 0; i < 3000; ++i)
        sys.readBlocking(rng.below(2048));
    const auto &s = sys->stats();
    EXPECT_GT(s.readHits.hits(), 0u);
    EXPECT_LT(s.wayPrediction.rate(), 1.0);
    EXPECT_GT(s.wayPrediction.rate(), 0.6);
}

TEST(TimedParallel, CompletesHitsAndMisses)
{
    MiniSystem sys(4, LookupMode::Parallel, "");
    EXPECT_FALSE(sys.readBlocking(9));
    EXPECT_TRUE(sys.readBlocking(9));
    EXPECT_EQ(sys->stats().readHits.total(), 2u);
    // 4 probes per access.
    EXPECT_EQ(sys->stats().cacheReadTransfers.value(), 8u);
}

// A broadside read fixes its hit way at issue.  An overlapping fill
// can evict the line before the probes return, and the hit then
// records a way the line has left: the one disagreement between the
// DCP directory and the tag store that set-associative runs produce.
TEST(TimedParallel, StaleBroadsideHitsBecomeDcpOverrides)
{
    MiniSystem sys(2, LookupMode::Parallel, "");
    Rng rng(17);
    std::size_t peak_overrides = 0;
    const auto step = [&] {
        const bool ran = sys.eq.step();
        peak_overrides = std::max(peak_overrides,
                                  sys->dcpDirectory().overrideCount());
        return ran;
    };
    // A steady trickle of reads, 8 tags over 4 sets of 2 ways, so
    // fills keep landing while later broadside hits are in flight.
    for (int i = 0; i < 4000; ++i) {
        sys->read(sys.lineFor(rng.below(4), rng.below(8)), {});
        for (int k = 0; k < 4; ++k)
            step();
    }
    while (step()) {
    }
    EXPECT_GT(peak_overrides, 0u);
    EXPECT_TRUE(sys->quiesced());
}

TEST(TimedIdeal, SingleTransferEachWay)
{
    MiniSystem sys(4, LookupMode::Ideal, "");
    EXPECT_FALSE(sys.readBlocking(9));
    EXPECT_TRUE(sys.readBlocking(9));
    EXPECT_EQ(sys->stats().cacheReadTransfers.value(), 2u);
}

TEST(TimedSerial, SecondWayHitSlowerThanFirst)
{
    MiniSystem sys(2, LookupMode::Serial, "");
    // Install a line and find which way it landed in; compare hit
    // latency for way-0 vs way-1 residents.
    Rng rng(11);
    std::vector<LineAddr> way0, way1;
    for (int i = 0; i < 2000 && (way0.empty() || way1.empty()); ++i) {
        const LineAddr line = 100000 + i;
        sys->warmRead(line);
        const auto ref = core::LineRef::make(line, sys->geometry());
        const int way =
            sys->tagStore().findWay(ref.set, ref.tag);
        if (way == 0)
            way0.push_back(line);
        else if (way == 1)
            way1.push_back(line);
    }
    ASSERT_FALSE(way0.empty());
    ASSERT_FALSE(way1.empty());

    sys->resetStats();
    sys.readBlocking(way0.front());
    const double lat0 = sys->stats().readHitLatency.mean();
    sys->resetStats();
    sys.readBlocking(way1.front());
    const double lat1 = sys->stats().readHitLatency.mean();
    EXPECT_GT(lat1, lat0);
}

TEST(TimedWriteback, DcpHitWritesCache)
{
    MiniSystem sys(2, LookupMode::Predicted, "pws+gws");
    sys.readBlocking(777);
    sys->writeback(777);
    sys.eq.run();
    EXPECT_EQ(sys->stats().writebacksToCache.value(), 1u);
    EXPECT_TRUE(sys->quiesced());
}

TEST(TimedWriteback, AbsentGoesToNvmDevice)
{
    MiniSystem sys(2, LookupMode::Predicted, "pws+gws");
    sys->writeback(777);
    sys.eq.run();
    EXPECT_EQ(sys.nvm.writes(), 1u);
}

TEST(TimedFill, DirtyVictimReachesNvmDevice)
{
    MiniSystem sys(1, LookupMode::Serial, "");
    const LineAddr a = sys.lineFor(5, 1);
    const LineAddr b = sys.lineFor(5, 2);
    sys.readBlocking(a);
    sys->writeback(a);
    sys.eq.run();
    sys.readBlocking(b);    // evicts dirty a
    sys.eq.run();
    EXPECT_EQ(sys.nvm.writes(), 1u);
}

TEST(TimedConcurrency, OverlappingSameLineMissesDoNotDuplicate)
{
    MiniSystem sys(2, LookupMode::Predicted, "pws");
    int done = 0;
    // Two reads of the same absent line issued back to back.
    sys->read(4242, [&](bool, Cycle) { ++done; });
    sys->read(4242, [&](bool, Cycle) { ++done; });
    sys.eq.run();
    EXPECT_EQ(done, 2);
    // Exactly one copy resident.
    const auto ref = core::LineRef::make(4242, sys->geometry());
    int copies = 0;
    for (unsigned way = 0; way < 2; ++way) {
        if (sys->tagStore().valid(ref.set, way)
            && sys->tagStore().tag(ref.set, way) == ref.tag)
            ++copies;
    }
    EXPECT_EQ(copies, 1);
}

TEST(TimedConcurrency, ManyOutstandingReadsComplete)
{
    MiniSystem sys(2, LookupMode::Predicted, "pws+gws");
    Rng rng(13);
    int done = 0;
    for (int i = 0; i < 500; ++i)
        sys->read(rng.below(1 << 14), [&](bool, Cycle) { ++done; });
    sys.eq.run();
    EXPECT_EQ(done, 500);
    EXPECT_TRUE(sys->quiesced());
}

TEST(TimedCa, ReadsAndSwapsComplete)
{
    MiniSystem sys(1, LookupMode::Serial, "", 1ULL << 20,
                   Organization::ColumnAssoc);
    const std::uint64_t slots = sys->geometry().sets;
    const LineAddr a = 5;
    const LineAddr b = 5 + slots;
    EXPECT_FALSE(sys.readBlocking(a));
    EXPECT_FALSE(sys.readBlocking(b));
    sys.eq.run();
    EXPECT_TRUE(sys.readBlocking(a));   // secondary hit + swap
    sys.eq.run();
    EXPECT_EQ(sys->stats().swaps.value(), 1u);
    EXPECT_TRUE(sys.readBlocking(a));   // now a primary hit
}

TEST(TimedCa, OverlappingSameLineMissesDoNotDuplicate)
{
    MiniSystem sys(1, LookupMode::Serial, "", 1ULL << 20,
                   Organization::ColumnAssoc);
    const std::uint64_t slots = sys->geometry().sets;
    const LineAddr a = 5;
    // b's primary slot is a's pair slot.
    const LineAddr b = 5 + slots / 2;
    EXPECT_FALSE(sys.readBlocking(b));
    sys.eq.run();

    // Two reads of the absent line a, issued back to back: both miss
    // and both reach the fill path.
    int done = 0;
    sys->read(a, [&](bool, Cycle) { ++done; });
    sys->read(a, [&](bool, Cycle) { ++done; });
    sys.eq.run();
    EXPECT_EQ(done, 2);

    const dramcache::TagStore &tags = sys->tagStore();
    const auto holds = [&](std::uint64_t slot, LineAddr line) {
        return tags.valid(slot, 0) && tags.tag(slot, 0) == line;
    };
    // a sits in its primary slot only; b was not displaced.
    EXPECT_TRUE(holds(a, a));
    EXPECT_TRUE(holds(b, b));
    InvariantAuditor auditor;
    sys->audit(auditor);
    EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(TimedDeterminism, SameSeedSameTimeline)
{
    auto run = [] {
        MiniSystem sys(2, LookupMode::Predicted, "pws+gws");
        Rng rng(17);
        Cycle last = 0;
        int remaining = 300;
        for (int i = 0; i < 300; ++i) {
            sys->read(rng.below(1 << 12), [&](bool, Cycle when) {
                last = std::max(last, when);
                --remaining;
            });
        }
        sys.eq.runUntil([&] { return remaining == 0; });
        return last;
    };
    EXPECT_EQ(run(), run());
}

TEST(TimedVsFunctional, SameSequentialStreamSameHits)
{
    // With one access at a time, the timed and functional paths must
    // produce identical hit/miss sequences given identical policy
    // seeds.
    MiniSystem timed(2, LookupMode::Predicted, "pws+gws");
    MiniSystem warm(2, LookupMode::Predicted, "pws+gws");
    Rng rng(23);
    for (int i = 0; i < 2000; ++i) {
        const LineAddr line = rng.below(1 << 13);
        EXPECT_EQ(timed.readBlocking(line), warm->warmRead(line))
            << "diverged at access " << i;
    }
    EXPECT_EQ(timed->stats().readHits.hits(),
              warm->stats().readHits.hits());
    EXPECT_EQ(timed->stats().wayPrediction.hits(),
              warm->stats().wayPrediction.hits());
}

// Every issue shape returns each pooled transaction exactly when its
// last continuation finishes: serial lookup runs Chained probes,
// parallel lookup Broadside ones (the completion plus one hold per
// probe), and ideal lookup a Single probe.
class TimedTxnLifetime : public ::testing::TestWithParam<LookupMode>
{
};

TEST_P(TimedTxnLifetime, PoolDrainsAtQuiescence)
{
    MiniSystem sys(4, GetParam(), "");
    Rng rng(17);
    // Warm a part of the footprint so the batch mixes hits and misses
    // (a broadside plan fixes its outcome against the tags at issue).
    for (LineAddr line = 0; line < (1 << 11); ++line)
        sys->warmRead(line);
    int done = 0;
    int hits = 0;
    for (int i = 0; i < 2000; ++i) {
        sys->read(rng.below(1 << 12), [&](bool hit, Cycle) {
            ++done;
            hits += hit ? 1 : 0;
        });
    }
    EXPECT_EQ(sys->txnPool().live(), 2000u);
    sys.eq.run();
    EXPECT_EQ(done, 2000);
    EXPECT_GT(hits, 0);
    EXPECT_LT(hits, 2000);
    EXPECT_TRUE(sys->quiesced());
    EXPECT_EQ(sys->txnPool().live(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TimedTxnLifetime,
    ::testing::Values(LookupMode::Serial, LookupMode::Parallel,
                      LookupMode::Ideal),
    [](const ::testing::TestParamInfo<LookupMode> &info) {
        return dramcache::toToken(info.param);
    });

// A broadside read that hits on an early probe completes while its
// later probes are still in flight; those keep the transaction alive
// until they land.
TEST(TimedTxnLifetime, BroadsideProbesOutliveTheCompletion)
{
    MiniSystem sys(4, LookupMode::Parallel, "");
    constexpr std::uint64_t set = 3;
    for (std::uint64_t tag = 1; tag <= 64; ++tag)
        sys->warmRead(sys.lineFor(set, tag));
    std::vector<LineAddr> lines;
    for (unsigned way = 0; way < 4; ++way) {
        ASSERT_TRUE(sys->tagStore().valid(set, way));
        lines.push_back(sys.lineFor(set, sys->tagStore().tag(set, way)));
    }
    std::size_t held_after_completion = 0;
    for (const LineAddr line : lines) {
        const auto ref = core::LineRef::make(line, sys->geometry());
        ASSERT_GE(sys->tagStore().findWay(ref.set, ref.tag), 0);
        bool done = false;
        sys->read(line, [&](bool hit, Cycle) {
            EXPECT_TRUE(hit);
            done = true;
        });
        sys.eq.runUntil([&] { return done; });
        // The set is full, so the hit sits at a different probe
        // position for each line: all but the last-probed one finish
        // with probes still outstanding.
        held_after_completion += sys->txnPool().live();
        sys.eq.run();
        EXPECT_EQ(sys->txnPool().live(), 0u);
    }
    EXPECT_EQ(held_after_completion, 3u);
}
