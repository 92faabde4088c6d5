/**
 * @file
 * Warm/timed equivalence over the shared access-plan core.
 *
 * Both execution shells of DramCacheController consume the same
 * AccessPlan from the same organization strategy, so replaying one
 * address sequence through warmRead()/warmWriteback() and through a
 * fully-drained timed read()/writeback() must produce identical
 * hit/miss, transfer, prediction, and writeback-routing counters for
 * EVERY lookup mode x organization x replacement combination.  This is
 * the regression net for the refactor that removed the duplicated
 * per-path lookup switches.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "controller_fixture.hpp"
#include "dramcache/access_plan.hpp"

namespace accord::test
{
namespace
{

using dramcache::DramCacheParams;
using dramcache::L4Replacement;
using dramcache::LookupMode;
using dramcache::Organization;

struct Combo
{
    const char *name;
    unsigned ways;
    LookupMode lookup;
    const char *policy;
    Organization org;
    L4Replacement replacement;
    bool dcpWayBits;
};

const Combo kCombos[] = {
    {"serial_rand", 4, LookupMode::Serial, "", Organization::SetAssoc,
     L4Replacement::Random, true},
    {"parallel_rand", 4, LookupMode::Parallel, "",
     Organization::SetAssoc, L4Replacement::Random, true},
    {"predicted_rand", 4, LookupMode::Predicted, "",
     Organization::SetAssoc, L4Replacement::Random, true},
    {"ideal_rand", 4, LookupMode::Ideal, "", Organization::SetAssoc,
     L4Replacement::Random, true},
    {"predicted_pws_gws", 4, LookupMode::Predicted, "pws+gws",
     Organization::SetAssoc, L4Replacement::Random, true},
    {"serial_sws", 4, LookupMode::Serial, "sws",
     Organization::SetAssoc, L4Replacement::Random, true},
    {"serial_lru", 4, LookupMode::Serial, "", Organization::SetAssoc,
     L4Replacement::Lru, true},
    {"dm", 1, LookupMode::Serial, "", Organization::SetAssoc,
     L4Replacement::Random, true},
    {"ca", 1, LookupMode::Serial, "", Organization::ColumnAssoc,
     L4Replacement::Random, true},
    {"serial_nodcp", 4, LookupMode::Serial, "", Organization::SetAssoc,
     L4Replacement::Random, false},
    {"ideal_nodcp", 4, LookupMode::Ideal, "", Organization::SetAssoc,
     L4Replacement::Random, false},
    {"ca_nodcp", 1, LookupMode::Serial, "", Organization::ColumnAssoc,
     L4Replacement::Random, false},
};

DramCacheParams
paramsFor(const Combo &combo)
{
    DramCacheParams params;
    params.capacityBytes = 1ULL << 18;  // 4096 lines: evictions happen
    params.ways = combo.ways;
    params.org = combo.org;
    params.lookup = combo.lookup;
    params.replacement = combo.replacement;
    params.dcpWayBits = combo.dcpWayBits;
    params.seed = 99;
    return params;
}

/** One op of the replayed sequence. */
struct Op
{
    bool isWriteback;
    LineAddr line;
};

/** Deterministic read/writeback mix over 4x the cache's line count. */
std::vector<Op>
makeSequence()
{
    Rng rng(0xacce55);
    std::vector<Op> ops;
    std::vector<LineAddr> touched;
    for (unsigned i = 0; i < 6000; ++i) {
        if (!touched.empty() && rng.below(4) == 0) {
            ops.push_back(
                {true, touched[rng.below(touched.size())]});
        } else {
            // Skewed: half the references land in a hot eighth of the
            // space so hits, misses, and evictions all occur.
            const std::uint64_t space = 4 * 4096;
            const LineAddr line = rng.below(2) == 0
                ? rng.below(space / 8)
                : rng.below(space);
            ops.push_back({false, line});
            touched.push_back(line);
        }
    }
    return ops;
}

/** Counter snapshot both shells must agree on. */
struct Snapshot
{
    std::uint64_t hits, misses, predHits, predTotal;
    std::uint64_t readXfers, writeXfers, nvmReads, nvmWrites;
    std::uint64_t wbToCache, wbToNvm, wbProbeXfers, wbDcpStale;
    std::uint64_t swaps, replUpdates, probeSamples;

    static Snapshot
    of(const dramcache::DramCacheStats &stats)
    {
        Snapshot s;
        s.hits = stats.readHits.hits();
        s.misses = stats.readHits.misses();
        s.predHits = stats.wayPrediction.hits();
        s.predTotal = stats.wayPrediction.total();
        s.readXfers = stats.cacheReadTransfers.value();
        s.writeXfers = stats.cacheWriteTransfers.value();
        s.nvmReads = stats.nvmReads.value();
        s.nvmWrites = stats.nvmWrites.value();
        s.wbToCache = stats.writebacksToCache.value();
        s.wbToNvm = stats.writebacksToNvm.value();
        s.wbProbeXfers = stats.writebackProbeTransfers.value();
        s.wbDcpStale = stats.dcpStaleWritebacks.value();
        s.swaps = stats.swaps.value();
        s.replUpdates = stats.replacementUpdateWrites.value();
        s.probeSamples = stats.probesPerRead.count();
        return s;
    }
};

TEST(AccessPlanEquivalence, WarmAndTimedAgreeOnEveryCombo)
{
    const std::vector<Op> ops = makeSequence();

    for (const Combo &combo : kCombos) {
        SCOPED_TRACE(combo.name);
        const DramCacheParams params = paramsFor(combo);

        MiniSystem warm(params, combo.policy);
        std::uint64_t warm_hits = 0;
        for (const Op &op : ops) {
            if (op.isWriteback)
                warm->warmWriteback(op.line);
            else
                warm_hits += warm->warmRead(op.line) ? 1 : 0;
        }

        // Timed replay, drained to quiescence after every op so the
        // sequence of tag states matches the warm replay exactly.
        MiniSystem timed(params, combo.policy);
        std::uint64_t timed_hits = 0;
        for (const Op &op : ops) {
            if (op.isWriteback)
                timed->writeback(op.line);
            else
                timed_hits += timed.readBlocking(op.line) ? 1 : 0;
            timed.eq.runUntil([] { return false; });
        }

        EXPECT_EQ(warm_hits, timed_hits);
        const Snapshot w = Snapshot::of(warm->stats());
        const Snapshot t = Snapshot::of(timed->stats());
        EXPECT_EQ(w.hits, t.hits);
        EXPECT_EQ(w.misses, t.misses);
        EXPECT_EQ(w.predHits, t.predHits);
        EXPECT_EQ(w.predTotal, t.predTotal);
        EXPECT_EQ(w.readXfers, t.readXfers);
        EXPECT_EQ(w.writeXfers, t.writeXfers);
        EXPECT_EQ(w.nvmReads, t.nvmReads);
        EXPECT_EQ(w.nvmWrites, t.nvmWrites);
        EXPECT_EQ(w.wbToCache, t.wbToCache);
        EXPECT_EQ(w.wbToNvm, t.wbToNvm);
        EXPECT_EQ(w.wbProbeXfers, t.wbProbeXfers);
        EXPECT_EQ(w.wbDcpStale, t.wbDcpStale);
        EXPECT_EQ(w.swaps, t.swaps);
        EXPECT_EQ(w.replUpdates, t.replUpdates);
        EXPECT_EQ(w.probeSamples, t.probeSamples);

        // Both replays must also leave a coherent model: no tag-store,
        // placement, DCP, or stats-identity violations.
        InvariantAuditor wa;
        warm->audit(wa);
        EXPECT_TRUE(wa.clean()) << wa.report();
        InvariantAuditor ta;
        timed->audit(ta);
        EXPECT_TRUE(ta.clean()) << ta.report();
    }
}

TEST(AccessPlanEquivalence, SequenceActuallyExercisesBothOutcomes)
{
    // Guard against the generator degenerating into all-hits or
    // all-misses, which would make the equivalence sweep vacuous.
    const DramCacheParams params = paramsFor(kCombos[0]);
    MiniSystem warm(params, "");
    for (const Op &op : makeSequence()) {
        if (op.isWriteback)
            warm->warmWriteback(op.line);
        else
            warm->warmRead(op.line);
    }
    const auto &stats = warm->stats();
    EXPECT_GT(stats.readHits.hits(), 100u);
    EXPECT_GT(stats.readHits.misses(), 100u);
    EXPECT_GT(stats.writebacksToCache.value(), 10u);
    EXPECT_GT(stats.writebacksToNvm.value(), 10u);
}

TEST(AccessPlan, HitTransfersFollowIssueShape)
{
    const unsigned order[] = {0, 1, 2, 3};
    dramcache::AccessPlan plan(core::LineRef{}, dramcache::IssueShape::Chained,
                               order, 4);

    plan.shape = dramcache::IssueShape::Chained;
    EXPECT_EQ(plan.hitTransfers(0), 1u);
    EXPECT_EQ(plan.hitTransfers(3), 4u);
    EXPECT_EQ(plan.missTransfers(), 4u);

    plan.shape = dramcache::IssueShape::Broadside;
    EXPECT_EQ(plan.hitTransfers(0), 4u);
    EXPECT_EQ(plan.hitTransfers(3), 4u);
    EXPECT_EQ(plan.missTransfers(), 4u);

    plan.shape = dramcache::IssueShape::Single;
    EXPECT_EQ(plan.hitTransfers(0), 1u);
    EXPECT_EQ(plan.missTransfers(), 1u);

    EXPECT_TRUE(dramcache::AccessPlan::predictedAt(0));
    EXPECT_FALSE(dramcache::AccessPlan::predictedAt(1));
}

#if ACCORD_CHECKS_ENABLED
// A plan writes only probes [0, probeCount).  Checked builds poison
// the rest with an out-of-range set, so a stray read of an unused
// slot trips the tag store's index check instead of reading garbage.
TEST(AccessPlanDeath, UnusedProbeSlotsTripTheTagIndexCheck)
{
    core::CacheGeometry geom;
    geom.sets = 16;
    geom.ways = 4;
    const dramcache::TagStore tags(geom);
    const unsigned order[] = {2, 0};
    const dramcache::AccessPlan plan(core::LineRef::make(0x35, geom),
                                     dramcache::IssueShape::Chained,
                                     order, 2);
    EXPECT_FALSE(dramcache::stepHits(plan.probes[1], tags));
    EXPECT_DEATH(dramcache::stepHits(plan.probes[2], tags), "outside");
}
#endif

} // namespace
} // namespace accord::test
