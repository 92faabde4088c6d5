/**
 * @file
 * InvariantAuditor unit tests: the collector itself, every component
 * audit entry point, and — the point of the exercise — that
 * deliberately corrupted model state is actually detected.
 */

#include <gtest/gtest.h>

#include "common/invariant_auditor.hpp"
#include "core/ganged.hpp"
#include "core/steer.hpp"
#include "dramcache/audit.hpp"
#include "dramcache/controller.hpp"
#include "dramcache/dcp.hpp"
#include "dramcache/tag_store.hpp"

#include "controller_fixture.hpp"

using namespace accord;
using namespace accord::core;
using namespace accord::dramcache;
using accord::test::MiniSystem;

namespace
{

CacheGeometry
geom(std::uint64_t sets, unsigned ways)
{
    CacheGeometry g;
    g.sets = sets;
    g.ways = ways;
    return g;
}

} // namespace

// --- the collector itself -------------------------------------------

TEST(InvariantAuditor, StartsClean)
{
    InvariantAuditor auditor;
    EXPECT_TRUE(auditor.clean());
    EXPECT_EQ(auditor.count(), 0u);
    EXPECT_TRUE(auditor.violations().empty());
    EXPECT_EQ(auditor.report(), "");
}

TEST(InvariantAuditor, CollectsInsteadOfAborting)
{
    InvariantAuditor auditor;
    auditor.fail("rule-a", "way %u out of %u", 9u, 8u);
    auditor.fail("rule-b", "plain detail");

    EXPECT_FALSE(auditor.clean());
    EXPECT_EQ(auditor.count(), 2u);
    EXPECT_TRUE(auditor.hasRule("rule-a"));
    EXPECT_TRUE(auditor.hasRule("rule-b"));
    EXPECT_FALSE(auditor.hasRule("rule-c"));
    EXPECT_EQ(auditor.violations()[0].rule, "rule-a");
    EXPECT_EQ(auditor.violations()[0].detail, "way 9 out of 8");
    EXPECT_NE(auditor.report().find("rule-b: plain detail"),
              std::string::npos);
}

TEST(InvariantAuditor, ClearResets)
{
    InvariantAuditor auditor;
    auditor.fail("rule-a", "detail");
    auditor.clear();
    EXPECT_TRUE(auditor.clean());
    EXPECT_EQ(auditor.count(), 0u);
}

TEST(InvariantAuditor, EnforceIsANoopWhenClean)
{
    InvariantAuditor auditor;
    auditor.enforce("clean context");
}

TEST(InvariantAuditorDeath, EnforcePanicsWithReport)
{
    InvariantAuditor auditor;
    auditor.fail("broken-rule", "the detail line");
    EXPECT_DEATH(auditor.enforce("test context"),
                 "invariant audit failed.*test context.*broken-rule");
}

// --- tag store ------------------------------------------------------

TEST(TagStoreAudit, CleanAfterInstalls)
{
    TagStore tags(geom(4, 2));
    tags.install(0, 0, 5, false);
    tags.install(0, 1, 6, true);
    tags.install(3, 1, 5, false);

    InvariantAuditor auditor;
    auditTagStore(tags, auditor);
    EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(TagStoreAudit, DetectsDuplicateTagInSet)
{
    TagStore tags(geom(4, 2));
    tags.install(2, 0, 7, false);
    tags.install(2, 1, 7, false); // same tag, second way

    InvariantAuditor auditor;
    auditTagStore(tags, auditor);
    EXPECT_TRUE(auditor.hasRule("tag-duplicate")) << auditor.report();
}

// --- way-placement legality -----------------------------------------

TEST(PlacementAudit, CleanWhenLinesSitInCandidateWays)
{
    const CacheGeometry g = geom(64, 8);
    SwsPolicy policy(g, 2, 0.85, 1);
    TagStore tags(g);

    for (std::uint64_t tag = 1; tag <= 32; ++tag) {
        const auto ref =
            LineRef::make((tag << g.setBits()) | (tag % g.sets), g);
        tags.install(ref.set, policy.install(ref), ref.tag, false);
    }

    InvariantAuditor auditor;
    auditPlacement(tags, policy, auditor);
    EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(PlacementAudit, DetectsLineOutsideSwsCandidates)
{
    const CacheGeometry g = geom(64, 8);
    SwsPolicy policy(g, 2, 0.85, 1);
    TagStore tags(g);

    const auto ref = LineRef::make((0x5ULL << g.setBits()) | 3, g);
    const std::uint64_t mask = policy.candidates(ref);
    unsigned illegal = g.ways;
    for (unsigned way = 0; way < g.ways; ++way) {
        if ((mask & (std::uint64_t{1} << way)) == 0) {
            illegal = way;
            break;
        }
    }
    // SWS(8,2) allows 2 of 8 ways, so an illegal way must exist.
    ASSERT_LT(illegal, g.ways);
    tags.install(ref.set, illegal, ref.tag, false);

    InvariantAuditor auditor;
    auditPlacement(tags, policy, auditor);
    EXPECT_TRUE(auditor.hasRule("placement")) << auditor.report();
}

// --- GWS region tables ----------------------------------------------

TEST(RegionTableAudit, CleanWhenConsistent)
{
    RegionTable table(8);
    table.insert(100, 3);
    table.insert(101, 0);
    table.lookup(100);

    InvariantAuditor auditor;
    table.audit(auditor, "rit", 8, 8);
    EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(RegionTableAudit, DetectsStoredWayOutOfRange)
{
    RegionTable table(8);
    table.insert(100, 99); // way 99 in an 8-way cache

    InvariantAuditor auditor;
    table.audit(auditor, "rit", 8, 8);
    EXPECT_TRUE(auditor.hasRule("gws-way-range")) << auditor.report();
}

TEST(RegionTableAudit, DetectsTableAboveConfiguredBound)
{
    RegionTable table(128); // paper caps RIT/RLT at 64 entries

    InvariantAuditor auditor;
    table.audit(auditor, "rlt", 8, 64);
    EXPECT_TRUE(auditor.hasRule("gws-table-bound")) << auditor.report();
}

TEST(GangedPolicyAudit, CleanAfterTraffic)
{
    const CacheGeometry g = geom(64, 8);
    GangedPolicy policy(std::make_unique<UnbiasedPolicy>(g, 2),
                        GangedParams{});

    for (std::uint64_t tag = 1; tag <= 200; ++tag) {
        const auto ref =
            LineRef::make((tag << g.setBits()) | (tag % g.sets), g);
        policy.predict(ref);
        if (tag % 3 == 0) {
            policy.onHit(ref, policy.predict(ref));
        } else {
            policy.onMiss(ref);
            policy.onInstall(ref, policy.install(ref));
        }
    }

    InvariantAuditor auditor;
    policy.audit(auditor);
    EXPECT_TRUE(auditor.clean()) << auditor.report();
}

// --- DCP directory --------------------------------------------------

TEST(DcpAudit, CleanWhenCoherent)
{
    const CacheGeometry g = geom(16, 4);
    TagStore tags(g);
    DcpDirectory dcp;

    const auto ref = LineRef::make((0x9ULL << g.setBits()) | 2, g);
    tags.install(ref.set, 1, ref.tag, false);
    dcp.record(ref.line, 1);

    InvariantAuditor auditor;
    auditDcp(dcp, tags, auditor);
    EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(DcpAudit, DetectsStaleEntry)
{
    const CacheGeometry g = geom(16, 4);
    TagStore tags(g);
    DcpDirectory dcp;

    // Directory claims residency but the tag store never installed.
    dcp.record((0x9ULL << g.setBits()) | 2, 1);

    InvariantAuditor auditor;
    auditDcp(dcp, tags, auditor);
    EXPECT_TRUE(auditor.hasRule("dcp-coherence")) << auditor.report();
}

TEST(DcpAudit, DetectsWayOutOfRange)
{
    const CacheGeometry g = geom(16, 4);
    TagStore tags(g);
    DcpDirectory dcp;
    dcp.record(0x123, 9); // 4-way cache

    InvariantAuditor auditor;
    auditDcp(dcp, tags, auditor);
    EXPECT_TRUE(auditor.hasRule("dcp-way-range")) << auditor.report();
}

TEST(DcpAudit, EntriesAreSortedByLineAddress)
{
    DcpDirectory dcp;
    dcp.record(0x30, 1);
    dcp.record(0x10, 2);
    dcp.record(0x20, 0);

    const auto entries = dcp.entries();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].first, 0x10u);
    EXPECT_EQ(entries[1].first, 0x20u);
    EXPECT_EQ(entries[2].first, 0x30u);
}

TEST(CaAudit, DetectsLineInBothSlots)
{
    const CacheGeometry g = geom(16, 1);
    TagStore tags(g);
    DcpDirectory dcp(tags);
    dcp.useColumnPairs(8);

    // Line 0x23 has primary slot 3 and pair slot 11.
    tags.install(3, 0, 0x23, false);
    InvariantAuditor clean;
    auditCaSlotRange(tags, dcp, 8, clean, 0, 16);
    EXPECT_TRUE(clean.clean()) << clean.report();

    tags.install(11, 0, 0x23, false);
    InvariantAuditor auditor;
    auditCaSlotRange(tags, dcp, 8, auditor, 0, 16);
    EXPECT_TRUE(auditor.hasRule("ca-duplicate")) << auditor.report();
}

// --- full controller ------------------------------------------------

TEST(ControllerAudit, CleanAfterWarmTraffic)
{
    MiniSystem sys(8, LookupMode::Predicted, "sws+gws");
    for (std::uint64_t i = 0; i < 4000; ++i)
        sys->warmRead(i * 37);
    for (std::uint64_t i = 0; i < 500; ++i)
        sys->warmWriteback(i * 37);

    InvariantAuditor auditor;
    sys->audit(auditor);
    EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(ControllerAudit, CleanAfterTimedTraffic)
{
    MiniSystem sys(4, LookupMode::Predicted, "pws+gws");
    for (std::uint64_t i = 0; i < 200; ++i)
        sys.readBlocking(i * 53);

    InvariantAuditor auditor;
    sys->audit(auditor);
    EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(ControllerAudit, CleanAfterColumnAssocTraffic)
{
    MiniSystem sys(1, LookupMode::Serial, "", 1ULL << 20,
                   Organization::ColumnAssoc);
    for (std::uint64_t i = 0; i < 2000; ++i)
        sys->warmRead(i * 31);

    InvariantAuditor auditor;
    sys->audit(auditor);
    EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(ControllerAudit, DetectsCorruptedStats)
{
    // Craft a standalone stats block whose counters violate "every
    // miss reads main memory": one recorded miss, zero NVM reads.
    // (Controller counters are no longer mutable from outside, so the
    // stats identities are exercised through the free audit entry
    // point the controller itself composes.)
    DramCacheStats stats;
    stats.readHits.miss();
    stats.probesPerRead.sample(1.0);

    InvariantAuditor auditor;
    auditStats(stats, auditor);
    EXPECT_TRUE(auditor.hasRule("stats-miss-fills"))
        << auditor.report();
}
