/** @file Unit tests for the DCP (presence + way) directory. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "dramcache/access_plan.hpp"
#include "dramcache/controller.hpp"
#include "dramcache/dcp.hpp"
#include "dramcache/org_colassoc.hpp"
#include "dramcache/org_setassoc.hpp"
#include "dramcache/organization.hpp"

using namespace accord;
using namespace accord::dramcache;

TEST(Dcp, AbsentByDefault)
{
    DcpDirectory dcp;
    EXPECT_FALSE(dcp.lookup(42).has_value());
    EXPECT_EQ(dcp.size(), 0u);
}

TEST(Dcp, RecordAndLookup)
{
    DcpDirectory dcp;
    dcp.record(42, 3);
    const auto way = dcp.lookup(42);
    ASSERT_TRUE(way.has_value());
    EXPECT_EQ(*way, 3u);
}

TEST(Dcp, RecordOverwrites)
{
    DcpDirectory dcp;
    dcp.record(42, 1);
    dcp.record(42, 2);
    EXPECT_EQ(*dcp.lookup(42), 2u);
    EXPECT_EQ(dcp.size(), 1u);
}

TEST(Dcp, EraseRemoves)
{
    DcpDirectory dcp;
    dcp.record(42, 1);
    dcp.erase(42);
    EXPECT_FALSE(dcp.lookup(42).has_value());
    dcp.erase(42);      // idempotent
}

TEST(Dcp, ManyLinesIndependent)
{
    DcpDirectory dcp;
    for (LineAddr line = 0; line < 1000; ++line)
        dcp.record(line, static_cast<unsigned>(line % 8));
    for (LineAddr line = 0; line < 1000; ++line)
        EXPECT_EQ(*dcp.lookup(line), line % 8);
    EXPECT_EQ(dcp.size(), 1000u);
}

// --- derived directory vs the plain map it replaces ------------------

namespace
{

/** Device services an untimed organization never calls. */
class NoDevices final : public OrgServices
{
  public:
    void cacheOp(std::uint64_t, unsigned, bool, dram::MemCallback, bool,
                 trace_event::TxnId) override
    {
    }

    void nvmWrite(LineAddr, dram::MemCallback,
                  trace_event::TxnId) override
    {
    }

    std::function<dram::MemCallback()>
    beginFillGroup(trace_event::TxnId, LineAddr,
                   trace_event::TxnId &fill_txn) override
    {
        fill_txn = trace_event::kNoTxn;
        return [] { return dram::MemCallback{}; };
    }
};

/** One organization over its own tag store and directory. */
struct OrgRig
{
    TagStore tags;
    DcpDirectory dcp;
    DramCacheStats stats;
    NoDevices devices;
    std::unique_ptr<OrgStrategy> org;

    OrgRig(const DramCacheParams &params,
           const core::CacheGeometry &geom, bool derived)
        : tags(geom), dcp(derived ? DcpDirectory(tags) : DcpDirectory())
    {
        registerBuiltinOrganizations();
        org = organizationRegistry()
                  .find(toToken(params.org))
                  ->make(OrgContext{params, geom, tags, dcp, stats,
                                    nullptr, devices});
    }

    /** An untimed demand read, as the controller's warm shell runs it. */
    void
    read(LineAddr line)
    {
        const AccessPlan plan = org->planRead(line);
        const HitLocation loc = resolve(plan, tags);
        if (loc.index < 0) {
            stats.readHits.miss();
            org->onReadMiss(plan.ref);
            org->installAfterMiss(line, false, trace_event::kNoTxn);
            return;
        }
        stats.readHits.hit();
        HitContext hit;
        hit.line = line;
        hit.set = plan.probes[loc.index].set;
        hit.way = loc.way;
        hit.probeIndex = static_cast<unsigned>(loc.index);
        org->onReadHit(hit);
        org->afterReadHit(hit);
    }
};

struct DifferentialCase
{
    const char *name;
    Organization org;
    unsigned ways;
};

class DcpDifferential : public ::testing::TestWithParam<DifferentialCase>
{
};

// The same seeded operation stream drives one organization over a
// derived directory and a twin over a directory with no tag store.
// The twin derives nothing, so it stores every record()/erase() call
// in a plain map: exactly the directory the derived one replaced.
// Operations: demand reads (hits, misses, installs with evictions,
// CA swaps), fills of resident lines, stale broadside-style records,
// and (CA) a line copied into its pair slot.  lookup() must agree on
// every line of the touched set or slot pair after every operation,
// and entries() on the whole directory every 1000 operations.
TEST_P(DcpDifferential, DerivedDirectoryMatchesPlainMap)
{
    const DifferentialCase &c = GetParam();
    DramCacheParams params;
    params.capacityBytes = 64 * lineSize;
    params.ways = c.ways;
    params.org = c.org;
    params.lookup = LookupMode::Serial;
    params.seed = 5;
    const bool ca = c.org == Organization::ColumnAssoc;
    const core::CacheGeometry geom = ca
        ? ColAssocOrg::geometryFor(params)
        : SetAssocOrg::geometryFor(params);

    OrgRig derived(params, geom, true);
    OrgRig plain(params, geom, false);

    constexpr unsigned kOps = 100000;
    const std::uint64_t universe = 4 * geom.lines();
    const std::uint64_t pair_mask = geom.sets / 2;
    Rng rng(1701);
    std::size_t peak_overrides = 0;

    const auto same_lookups = [&](LineAddr line, unsigned op) {
        // Every line that shares the touched set (or CA slot pair).
        const std::uint64_t stride = ca ? pair_mask : geom.sets;
        for (LineAddr l = line % stride; l < universe; l += stride) {
            ASSERT_EQ(derived.dcp.lookup(l), plain.dcp.lookup(l))
                << "line " << l << " after op " << op;
        }
    };

    for (unsigned op = 0; op < kOps; ++op) {
        const LineAddr line = rng.below(universe);
        const std::uint64_t kind = rng.below(100);
        if (kind < 70) {
            derived.read(line);
            plain.read(line);
        } else if (kind < 80) {
            derived.org->installAfterMiss(line, false,
                                          trace_event::kNoTxn);
            plain.org->installAfterMiss(line, false,
                                        trace_event::kNoTxn);
        } else if (kind < 92) {
            // A broadside hit recorded after its line moved on.
            const auto way = static_cast<unsigned>(
                rng.below(ca ? 2 : geom.ways));
            derived.dcp.record(line, way);
            plain.dcp.record(line, way);
        } else if (ca) {
            // Copy the primary slot's line into its pair slot.
            const std::uint64_t primary = line % geom.sets;
            if (derived.tags.valid(primary, 0)) {
                const LineAddr held = derived.tags.tag(primary, 0);
                for (OrgRig *rig : {&derived, &plain}) {
                    const TagStore::Victim victim = rig->tags.install(
                        primary ^ pair_mask, 0, held, false);
                    if (victim.valid)
                        rig->dcp.erase(victim.tag);
                    rig->dcp.record(held, 1);
                }
            }
        } else {
            derived.read(line);
            plain.read(line);
        }
        peak_overrides =
            std::max(peak_overrides, derived.dcp.overrideCount());
        same_lookups(line, op);
        if (HasFatalFailure())
            return;
        if (op % 1000 == 999)
            ASSERT_EQ(derived.dcp.entries(), plain.dcp.entries())
                << "op " << op;
    }

    // The stream covered what it claims to.
    EXPECT_GT(derived.stats.readHits.hits(), 1000u);
    EXPECT_GT(derived.stats.readHits.misses(), 1000u);
    EXPECT_GT(peak_overrides, 0u);
    if (ca)
        EXPECT_GT(derived.stats.swaps.value(), 100u);
    // Disagreements stay a small fraction of the directory.
    EXPECT_LT(derived.dcp.overrideCount(), plain.dcp.size());
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, DcpDifferential,
    ::testing::Values(
        DifferentialCase{"dm", Organization::SetAssoc, 1},
        DifferentialCase{"four_way", Organization::SetAssoc, 4},
        DifferentialCase{"ca", Organization::ColumnAssoc, 1}),
    [](const ::testing::TestParamInfo<DifferentialCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
