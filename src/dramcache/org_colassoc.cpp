#include "dramcache/org_colassoc.hpp"

#include "common/bits.hpp"
#include "common/log.hpp"
#include "dramcache/audit.hpp"

namespace accord::dramcache
{

core::CacheGeometry
ColAssocOrg::geometryFor(const DramCacheParams &params)
{
    core::CacheGeometry geom;
    geom.ways = 1;
    geom.sets = params.capacityBytes / lineSize;
    if (!isPow2(geom.sets))
        fatal("dram cache: set count must be a power of two");
    return geom;
}

ColAssocOrg::ColAssocOrg(const OrgContext &ctx) : OrgStrategy(ctx)
{
    ACCORD_ASSERT(!ctx_.policy, "CA-cache does not take a way policy");
    ACCORD_ASSERT(ctx_.params.replacement == L4Replacement::Random,
                  "LRU ablation applies to set-associative mode");
    ACCORD_ASSERT(ctx_.geom.sets >= 2, "CA-cache needs >= 2 slots");
    ca_pair_mask = ctx_.geom.sets >> 1;
    ctx_.dcp.useColumnPairs(ca_pair_mask);
}

std::uint64_t
ColAssocOrg::primarySlot(LineAddr line) const
{
    return line & (ctx_.geom.sets - 1);
}

std::uint64_t
ColAssocOrg::pairSlot(std::uint64_t slot) const
{
    return slot ^ ca_pair_mask;
}

bool
ColAssocOrg::slotHolds(std::uint64_t slot, LineAddr line) const
{
    // CA mode stores full line addresses as tags.
    return ctx_.tags.valid(slot, 0) && ctx_.tags.tag(slot, 0) == line;
}

AccessPlan
ColAssocOrg::planRead(LineAddr line)
{
    const std::uint64_t primary = primarySlot(line);
    return planCaLookup(line, primary, pairSlot(primary));
}

AccessPlan
ColAssocOrg::planDemandLocate(LineAddr line)
{
    // Same primary-then-pair sweep as a demand read.
    return planRead(line);
}

void
ColAssocOrg::onReadHit(const HitContext &hit)
{
    // A primary-slot hit refreshes the DCP selector; a pair-slot hit
    // leaves it to the post-completion swap, which re-records both
    // moved lines.
    if (hit.probeIndex == 0)
        ctx_.dcp.record(hit.line, 0);
}

void
ColAssocOrg::afterReadHit(const HitContext &hit)
{
    if (hit.probeIndex == 0)
        return;
    // Swap-to-primary off the critical path.
    const std::uint64_t primary = primarySlot(hit.line);
    const std::uint64_t secondary = pairSlot(primary);
    swapSlots(primary, secondary);
    if (hit.timed) {
        ctx_.services.cacheOp(primary, 0, true, {}, false, hit.trace);
        ctx_.services.cacheOp(secondary, 0, true, {}, false, hit.trace);
    }
}

void
ColAssocOrg::swapSlots(std::uint64_t primary, std::uint64_t secondary)
{
    TagStore &tags = ctx_.tags;
    const bool p_valid = tags.valid(primary, 0);
    const bool s_valid = tags.valid(secondary, 0);
    const std::uint64_t p_line = p_valid ? tags.tag(primary, 0) : 0;
    const std::uint64_t s_line = s_valid ? tags.tag(secondary, 0) : 0;
    const bool p_dirty = p_valid && tags.dirty(primary, 0);
    const bool s_dirty = s_valid && tags.dirty(secondary, 0);

    if (s_valid)
        tags.install(primary, 0, s_line, s_dirty);
    else
        tags.invalidate(primary, 0);
    if (p_valid)
        tags.install(secondary, 0, p_line, p_dirty);
    else
        tags.invalidate(secondary, 0);

    // Both slots are rewritten: two line transfers.
    ctx_.stats.cacheWriteTransfers.inc(2);
    ctx_.stats.swaps.inc();

    if (s_valid)
        ctx_.dcp.record(s_line,
                        primarySlot(s_line) == primary ? 0u : 1u);
    if (p_valid)
        ctx_.dcp.record(p_line,
                        primarySlot(p_line) == secondary ? 0u : 1u);
}

void
ColAssocOrg::installAfterMiss(LineAddr line, bool timed,
                              trace_event::TxnId parent)
{
    const std::uint64_t primary = primarySlot(line);
    const std::uint64_t secondary = pairSlot(primary);

    // Two overlapping misses to one line can both reach the fill
    // path; the second must not copy the line into its pair slot
    // (evicting that slot's occupant).  It only refreshes the DCP.
    const bool at_primary = slotHolds(primary, line);
    if (at_primary || slotHolds(secondary, line)) {
        ctx_.dcp.record(line, at_primary ? 0u : 1u);
        return;
    }

    // The posted install is one Fill trace transaction spanning the
    // relocation write, any victim writeback, and the fill write.
    trace_event::TxnId fill_txn = trace_event::kNoTxn;
    auto member = ctx_.services.beginFillGroup(parent, line, fill_txn);

    // Displace the primary occupant to the secondary slot, evicting
    // whatever lived there; the new line always lands at primary.
    TagStore &tags = ctx_.tags;
    const bool old_valid = tags.valid(primary, 0);
    const std::uint64_t old_line = old_valid ? tags.tag(primary, 0) : 0;
    TagStore::Victim evicted;
    if (old_valid) {
        evicted = tags.install(secondary, 0, old_line,
                               tags.dirty(primary, 0));
        ctx_.stats.cacheWriteTransfers.inc();   // the relocation write
        if (timed)
            ctx_.services.cacheOp(secondary, 0, true, member(), false,
                                  fill_txn);
        if (evicted.valid && evicted.dirty) {
            ctx_.stats.nvmWrites.inc();
            if (timed)
                ctx_.services.nvmWrite(evicted.tag, member(), fill_txn);
        }
    }

    tags.install(primary, 0, line, false);
    ctx_.stats.cacheWriteTransfers.inc();       // the fill write
    if (timed)
        ctx_.services.cacheOp(primary, 0, true, member(), false,
                              fill_txn);

    // The directory derives from the tags, so it is told about each
    // move only once both slots hold their new lines.
    if (old_valid) {
        ctx_.dcp.record(old_line,
                        primarySlot(old_line) == secondary ? 0u : 1u);
        if (evicted.valid)
            ctx_.dcp.erase(evicted.tag);
    }
    ctx_.dcp.record(line, 0);
}

DcpTarget
ColAssocOrg::dcpTarget(LineAddr line, unsigned selector) const
{
    const std::uint64_t primary = primarySlot(line);
    DcpTarget target;
    target.set = selector == 0 ? primary : pairSlot(primary);
    target.way = 0;
    target.present = slotHolds(target.set, line);
    return target;
}

void
ColAssocOrg::auditRange(InvariantAuditor &auditor,
                        std::uint64_t firstSlot,
                        std::uint64_t lastSlot) const
{
    auditCaSlotRange(ctx_.tags, ctx_.dcp, ca_pair_mask, auditor,
                     firstSlot, lastSlot);
}

void
ColAssocOrg::auditFull(InvariantAuditor &auditor) const
{
    auditCaSlotRange(ctx_.tags, ctx_.dcp, ca_pair_mask, auditor, 0,
                     ctx_.geom.sets);
    auditCaDcpReverse(ctx_.tags, ctx_.dcp, ca_pair_mask, auditor);
}

std::string
ColAssocOrg::describe() const
{
    return "ca-cache";
}

} // namespace accord::dramcache
