#include "dramcache/audit.hpp"

#include "dramcache/controller.hpp"

namespace accord::dramcache
{

std::uint64_t
auditTagStoreRange(const TagStore &tags, InvariantAuditor &auditor,
                   std::uint64_t firstSet, std::uint64_t lastSet)
{
    const core::CacheGeometry &geom = tags.geometry();
    std::uint64_t valid_count = 0;
    for (std::uint64_t set = firstSet; set < lastSet; ++set) {
        // Sets whose slots sit entirely on never-written pages read
        // all-invalid, which violates nothing — skip them so paged
        // gigascale sweeps cost resident pages, not geometry.
        if (!tags.setPossiblyOccupied(set))
            continue;
        for (unsigned way = 0; way < geom.ways; ++way) {
            if (!tags.valid(set, way)) {
                if (tags.dirty(set, way)) {
                    auditor.fail("tag-dirty-invalid",
                                 "set %llu way %u: dirty but invalid",
                                 static_cast<unsigned long long>(set),
                                 way);
                }
                continue;
            }
            ++valid_count;
            for (unsigned other = way + 1; other < geom.ways;
                 ++other) {
                if (tags.valid(set, other)
                    && tags.tag(set, other) == tags.tag(set, way)) {
                    auditor.fail(
                        "tag-duplicate",
                        "set %llu: tag %llx in ways %u and %u",
                        static_cast<unsigned long long>(set),
                        static_cast<unsigned long long>(
                            tags.tag(set, way)),
                        way, other);
                }
            }
        }
    }
    return valid_count;
}

void
auditTagStore(const TagStore &tags, InvariantAuditor &auditor)
{
    const std::uint64_t valid_count =
        auditTagStoreRange(tags, auditor, 0, tags.geometry().sets);
    if (valid_count != tags.occupancy()) {
        auditor.fail("tag-occupancy",
                     "occupancy counter %llu != %llu valid entries",
                     static_cast<unsigned long long>(tags.occupancy()),
                     static_cast<unsigned long long>(valid_count));
    }
}

void
auditPlacementRange(const TagStore &tags, const core::WayPolicy &policy,
                    InvariantAuditor &auditor, std::uint64_t firstSet,
                    std::uint64_t lastSet)
{
    const core::CacheGeometry &geom = tags.geometry();
    for (std::uint64_t set = firstSet; set < lastSet; ++set) {
        if (!tags.setPossiblyOccupied(set))
            continue;
        for (unsigned way = 0; way < geom.ways; ++way) {
            if (!tags.valid(set, way))
                continue;
            const auto ref =
                core::LineRef::make(tags.lineAt(set, way), geom);
            if ((policy.candidates(ref)
                 & (std::uint64_t{1} << way)) == 0) {
                auditor.fail(
                    "placement",
                    "set %llu way %u: line %llx outside its %s "
                    "candidate set %llx",
                    static_cast<unsigned long long>(set), way,
                    static_cast<unsigned long long>(ref.line),
                    policy.name().c_str(),
                    static_cast<unsigned long long>(
                        policy.candidates(ref)));
            }
        }
    }
}

void
auditPlacement(const TagStore &tags, const core::WayPolicy &policy,
               InvariantAuditor &auditor)
{
    auditPlacementRange(tags, policy, auditor, 0,
                        tags.geometry().sets);
}

void
auditDcp(const DcpDirectory &dcp, const TagStore &tags,
         InvariantAuditor &auditor)
{
    const core::CacheGeometry &geom = tags.geometry();
    for (const auto &[line, way] : dcp.entries()) {
        if (way >= geom.ways) {
            auditor.fail("dcp-way-range",
                         "line %llx: way %u out of range (ways=%u)",
                         static_cast<unsigned long long>(line), way,
                         geom.ways);
            continue;
        }
        const auto ref = core::LineRef::make(line, geom);
        if (!tags.valid(ref.set, way)
            || tags.tag(ref.set, way) != ref.tag) {
            auditor.fail("dcp-coherence",
                         "line %llx: directory says way %u of set "
                         "%llu, but that way holds %s tag %llx",
                         static_cast<unsigned long long>(line), way,
                         static_cast<unsigned long long>(ref.set),
                         tags.valid(ref.set, way) ? "valid"
                                                  : "invalid",
                         static_cast<unsigned long long>(
                             tags.tag(ref.set, way)));
        }
    }
}

void
auditDcpForward(const DcpDirectory &dcp, const TagStore &tags,
                InvariantAuditor &auditor, std::uint64_t firstSet,
                std::uint64_t lastSet)
{
    const core::CacheGeometry &geom = tags.geometry();
    for (std::uint64_t set = firstSet; set < lastSet; ++set) {
        if (!tags.setPossiblyOccupied(set))
            continue;
        for (unsigned way = 0; way < geom.ways; ++way) {
            if (!tags.valid(set, way))
                continue;
            const LineAddr line = tags.lineAt(set, way);
            const auto recorded = dcp.lookup(line);
            if (recorded && *recorded != way) {
                auditor.fail(
                    "dcp-coherence",
                    "line %llx: directory says way %u, but set %llu "
                    "holds it in way %u",
                    static_cast<unsigned long long>(line), *recorded,
                    static_cast<unsigned long long>(set), way);
            }
        }
    }
}

void
auditCaSlotRange(const TagStore &tags, const DcpDirectory &dcp,
                 std::uint64_t pairMask, InvariantAuditor &auditor,
                 std::uint64_t firstSlot, std::uint64_t lastSlot)
{
    const std::uint64_t slots = tags.geometry().sets;
    for (std::uint64_t slot = firstSlot; slot < lastSlot; ++slot) {
        if (!tags.setPossiblyOccupied(slot) || !tags.valid(slot, 0))
            continue;
        const LineAddr line = tags.tag(slot, 0);
        const std::uint64_t primary = line & (slots - 1);
        const std::uint64_t pair = primary ^ pairMask;
        if (slot != primary && slot != pair) {
            auditor.fail(
                "ca-slot",
                "slot %llu holds line %llx whose primary is %llu",
                static_cast<unsigned long long>(slot),
                static_cast<unsigned long long>(line),
                static_cast<unsigned long long>(primary));
        }
        // Reported once, at the primary slot of the pair.
        if (slot == primary && tags.valid(pair, 0)
            && tags.tag(pair, 0) == line) {
            auditor.fail(
                "ca-duplicate",
                "line %llx sits in both its primary slot %llu and its "
                "pair slot %llu",
                static_cast<unsigned long long>(line),
                static_cast<unsigned long long>(primary),
                static_cast<unsigned long long>(pair));
        }
        const auto sel = dcp.lookup(line);
        if (sel && *sel > 1) {
            auditor.fail("dcp-way-range",
                         "line %llx: CA slot selector %u not 0/1",
                         static_cast<unsigned long long>(line), *sel);
        } else if (sel
                   && (*sel == 0 ? primary : pair) != slot) {
            auditor.fail(
                "dcp-coherence",
                "line %llx: directory selector %u resolves to slot "
                "%llu, but slot %llu holds it",
                static_cast<unsigned long long>(line), *sel,
                static_cast<unsigned long long>(
                    *sel == 0 ? primary : pair),
                static_cast<unsigned long long>(slot));
        }
    }
}

void
auditCaDcpReverse(const TagStore &tags, const DcpDirectory &dcp,
                  std::uint64_t pairMask, InvariantAuditor &auditor)
{
    const std::uint64_t slots = tags.geometry().sets;
    for (const auto &[line, sel] : dcp.entries()) {
        if (sel > 1) {
            auditor.fail("dcp-way-range",
                         "line %llx: CA slot selector %u not 0/1",
                         static_cast<unsigned long long>(line), sel);
            continue;
        }
        const std::uint64_t primary = line & (slots - 1);
        const std::uint64_t slot =
            sel == 0 ? primary : primary ^ pairMask;
        if (!(tags.valid(slot, 0) && tags.tag(slot, 0) == line)) {
            auditor.fail(
                "dcp-coherence",
                "line %llx: directory says slot %llu, which does "
                "not hold it",
                static_cast<unsigned long long>(line),
                static_cast<unsigned long long>(slot));
        }
    }
}

void
auditStats(const DramCacheStats &stats, InvariantAuditor &auditor)
{
    if (stats.wayPrediction.total() != stats.readHits.hits()) {
        auditor.fail("stats-way-prediction",
                     "way prediction sampled %llu times over %llu "
                     "read hits",
                     static_cast<unsigned long long>(
                         stats.wayPrediction.total()),
                     static_cast<unsigned long long>(
                         stats.readHits.hits()));
    }
    if (stats.nvmReads.value() != stats.readHits.misses()) {
        auditor.fail("stats-miss-fills",
                     "%llu NVM reads for %llu read misses",
                     static_cast<unsigned long long>(
                         stats.nvmReads.value()),
                     static_cast<unsigned long long>(
                         stats.readHits.misses()));
    }
    if (stats.probesPerRead.count() != stats.readHits.total()) {
        auditor.fail("stats-probe-samples",
                     "probe count sampled %llu times over %llu reads",
                     static_cast<unsigned long long>(
                         stats.probesPerRead.count()),
                     static_cast<unsigned long long>(
                         stats.readHits.total()));
    }
    if (stats.readHitLatency.count() + stats.readMissLatency.count()
        > stats.readHits.total()) {
        auditor.fail("stats-latency-samples",
                     "%llu latency samples exceed %llu reads",
                     static_cast<unsigned long long>(
                         stats.readHitLatency.count()
                         + stats.readMissLatency.count()),
                     static_cast<unsigned long long>(
                         stats.readHits.total()));
    }
}

} // namespace accord::dramcache
