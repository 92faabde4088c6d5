#include "core/ganged.hpp"

#include "common/bits.hpp"
#include "common/invariant_auditor.hpp"
#include "common/log.hpp"
#include "common/metrics/registry.hpp"

namespace accord::core
{

RegionTable::RegionTable(unsigned entries)
    : regions(entries, 0), last_use(entries, 0), ways_(entries, 0),
      valid_(entries, 0)
{
    ACCORD_ASSERT(entries > 0, "region table needs entries");
}

unsigned
RegionTable::find(std::uint64_t region)
{
    if (valid_[last_hit] && regions[last_hit] == region)
        return last_hit;
    for (unsigned i = 0; i < regions.size(); ++i) {
        if (regions[i] == region && valid_[i])
            return last_hit = i;
    }
    return entries();
}

std::optional<unsigned>
RegionTable::lookup(std::uint64_t region)
{
    const unsigned slot = find(region);
    if (slot == entries())
        return std::nullopt;
    touch(slot);
    return ways_[slot];
}

void
RegionTable::insert(std::uint64_t region, unsigned way)
{
    unsigned slot = find(region);
    if (slot == entries()) {
        slot = victim();
        valid_[slot] = 1;
        regions[slot] = region;
    }
    ways_[slot] = static_cast<std::uint8_t>(way);
    touch(slot);
}

unsigned
RegionTable::victim() const
{
    // The first invalid slot, else the least recently used one (valid
    // stamps are distinct, so the minimum is unique).  The minimum is
    // tracked with selects rather than a branch: on a thrashing table
    // the branch is unpredictable and the scan runs on every insert.
    unsigned lru = 0;
    std::uint64_t oldest = last_use[0];
    for (unsigned i = 0; i < regions.size(); ++i) {
        if (!valid_[i])
            return i;
        const bool older = last_use[i] < oldest;
        lru = older ? i : lru;
        oldest = older ? last_use[i] : oldest;
    }
    return lru;
}

void
RegionTable::invalidate(std::uint64_t region)
{
    const unsigned slot = find(region);
    if (slot != entries())
        valid_[slot] = 0;
}

unsigned
RegionTable::occupancy() const
{
    unsigned count = 0;
    for (const std::uint8_t valid : valid_)
        count += valid ? 1 : 0;
    return count;
}

std::uint64_t
RegionTable::residentStateBytes() const
{
    return regions.size()
        * (sizeof(std::uint64_t) + sizeof(std::uint64_t)
           + sizeof(std::uint8_t) + sizeof(std::uint8_t));
}

void
RegionTable::audit(InvariantAuditor &auditor, const char *label,
                   unsigned maxWays, unsigned maxEntries) const
{
    if (regions.size() > maxEntries) {
        auditor.fail("gws-table-bound",
                     "%s holds %llu slots, configured bound is %u",
                     label,
                     static_cast<unsigned long long>(regions.size()),
                     maxEntries);
    }
    for (std::uint64_t i = 0; i < regions.size(); ++i) {
        if (!valid_[i])
            continue;
        if (ways_[i] >= maxWays) {
            auditor.fail("gws-way-range",
                         "%s slot %llu: way %u out of range (ways=%u)",
                         label, static_cast<unsigned long long>(i),
                         ways_[i], maxWays);
        }
        if (last_use[i] > use_clock) {
            auditor.fail("gws-lru-clock",
                         "%s slot %llu: stamp %llu ahead of clock %llu",
                         label, static_cast<unsigned long long>(i),
                         static_cast<unsigned long long>(last_use[i]),
                         static_cast<unsigned long long>(use_clock));
        }
        for (std::uint64_t j = i + 1; j < regions.size(); ++j) {
            if (valid_[j] && regions[j] == regions[i]) {
                auditor.fail("gws-dup-region",
                             "%s slots %llu and %llu both map region "
                             "%llx",
                             label, static_cast<unsigned long long>(i),
                             static_cast<unsigned long long>(j),
                             static_cast<unsigned long long>(
                                 regions[i]));
            }
        }
    }
}

GangedPolicy::GangedPolicy(std::unique_ptr<WayPolicy> base,
                           const GangedParams &params)
    : WayPolicy(base->geometry()), base_(std::move(base)), params(params),
      rit(params.ritEntries), rlt(params.rltEntries)
{
    // Lines of one 4KB region must share their tag so the ganged way is
    // always inside the base policy's candidate set; this holds as long
    // as the set index covers the in-region line bits.
    ACCORD_ASSERT(geom_.setBits() >= regionShift - lineShift,
                  "GWS requires at least 64 sets");
}

unsigned
GangedPolicy::predict(const LineRef &ref)
{
    ++predictions;
    if (const auto way = rlt.lookup(regionOf(ref.line))) {
        ++rlt_hits;
        return *way;
    }
    return base_->predict(ref);
}

unsigned
GangedPolicy::install(const LineRef &ref)
{
    const std::uint64_t region = regionOf(ref.line);
    if (const auto way = rit.lookup(region))
        return *way;
    const unsigned way = base_->install(ref);
    rit.insert(region, way);
    return way;
}

std::uint64_t
GangedPolicy::candidates(const LineRef &ref) const
{
    return base_->candidates(ref);
}

void
GangedPolicy::onHit(const LineRef &ref, unsigned way)
{
    ACCORD_ASSERT(way < geom_.ways, "onHit way %u out of range", way);
    rlt.insert(regionOf(ref.line), way);
    base_->onHit(ref, way);
}

void
GangedPolicy::onMiss(const LineRef &ref)
{
    base_->onMiss(ref);
}

void
GangedPolicy::onInstall(const LineRef &ref, unsigned way)
{
    ACCORD_ASSERT(way < geom_.ways, "onInstall way %u out of range",
                  way);
    rlt.insert(regionOf(ref.line), way);
    base_->onInstall(ref, way);
}

std::uint64_t
GangedPolicy::storageBits() const
{
    const unsigned way_bits =
        geom_.ways > 1 ? floorLog2(geom_.ways) : 1;
    const std::uint64_t per_entry =
        params.regionTagBits + 1 /* valid */ + way_bits;
    return (params.ritEntries + params.rltEntries) * per_entry
        + base_->storageBits();
}

std::uint64_t
GangedPolicy::residentStateBytes() const
{
    return rit.residentStateBytes() + rlt.residentStateBytes()
        + base_->residentStateBytes();
}

std::string
GangedPolicy::name() const
{
    const std::string inner = base_->name();
    return inner == "rand" ? "gws" : inner + "+gws";
}

void
GangedPolicy::audit(InvariantAuditor &auditor) const
{
    rit.audit(auditor, "rit", geom_.ways, params.ritEntries);
    rlt.audit(auditor, "rlt", geom_.ways, params.rltEntries);
    if (rlt_hits > predictions) {
        auditor.fail("gws-coverage",
                     "rlt hits %llu exceed predictions %llu",
                     static_cast<unsigned long long>(rlt_hits),
                     static_cast<unsigned long long>(predictions));
    }
    base_->audit(auditor);
}

double
GangedPolicy::rltCoverage() const
{
    return predictions == 0
        ? 0.0
        : static_cast<double>(rlt_hits)
            / static_cast<double>(predictions);
}

void
GangedPolicy::registerMetrics(MetricRegistry &registry,
                              const std::string &prefix) const
{
    registry.addValue(MetricRegistry::join(prefix, "rlt_hits"),
                      rlt_hits);
    registry.addValue(MetricRegistry::join(prefix, "predictions"),
                      predictions);
    registry.addGauge(MetricRegistry::join(prefix, "rlt_coverage"),
                      [this] { return rltCoverage(); });
    base_->registerMetrics(registry,
                           MetricRegistry::join(prefix, "base"));
}

} // namespace accord::core
