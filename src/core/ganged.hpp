/**
 * @file
 * Ganged Way-Steering (GWS, paper Section IV-C).
 *
 * GWS coordinates install decisions across the sets spanned by a 4KB
 * region: the first missing line of a region picks a way (via the base
 * policy) and subsequent installs from that region follow it (Recent
 * Install Table).  Prediction tracks the last way seen per region
 * (Recent Lookup Table).  Two 64-entry tables -> 320 bytes of SRAM.
 *
 * GWS is a decorator: it wraps any base policy (unbiased random for
 * plain "GWS", PWS for "PWS+GWS", SWS for the high-associativity
 * ACCORD) and defers to it on table misses.
 */

#ifndef ACCORD_CORE_GANGED_HPP
#define ACCORD_CORE_GANGED_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/way_policy.hpp"

namespace accord::core
{

/**
 * Small fully-associative LRU table mapping region id -> way.
 *
 * Models the paper's RIT and RLT; entries() is small (64) so a linear
 * scan is both faithful to the hardware and fast.  Slot state lives
 * in plain struct-of-arrays vectors sized once at construction, and
 * the slot of the last hit is checked before the scan: regions are
 * unique among valid slots (the gws-dup-region audit), so a memo hit
 * is the slot the scan would have found.
 */
class RegionTable
{
  public:
    explicit RegionTable(unsigned entries);

    /** Way recorded for the region, if tracked; refreshes LRU. */
    std::optional<unsigned> lookup(std::uint64_t region);

    /** Record (or update) the way for a region, evicting LRU. */
    void insert(std::uint64_t region, unsigned way);

    /** Drop a region's entry if present. */
    void invalidate(std::uint64_t region);

    unsigned entries() const
        { return static_cast<unsigned>(regions.size()); }

    /** Valid entries (for tests). */
    unsigned occupancy() const;

    /**
     * Record table-consistency violations: capacity above the
     * configured bound, stored ways >= maxWays, duplicate regions, or
     * LRU stamps ahead of the use clock.  `label` distinguishes RIT
     * from RLT in the report.
     */
    void audit(InvariantAuditor &auditor, const char *label,
               unsigned maxWays, unsigned maxEntries) const;

    /** Host bytes backing the table's slot arrays. */
    std::uint64_t residentStateBytes() const;

  private:
    /** Slot holding `region`, or entries(); remembers a hit. */
    unsigned find(std::uint64_t region);

    /** Slot a new region replaces. */
    unsigned victim() const;

    /** Stamp `slot` as most recently used and remember it. */
    void touch(unsigned slot)
    {
        last_use[slot] = ++use_clock;
        last_hit = slot;
    }

    // Struct-of-arrays slot state.
    std::vector<std::uint64_t> regions;
    std::vector<std::uint64_t> last_use;
    std::vector<std::uint8_t> ways_;
    std::vector<std::uint8_t> valid_;
    unsigned last_hit = 0;
    std::uint64_t use_clock = 0;
};

/** Configuration for GWS tables. */
struct GangedParams
{
    unsigned ritEntries = 64;
    unsigned rltEntries = 64;

    /** Region tag bits assumed for the storage estimate (paper: 19). */
    unsigned regionTagBits = 19;
};

/** Ganged Way-Steering decorator over a base policy. */
class GangedPolicy : public WayPolicy
{
  public:
    GangedPolicy(std::unique_ptr<WayPolicy> base,
                 const GangedParams &params);

    unsigned predict(const LineRef &ref) override;
    unsigned install(const LineRef &ref) override;
    std::uint64_t candidates(const LineRef &ref) const override;
    void onHit(const LineRef &ref, unsigned way) override;
    void onMiss(const LineRef &ref) override;
    void onInstall(const LineRef &ref, unsigned way) override;
    std::uint64_t storageBits() const override;
    std::uint64_t residentStateBytes() const override;
    std::string name() const override;
    void audit(InvariantAuditor &auditor) const override;
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const override;

    /** Fraction of predictions served by the RLT (for analysis). */
    double rltCoverage() const;

    WayPolicy &base() { return *base_; }

  private:
    std::unique_ptr<WayPolicy> base_;
    GangedParams params;
    RegionTable rit;
    RegionTable rlt;
    std::uint64_t rlt_hits = 0;
    std::uint64_t predictions = 0;
};

} // namespace accord::core

#endif // ACCORD_CORE_GANGED_HPP
