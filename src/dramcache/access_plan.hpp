/**
 * @file
 * The pure lookup-decision core of the DRAM cache.
 *
 * Given a line, a tag-store view, the way policy, and the lookup mode,
 * planLookup() produces a side-effect-free AccessPlan: which array
 * slots to probe, in what order, with what issue shape, and what each
 * outcome costs in line transfers.  Both the untimed warm shell and
 * the timed transaction engine execute the SAME plan, so the
 * functional and timed paths cannot diverge by construction — the
 * drift the old duplicated `switch (params.lookup)` blocks allowed.
 *
 * This header owns the probe-count bound: every probe sequence fits in
 * kMaxWays steps, and geometries are validated against it at
 * construction instead of each caller re-declaring the magic array.
 */

#ifndef ACCORD_DRAMCACHE_ACCESS_PLAN_HPP
#define ACCORD_DRAMCACHE_ACCESS_PLAN_HPP

#include <array>
#include <cstdint>
#include <initializer_list>

#include "core/way_policy.hpp"
#include "dramcache/tag_store.hpp"

namespace accord::dramcache
{

enum class LookupMode;

/** Hard upper bound on probes per access (and ways per set). */
inline constexpr unsigned kMaxWays = 64;

/** How the probes of a plan go to the device. */
enum class IssueShape
{
    /** One probe at a time; each checks live tags before the next. */
    Chained,

    /** All probes issued at once; hit position fixed at issue. */
    Broadside,

    /** One magic probe resolves hit and miss alike (Ideal bound). */
    Single,
};

/**
 * One array slot a lookup may touch.  No default member initializers:
 * a plan writes only the steps it uses, so building one never pays
 * for the kMaxWays - probeCount slots it leaves alone.
 */
struct ProbeStep
{
    /** Array set (a CA plan probes two different slots). */
    std::uint64_t set;

    /** Tag value that means "hit" at this slot. */
    std::uint64_t matchTag;

    /** Way within the set. */
    unsigned way;

    /** Way argument for trace points (CA reports the slot index). */
    unsigned traceWay;
};

/** Where a plan's probes found the line. */
struct HitLocation
{
    /** Probe index of the hit, or -1 when the line is absent. */
    int index = -1;

    /** Way holding the line (valid when index >= 0). */
    unsigned way = 0;
};

/**
 * A side-effect-free lookup decision: probe sequence plus the
 * transfer accounting both execution shells share.
 *
 * A plan is built once, in its final storage (the plan functions
 * return prvalues, so the caller's variable or the timed engine's
 * transaction is the object constructed), and is never copied.  Only
 * probes [0, probeCount) are written and read; under
 * ACCORD_CHECKS_ENABLED the rest carry an out-of-range set, so a
 * stray read trips TagStore's index check.
 */
struct AccessPlan
{
    /** Probe i checks way order[i] of ref's set for ref's tag. */
    AccessPlan(const core::LineRef &ref, IssueShape shape,
               const unsigned *order, unsigned count);

    /** Probe the given steps in order (the CA slot pair). */
    AccessPlan(const core::LineRef &ref, IssueShape shape,
               std::initializer_list<ProbeStep> steps);

    AccessPlan(const AccessPlan &) = delete;
    AccessPlan &operator=(const AccessPlan &) = delete;

    core::LineRef ref;
    IssueShape shape;
    unsigned probeCount;
    std::array<ProbeStep, kMaxWays> probes;

    /** Line transfers a hit at probe index `index` costs. */
    unsigned
    hitTransfers(unsigned index) const
    {
        switch (shape) {
          case IssueShape::Broadside: return probeCount;
          case IssueShape::Single: return 1;
          case IssueShape::Chained: break;
        }
        return index + 1;
    }

    /** Line transfers a miss costs (full confirmation sweep). */
    unsigned
    missTransfers() const
    {
        return shape == IssueShape::Single ? 1 : probeCount;
    }

    /** Whether a hit at probe index `index` counts as predicted. */
    static bool
    predictedAt(unsigned index)
    {
        return index == 0;
    }
};

/** True when the tag store currently holds the step's line. */
inline bool
stepHits(const ProbeStep &step, const TagStore &tags)
{
    return tags.valid(step.set, step.way)
        && tags.tag(step.set, step.way) == step.matchTag;
}

/**
 * Resolve a plan against the current tag state.  Chained and
 * Broadside plans scan their probe sequence; a Single plan consults
 * the tag store directly (the magic probe sees the whole set).
 */
HitLocation resolve(const AccessPlan &plan, const TagStore &tags);

/**
 * Plan a set-associative lookup: probe order (predicted way first,
 * then the remaining policy candidates) plus the issue shape and
 * transfer accounting of `mode`.  This function is the ONE place that
 * dispatches on LookupMode.
 */
AccessPlan planLookup(const core::LineRef &ref, core::WayPolicy *policy,
                      const core::CacheGeometry &geom, LookupMode mode);

/**
 * Plan a set-associative locate sweep (writeback routing without DCP
 * way bits): always chained over the full candidate order, regardless
 * of the demand-lookup mode.
 */
AccessPlan planLocate(const core::LineRef &ref, core::WayPolicy *policy,
                      const core::CacheGeometry &geom);

/**
 * Plan a column-associative lookup: primary slot then its pair slot,
 * chained, with full line addresses as match tags.
 */
AccessPlan planCaLookup(LineAddr line, std::uint64_t primary,
                        std::uint64_t secondary);

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_ACCESS_PLAN_HPP
