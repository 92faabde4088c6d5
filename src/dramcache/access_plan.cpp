#include "dramcache/access_plan.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "dramcache/enums.hpp"

namespace accord::dramcache
{

namespace
{

/**
 * Candidate probe order for a set-associative line: the predicted way
 * first, then the remaining candidate ways ascending.
 */
unsigned
probeOrder(const core::LineRef &ref, core::WayPolicy *policy,
           const core::CacheGeometry &geom,
           std::array<unsigned, kMaxWays> &order)
{
    if (geom.ways == 1) {
        order[0] = 0;
        return 1;
    }

    std::uint64_t mask =
        policy ? policy->candidates(ref) : geom.allWaysMask();
    unsigned first;
    if (policy) {
        first = policy->predict(ref);
        if (!(mask & (std::uint64_t{1} << first))) {
            // A prediction outside the candidate set cannot be probed;
            // fall back to the lowest candidate.
            first = static_cast<unsigned>(std::countr_zero(mask));
        }
    } else {
        first = static_cast<unsigned>(std::countr_zero(mask));
    }

    unsigned count = 0;
    order[count++] = first;
    mask &= ~(std::uint64_t{1} << first);
    while (mask != 0) {
        const unsigned way =
            static_cast<unsigned>(std::countr_zero(mask));
        order[count++] = way;
        mask &= mask - 1;
    }
    return count;
}

/** Poison the probe slots a plan leaves unwritten. */
void
poisonUnused(AccessPlan &plan)
{
#if ACCORD_CHECKS_ENABLED
    for (unsigned i = plan.probeCount; i < kMaxWays; ++i)
        plan.probes[i].set = ~std::uint64_t{0};
#else
    (void)plan;
#endif
}

} // namespace

AccessPlan::AccessPlan(const core::LineRef &ref, IssueShape shape,
                       const unsigned *order, unsigned count)
    : ref(ref), shape(shape), probeCount(count)
{
    for (unsigned i = 0; i < count; ++i)
        probes[i] = {ref.set, ref.tag, order[i], order[i]};
    poisonUnused(*this);
}

AccessPlan::AccessPlan(const core::LineRef &ref, IssueShape shape,
                       std::initializer_list<ProbeStep> steps)
    : ref(ref), shape(shape),
      probeCount(static_cast<unsigned>(steps.size()))
{
    ACCORD_ASSERT(steps.size() <= kMaxWays,
                  "plan exceeds the plan-core probe bound");
    std::copy(steps.begin(), steps.end(), probes.begin());
    poisonUnused(*this);
}

HitLocation
resolve(const AccessPlan &plan, const TagStore &tags)
{
    HitLocation loc;
    if (plan.shape == IssueShape::Single) {
        // The magic probe sees the whole set, wherever the line sits.
        const int way = tags.findWay(plan.ref.set, plan.ref.tag);
        if (way >= 0) {
            loc.index = 0;
            loc.way = static_cast<unsigned>(way);
        }
        return loc;
    }
    for (unsigned i = 0; i < plan.probeCount; ++i) {
        if (stepHits(plan.probes[i], tags)) {
            loc.index = static_cast<int>(i);
            loc.way = plan.probes[i].way;
            return loc;
        }
    }
    return loc;
}

AccessPlan
planLookup(const core::LineRef &ref, core::WayPolicy *policy,
           const core::CacheGeometry &geom, LookupMode mode)
{
    ACCORD_ASSERT(geom.ways <= kMaxWays,
                  "geometry exceeds the plan-core way bound");
    std::array<unsigned, kMaxWays> order;
    unsigned count = probeOrder(ref, policy, geom, order);

    IssueShape shape = IssueShape::Chained;
    switch (mode) {
      case LookupMode::Serial:
      case LookupMode::Predicted:
        // Both probe one way at a time in candidate order; Predicted
        // differs only in how the policy picked the first way.
        shape = IssueShape::Chained;
        break;
      case LookupMode::Parallel:
        shape = IssueShape::Broadside;
        break;
      case LookupMode::Ideal:
        // One magic probe; resolve() sees the whole set.
        shape = IssueShape::Single;
        order[0] = 0;
        count = 1;
        break;
    }
    return AccessPlan(ref, shape, order.data(), count);
}

AccessPlan
planLocate(const core::LineRef &ref, core::WayPolicy *policy,
           const core::CacheGeometry &geom)
{
    ACCORD_ASSERT(geom.ways <= kMaxWays,
                  "geometry exceeds the plan-core way bound");
    std::array<unsigned, kMaxWays> order;
    const unsigned count = probeOrder(ref, policy, geom, order);
    return AccessPlan(ref, IssueShape::Chained, order.data(), count);
}

AccessPlan
planCaLookup(LineAddr line, std::uint64_t primary,
             std::uint64_t secondary)
{
    // CA slots index a ways==1 geometry: set = slot, tag = full line.
    core::LineRef ref;
    ref.line = line;
    ref.set = primary;
    ref.tag = line;
    return AccessPlan(ref, IssueShape::Chained,
                      {{.set = primary, .matchTag = line, .way = 0,
                        .traceWay = 0},
                       {.set = secondary, .matchTag = line, .way = 0,
                        .traceWay = 1}});
}

} // namespace accord::dramcache
