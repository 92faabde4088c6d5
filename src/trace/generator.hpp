/**
 * @file
 * Synthetic access-stream generators.
 *
 * These stand in for the paper's SPEC/GAP/HPC traces (see DESIGN.md,
 * substitutions): each generator emits the stream of line addresses
 * that reaches the DRAM cache (the post-L3 miss stream), shaped by the
 * knobs that matter to ACCORD — footprint vs. cache capacity (capacity
 * and conflict misses), region-level spatial run length (GWS
 * gangability), hot/cold skew (hit rate), and writeback fraction.
 *
 * Address layout mimics paged virtual memory: a workload's region
 * index is hashed to a physical 4KB region, so contiguity within a
 * region survives while region placement is effectively random —
 * exactly the situation a physically indexed DRAM cache sees.
 *
 * All generators implement the TrafficSource interface (source.hpp);
 * they are normally built through the source registry ("synthetic",
 * "cyclic") rather than constructed directly.
 */

#ifndef ACCORD_TRACE_GENERATOR_HPP
#define ACCORD_TRACE_GENERATOR_HPP

#include <cstdint>
#include <deque>
#include <memory>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "trace/source.hpp"

namespace accord::trace
{

/** Physical region space the hashed layout maps into (128 GB / 4KB). */
inline constexpr std::uint64_t physRegionSpace = 1ULL << 25;

/** Map (workload region index, salt) to a physical region id. */
std::uint64_t physRegionOf(std::uint64_t region, std::uint64_t salt);

/** Knobs of the two-component hot/cold region workload model. */
struct WorkloadGenParams
{
    /** Total footprint in lines (already scaled). */
    std::uint64_t footprintLines = 1 << 20;

    /** Fraction of the footprint that forms the hot working set. */
    double hotPortion = 0.25;

    /** Probability an access run targets the hot set. */
    double hotAccessFrac = 0.80;

    /** Consecutive lines per run in the hot component (1..64). */
    unsigned hotRunLen = 8;

    /** Consecutive lines per run in the cold component (1..64). */
    unsigned coldRunLen = 8;

    /** Cold regions visited randomly (true) or by cyclic scan. */
    bool coldRandom = false;

    /** Hash salt so cores/workloads occupy distinct physical pages. */
    std::uint64_t salt = 0;

    std::uint64_t seed = 1;

    /**
     * Footprint passes of functional warmup this stream wants
     * (WorkloadSpec::warmPasses; feeds defaultWarmQuota()).
     */
    unsigned warmPasses = 6;
};

/** Hot/cold region-run generator used for all named workloads. */
class WorkloadGen : public TrafficSource
{
  public:
    explicit WorkloadGen(const WorkloadGenParams &params);

    Request next() override;
    bool rewind() override;

    /**
     * Auto warmup quota: enough passes over the footprint to reach a
     * steady-state cache population (at least 50k accesses).
     */
    std::uint64_t defaultWarmQuota() const override;

    std::string describe() const override;

    const WorkloadGenParams &params() const { return params_; }

  private:
    void startRun();

    WorkloadGenParams params_;
    Rng rng;

    std::uint64_t hot_regions;
    std::uint64_t total_regions;
    std::uint64_t cold_scan = 0;
    std::uint64_t position_ = 0;

    // Current run state.
    std::uint64_t run_region = 0;
    unsigned run_offset = 0;
    unsigned run_left = 0;
};

/**
 * The cyclic-reference kernel of Section IV-B1: two lines a and b that
 * map to the same set, accessed as (a, b) repeated N times, then a new
 * conflicting pair, and so on.
 */
class CyclicPairGen : public TrafficSource
{
  public:
    /**
     * @param set_count  number of sets of the target cache (pairs are
     *                   constructed to collide in a set)
     * @param iterations N: how many times each pair repeats
     */
    CyclicPairGen(std::uint64_t set_count, unsigned iterations,
                  std::uint64_t seed);

    Request next() override;
    bool rewind() override;
    std::string describe() const override;

  private:
    void newPair();

    std::uint64_t set_count;
    unsigned iterations;
    std::uint64_t seed_;
    Rng rng;
    std::uint64_t position_ = 0;

    LineAddr line_a = 0;
    LineAddr line_b = 0;
    unsigned remaining = 0;
    bool emit_b = false;
};

/**
 * Converts a demand stream into the L4 traffic mix by re-emitting a
 * fraction of demand lines as writebacks after a configurable lag
 * (modeling dirty lines leaving the L3 a while after they were used).
 * Once a bounded upstream runs dry the pending writebacks drain, then
 * the mixer itself exhausts.
 */
class WritebackMixer : public TrafficSource
{
  public:
    WritebackMixer(TrafficSource &source, double writeback_frac,
                   unsigned lag, std::uint64_t seed);

    Request next() override;
    bool exhausted() const override;
    bool bounded() const override { return source.bounded(); }
    bool rewind() override;
    std::string describe() const override;

    std::uint64_t
    defaultWarmQuota() const override
    {
        return source.defaultWarmQuota();
    }

  private:
    TrafficSource &source;
    double wb_frac;
    unsigned lag;
    std::uint64_t seed_;
    Rng rng;
    std::uint64_t position_ = 0;
    std::deque<LineAddr> pending;
};

} // namespace accord::trace

#endif // ACCORD_TRACE_GENERATOR_HPP
