/**
 * @file
 * One memory channel: request queues, FR-FCFS scheduling, write-drain
 * hysteresis, and data-bus serialization.
 *
 * The channel issues at most one column access per data-bus burst slot;
 * bank preparation (PRE/ACT) of the next request overlaps the current
 * transfer, while the Bank algebra enforces all per-bank constraints.
 */

#ifndef ACCORD_DRAM_CHANNEL_HPP
#define ACCORD_DRAM_CHANNEL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/event_queue.hpp"
#include "common/metrics/registry.hpp"
#include "common/stats.hpp"
#include "dram/bank.hpp"
#include "dram/mem_op.hpp"
#include "dram/op_queue.hpp"
#include "dram/timing.hpp"

namespace accord::trace_event
{
class Tracer;
}

namespace accord::dram
{

/** Aggregatable per-channel statistics. */
struct ChannelStats
{
    Counter readsServed;
    Counter writesServed;
    Counter rowHits;
    Counter rowConflicts;
    Counter busBusyCycles;
    Average readLatency;   ///< enqueue -> data complete, CPU cycles
    Average writeLatency;
    Average readQueueDepth;
    Average writeQueueDepth;
};

/** One channel of a banked memory device. */
class Channel
{
  public:
    Channel(unsigned id, const TimingParams &params, EventQueue &eq);

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Queue a line-sized op; the channel self-schedules service. */
    void enqueue(MemOp op);

    /** Pending reads (for backpressure heuristics). */
    std::size_t readQueueSize() const { return read_queue.size(); }

    /** Pending writes. */
    std::size_t writeQueueSize() const { return write_queue.size(); }

    /** True if nothing is queued or in flight. */
    bool idle() const;

    const ChannelStats &stats() const { return stats_; }

    /** Zero all statistics (e.g. at the warmup/measurement boundary). */
    void resetStats() { stats_ = ChannelStats{}; }

    /**
     * Register this channel's statistics under `prefix` (typically
     * "dram.ch0"): reads, writes, row_buffer.{hits,conflicts},
     * bus_busy_cycles, and the latency/queue-depth averages.
     */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Attach a transaction tracer; `track` is this channel's track id
     * from Tracer::registerDeviceTrack().  Every issued op whose txn
     * id is non-zero then emits a burst record.
     */
    void attachTracer(trace_event::Tracer *tracer, std::int32_t track)
    {
        tracer_ = tracer;
        track_ = track;
    }

  private:
    /** Scheduler entry point; issues at most one request. */
    void kick();

    /** Make sure a kick() is scheduled no later than `when`. */
    void ensureKick(Cycle when);

    /**
     * FR-FCFS pick from a queue: oldest transaction continuation, else
     * oldest row-buffer hit anywhere in the queue (row hits — e.g. the
     * second probe of an in-flight lookup in the same row — must not
     * wait behind closed-row requests), else the oldest request.
     * Returns queue index.
     */
    std::size_t pick(const OpQueue &queue) const;

    /** Issue one op picked from the given queue. */
    void issue(OpQueue &queue, std::size_t index);

    const unsigned id_;
    const TimingParams &params;
    EventQueue &eq;

    std::vector<Bank> banks;
    OpQueue read_queue;
    OpQueue write_queue;

    /** Data bus next-free time. */
    Cycle bus_free_at = 0;

    /** Write-drain hysteresis state. */
    bool draining = false;

    /** Alternation flag: interleave reads during drain episodes. */
    bool drain_toggle = false;

    /** Time of the currently scheduled kick (invalidCycle if none). */
    Cycle kick_at = invalidCycle;

    /** Number of ops issued but not yet completed. */
    unsigned in_flight = 0;

    /** Transaction tracer (null when tracing is off). */
    trace_event::Tracer *tracer_ = nullptr;

    /** This channel's tracer track id. */
    std::int32_t track_ = -1;

    ChannelStats stats_;
};

} // namespace accord::dram

#endif // ACCORD_DRAM_CHANNEL_HPP
