/**
 * @file
 * Global discrete-event scheduler.
 *
 * All timed components (DRAM channels, NVM channels, cores, the DRAM
 * cache controller) share one EventQueue and schedule callbacks at
 * absolute cycle times.  Events at the same cycle run in scheduling
 * order (FIFO), which keeps runs deterministic.
 *
 * Internally the queue is a bucketed calendar (timing wheel): events
 * within kBuckets cycles of now() append O(1) to a per-cycle FIFO
 * list of arena-recycled nodes, and only far-future events (rare —
 * the DRAM/NVM timing constants are all far below the horizon) fall
 * back to a binary heap.  Each callable is constructed in place in
 * its node's EventCallback, whose inline buffer fits every capture the
 * simulator schedules, and runs there: the common path neither
 * allocates nor relocates the callback.  Execution
 * order is IDENTICAL to the historical priority-queue implementation
 * — (when, schedule order) — which the refactor-equivalence gate
 * (byte-identical run reports) depends on.
 */

#ifndef ACCORD_COMMON_EVENT_QUEUE_HPP
#define ACCORD_COMMON_EVENT_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/inline_callback.hpp"
#include "common/types.hpp"

namespace accord
{

/**
 * An event's callback: a `void()` callable whose inline buffer fits
 * every capture the simulator schedules (the largest, a channel's
 * completion event, is asserted in dram/channel.cpp), so the common
 * path performs no heap allocation at all.
 */
using EventCallback = InlineCallback<56>;

/** Discrete-event queue in the CPU cycle domain. */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Cycle now() const { return now_; }

    /**
     * Schedule a callable at an absolute cycle (>= now).  Within the
     * calendar horizon the callable is constructed straight into its
     * event node; beyond it, it spills to the overflow heap.
     */
    template <typename F>
    ACCORD_HOT void
    scheduleAt(Cycle when, F &&fn)
    {
        if (Node *node = admit(when)) {
            node->cb.emplace(std::forward<F>(fn));
            appendBucketed(node);
        } else {
            spill(when, Callback(std::forward<F>(fn)));
        }
    }

    /** Schedule a callable delay cycles from now. */
    template <typename F>
    ACCORD_HOT void
    scheduleAfter(Cycle delay, F &&fn)
    {
        scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /** True if no events remain. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return pending_; }

    /** Run a single event; returns false if the queue was empty. */
    ACCORD_HOT bool step();

    /**
     * Run events until the queue drains or the predicate returns true.
     * The predicate is checked between events.
     */
    template <typename Pred>
    void
    runUntil(Pred done)
    {
        while (!done() && step()) {
        }
    }

    /** Run all events to completion. */
    void
    run()
    {
        while (step()) {
        }
    }

    /** Total events executed (for perf sanity checks). */
    std::uint64_t executed() const { return executed_; }

    /**
     * High-water mark of simultaneously pending events over the
     * queue's lifetime.  A health gauge for telemetry heartbeats and
     * SystemMetrics: a runaway occupancy means a component is
     * scheduling faster than the run retires.
     */
    std::uint64_t occupancyPeak() const { return occupancy_peak_; }

    /**
     * Events that landed beyond the calendar horizon and spilled to
     * the overflow heap.  Expected to stay near zero (every DRAM/NVM
     * timing constant is far below kBuckets); growth signals a timing
     * model scheduling pathologically far ahead.
     */
    std::uint64_t overflowSpills() const { return overflow_spills_; }

    /** Calendar horizon: near events bucket, farther ones overflow. */
    static constexpr std::size_t kBuckets = 4096;

  private:
    static_assert((kBuckets & (kBuckets - 1)) == 0,
                  "bucket count must be a power of two");
    static constexpr Cycle kMask = kBuckets - 1;
    static constexpr std::size_t kChunkNodes = 256;

    /** One scheduled event; nodes are recycled through a freelist. */
    struct Node
    {
        Cycle when = 0;
        Node *next = nullptr;
        EventCallback cb;
    };

    /** FIFO list of one cycle's events. */
    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    /** Far-future event awaiting migration into the calendar. */
    struct Overflow
    {
        Cycle when;
        std::uint64_t seq;
        EventCallback cb;
    };

    /** Min-heap order on (when, schedule order). */
    struct OverflowLater
    {
        bool
        operator()(const Overflow &a, const Overflow &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * Count an event scheduled at `when`: returns its unlinked node
     * when `when` is within the calendar horizon, null when the event
     * must spill to the overflow heap.
     */
    ACCORD_HOT Node *admit(Cycle when);

    /** Queue a beyond-horizon event on the overflow heap. */
    void spill(Cycle when, Callback callback);

    Node *allocNode();
    void freeNode(Node *node);
    void appendBucketed(Node *node);

    /**
     * Advance now_ to the next pending cycle (current bucket empty)
     * and migrate newly in-horizon overflow events into the calendar.
     */
    void advance();

    /** Earliest bucketed cycle > now_ (requires bucketed_ > 0). */
    Cycle nextBucketedCycle() const;

    std::vector<Bucket> buckets_;

    /** One bit per bucket: set iff the bucket is non-empty. */
    std::vector<std::uint64_t> occupancy_;

    /** Binary heap (via std::push_heap) of beyond-horizon events. */
    std::vector<Overflow> overflow_;

    /** Node arena: chunks own storage, freelist links recycled nodes. */
    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *free_nodes_ = nullptr;

    std::size_t pending_ = 0;
    std::size_t bucketed_ = 0;
    Cycle now_ = 0;
    std::uint64_t overflow_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t occupancy_peak_ = 0;
    std::uint64_t overflow_spills_ = 0;
};

} // namespace accord

#endif // ACCORD_COMMON_EVENT_QUEUE_HPP
