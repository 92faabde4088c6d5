#include "dram/channel.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/trace_event/tracer.hpp"

namespace accord::dram
{

Channel::Channel(unsigned id, const TimingParams &params, EventQueue &eq)
    : id_(id), params(params), eq(eq), banks(params.banksPerChannel),
      read_queue(params.readQueueCap), write_queue(params.writeQueueCap)
{
}

bool
Channel::idle() const
{
    return read_queue.empty() && write_queue.empty() && in_flight == 0;
}

ACCORD_HOT void
Channel::enqueue(MemOp op)
{
    ACCORD_ASSERT(op.loc.channel == id_, "op routed to wrong channel");
    ACCORD_ASSERT(op.loc.bank < banks.size(), "bank out of range");
    op.enqueuedAt = eq.now();
    if (op.isWrite)
        write_queue.push(std::move(op));
    else
        read_queue.push(std::move(op));
    ensureKick(eq.now());
}

ACCORD_HOT void
Channel::ensureKick(Cycle when)
{
    if (kick_at <= when)
        return;     // an earlier (or equal) kick is already pending
    kick_at = when;
    eq.scheduleAt(when, [this, when] {
        // Only the most recently requested kick runs; stale ones no-op.
        if (kick_at == when) {
            kick_at = invalidCycle;
            kick();
        }
    });
}

ACCORD_HOT std::size_t
Channel::pick(const OpQueue &queue) const
{
    return queue.pick([this](unsigned bank, std::uint64_t row) {
        return banks[bank].wouldHit(row);
    });
}

ACCORD_HOT void
Channel::issue(OpQueue &queue, std::size_t index)
{
    MemOp op = queue.take(index);

    const Cycle now = eq.now();
    Bank &bank = banks[op.loc.bank];
    const Bank::ServeResult served =
        bank.serve(now, op.loc.row, op.isWrite, params);

    const Cycle data_start =
        std::max(served.casAt + params.tCas, bus_free_at);
    const Cycle data_end = data_start + params.tBurst;
    bus_free_at = data_end;

    if (served.rowHit)
        stats_.rowHits.inc();
    if (served.rowConflict)
        stats_.rowConflicts.inc();
    stats_.busBusyCycles.inc(params.tBurst);

    const Cycle latency = data_end - op.enqueuedAt;
    if (op.isWrite) {
        stats_.writesServed.inc();
        stats_.writeLatency.sample(static_cast<double>(latency));
    } else {
        stats_.readsServed.inc();
        stats_.readLatency.sample(static_cast<double>(latency));
    }

    if (tracer_ != nullptr && op.txn != 0) {
        tracer_->burst(op.txn, track_, op.loc.bank, op.loc.row,
                       op.isWrite, served.rowHit, op.enqueuedAt, now,
                       served.actAt, served.casAt, data_start,
                       data_end, read_queue.size(),
                       write_queue.size());
    }

    ++in_flight;
    auto complete = [this, cb = std::move(op.onComplete),
                     data_end]() mutable {
        --in_flight;
        if (cb)
            cb(data_end);
        // Completion may unblock nothing, but if queues are non-empty
        // and no kick is pending (e.g. all earlier kicks consumed),
        // make sure service continues.
        if (!read_queue.empty() || !write_queue.empty())
            ensureKick(eq.now());
    };
    static_assert(EventCallback::fitsInline<decltype(complete)>(),
                  "the completion event must fit an event inline");
    eq.scheduleAt(data_end, std::move(complete));

    // Pipeline: pick the next request one burst slot later, so bank
    // preparation (PRE/ACT/tRCD) of queued requests overlaps both this
    // transfer and each other — bank-level parallelism.  The data bus
    // itself is serialized by the bus_free_at algebra.
    if (!read_queue.empty() || !write_queue.empty())
        ensureKick(now + params.tBurst);
}

ACCORD_HOT void
Channel::kick()
{
    // Only commit a request to the bus shortly before its slot could
    // start; issuing further ahead would freeze the queue order and
    // make late-arriving priority/row-hit requests wait their full
    // backlog.  The lookahead still covers closed-row preparation
    // (PRE+ACT+tRCD) so bank work overlaps the bus backlog.
    const Cycle lookahead = params.tRp + params.tRcd + params.tCas;
    if (bus_free_at > eq.now() + lookahead) {
        ensureKick(bus_free_at - lookahead);
        return;
    }

    stats_.readQueueDepth.sample(static_cast<double>(read_queue.size()));
    stats_.writeQueueDepth.sample(static_cast<double>(write_queue.size()));

    // Write-drain hysteresis (reads have priority otherwise).  Even
    // while draining, pending reads are interleaved 1:1 so a burst of
    // long-recovery writes (NVM cell programming) cannot starve the
    // read path.
    if (write_queue.size() >= params.writeDrainHigh)
        draining = true;
    else if (write_queue.size() <= params.writeDrainLow)
        draining = false;

    bool serve_write =
        !write_queue.empty() && (draining || read_queue.empty());
    if (serve_write && draining && !read_queue.empty()) {
        drain_toggle = !drain_toggle;
        if (drain_toggle)
            serve_write = false;
    }

    if (serve_write)
        issue(write_queue, pick(write_queue));
    else if (!read_queue.empty())
        issue(read_queue, pick(read_queue));
    // else: idle; the next enqueue() will kick us.
}

void
Channel::registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const
{
    const auto path = [&prefix](const char *name) {
        return MetricRegistry::join(prefix, name);
    };
    registry.addCounter(path("reads"), stats_.readsServed);
    registry.addCounter(path("writes"), stats_.writesServed);
    registry.addCounter(path("row_buffer.hits"), stats_.rowHits);
    registry.addCounter(path("row_buffer.conflicts"),
                        stats_.rowConflicts);
    registry.addCounter(path("bus_busy_cycles"),
                        stats_.busBusyCycles);
    registry.addAverage(path("read_latency"), stats_.readLatency);
    registry.addAverage(path("write_latency"), stats_.writeLatency);
    registry.addAverage(path("read_queue_depth"),
                        stats_.readQueueDepth);
    registry.addAverage(path("write_queue_depth"),
                        stats_.writeQueueDepth);
}

} // namespace accord::dram
