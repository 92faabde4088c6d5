/**
 * @file
 * The unit of work a banked memory device executes.
 *
 * A MemOp is one line-sized (64/72-byte) read or write at an explicit
 * physical location.  The DRAM-cache controller addresses the stacked
 * DRAM by (channel, bank, row) directly because the cache layout owns
 * the mapping; main memory users go through an address-interleaving
 * helper in DramSystem.
 */

#ifndef ACCORD_DRAM_MEM_OP_HPP
#define ACCORD_DRAM_MEM_OP_HPP

#include <cstdint>

#include "common/inline_callback.hpp"
#include "common/types.hpp"

namespace accord::dram
{

/** Physical coordinates of one line within a device. */
struct PhysLoc
{
    unsigned channel = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;

    bool
    operator==(const PhysLoc &other) const
    {
        return channel == other.channel && bank == other.bank
            && row == other.row;
    }
};

/**
 * Completion callback: invoked with the cycle the data finished.  Its
 * 24 inline bytes hold every continuation of the timed path (a
 * controller pointer, a transaction handle and a probe index).
 */
using MemCallback = InlineCallback<24, Cycle>;

/** One line-sized read or write request to a banked memory device. */
struct MemOp
{
    PhysLoc loc;
    bool isWrite = false;

    /**
     * Continuation of an in-flight transaction (e.g. the second probe
     * of a lookup whose first probe missed): served before ordinary
     * requests so a multi-probe lookup does not pay the full queueing
     * delay at every step.
     */
    bool priority = false;

    /** Cycle the op entered the device queue (set by the device). */
    Cycle enqueuedAt = 0;

    /**
     * Owning transaction for trace attribution (trace_event::TxnId);
     * 0 = untraced.  Raw integer so this header stays dependency-free.
     */
    std::uint64_t txn = 0;

    /** Invoked when the data transfer completes; may be empty. */
    MemCallback onComplete;
};

} // namespace accord::dram

#endif // ACCORD_DRAM_MEM_OP_HPP
