/**
 * @file
 * One channel request queue, laid out for the FR-FCFS scan.
 *
 * The scheduler scans a queue front to back on every issue and takes
 * its pick from anywhere in it.  OpQueue keeps the arrival order as a
 * vector of 16-byte scan keys {row, bank, slot}; each MemOp payload
 * sits in a stationary slot recycled through a free list.  A scan
 * touches only the keys, and taking an op from the middle moves only
 * the keys behind it, never a payload.
 */

#ifndef ACCORD_DRAM_OP_QUEUE_HPP
#define ACCORD_DRAM_OP_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dram/mem_op.hpp"

namespace accord::dram
{

/** Arrival-ordered queue of MemOps with FR-FCFS pick and take. */
class OpQueue
{
  public:
    /** @param reserve ops to make room for up front (the queue's cap) */
    explicit OpQueue(std::size_t reserve = 0)
    {
        keys_.reserve(reserve);
        slots_.reserve(reserve);
        free_.reserve(reserve);
    }

    bool empty() const { return keys_.empty(); }

    std::size_t size() const { return keys_.size(); }

    /** Append an op (the youngest). */
    ACCORD_HOT void
    push(MemOp op)
    {
        std::uint32_t slot;
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.push_back(std::move(op));
        } else {
            slot = free_.back();
            free_.pop_back();
            slots_[slot] = std::move(op);
        }
        const MemOp &stored = slots_[slot];
        if (stored.priority)
            ++priorities_;
        keys_.push_back(Key{stored.loc.row, stored.loc.bank, slot});
    }

    /**
     * FR-FCFS pick: the oldest priority op (transaction
     * continuations), else the oldest op for which
     * `row_hit(bank, row)` holds, else the oldest op.  Returns its
     * queue index; the queue must be non-empty.
     */
    template <typename RowHit>
    ACCORD_HOT std::size_t
    pick(RowHit &&row_hit) const
    {
        if (priorities_ != 0) {
            for (std::size_t i = 0; i < keys_.size(); ++i) {
                if (slots_[keys_[i].slot].priority)
                    return i;
            }
        }
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (row_hit(keys_[i].bank, keys_[i].row))
                return i;
        }
        return 0;
    }

    /** The op at queue index `index` (0 = oldest). */
    const MemOp &at(std::size_t index) const
        { return slots_[keys_[index].slot]; }

    /** Remove and return the op at `index`; younger ops keep order. */
    ACCORD_HOT MemOp
    take(std::size_t index)
    {
        const std::uint32_t slot = keys_[index].slot;
        MemOp op = std::move(slots_[slot]);
        keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(index));
        free_.push_back(slot);
        if (op.priority)
            --priorities_;
        return op;
    }

  private:
    struct Key
    {
        std::uint64_t row;
        std::uint32_t bank;
        std::uint32_t slot;
    };

    /** Scan keys, oldest first. */
    std::vector<Key> keys_;

    /** Payloads, indexed by Key::slot; never move while queued. */
    std::vector<MemOp> slots_;

    /** Vacant slots, reused before slots_ grows. */
    std::vector<std::uint32_t> free_;

    /** Queued ops with MemOp::priority set. */
    std::size_t priorities_ = 0;
};

} // namespace accord::dram

#endif // ACCORD_DRAM_OP_QUEUE_HPP
