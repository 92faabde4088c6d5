/**
 * @file
 * Fixed-block freelist arena for hot-path allocations.
 *
 * A BlockPool recycles same-sized blocks through a freelist backed by
 * chunked arena storage, so steady-state allocation is a pointer pop
 * — no malloc, no lock (each pool belongs to one single-threaded
 * component, like a controller's transaction pool).  The owner
 * constructs objects in taken blocks with placement new and destroys
 * them explicitly before give().  Destroying the pool frees its chunks
 * without running the destructor of any object still in them.
 */

#ifndef ACCORD_COMMON_OBJECT_POOL_HPP
#define ACCORD_COMMON_OBJECT_POOL_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "common/log.hpp"

namespace accord
{

/** Freelist of uniform blocks; the size locks in on first use. */
class BlockPool
{
  public:
    /** @param blocks_per_chunk arena growth granularity */
    explicit BlockPool(std::size_t blocks_per_chunk = 64)
        : chunk_blocks_(blocks_per_chunk)
    {
        ACCORD_ASSERT(blocks_per_chunk > 0,
                      "pool chunks must hold at least one block");
    }

    BlockPool(const BlockPool &) = delete;
    BlockPool &operator=(const BlockPool &) = delete;

    /** Block size the pool serves (0 until the first take()). */
    std::size_t blockSize() const { return block_size_; }

    /** Blocks currently live (taken and not yet given back). */
    std::size_t live() const { return live_; }

    /**
     * Pop a block of `size` bytes.  The first call fixes the pool's
     * block size; later calls must not exceed it (a pool serves one
     * object type).
     */
    void *
    take(std::size_t size)
    {
        if (block_size_ == 0) {
            // Round up so every block can host any max-aligned type.
            constexpr std::size_t align = alignof(std::max_align_t);
            block_size_ = (size + align - 1) / align * align;
        }
        ACCORD_ASSERT(size <= block_size_,
                      "pool block size mismatch (%zu > %zu)", size,
                      block_size_);
        if (free_ == nullptr)
            grow();
        FreeNode *node = free_;
        free_ = node->next;
        ++live_;
        return node;
    }

    /** Return a block obtained from take(). */
    void
    give(void *block)
    {
        ACCORD_ASSERT(live_ > 0, "pool freed more blocks than taken");
        auto *node = static_cast<FreeNode *>(block);
        node->next = free_;
        free_ = node;
        --live_;
    }

  private:
    struct FreeNode
    {
        FreeNode *next;
    };

    void
    grow()
    {
        const std::size_t bytes = block_size_ * chunk_blocks_;
        chunks_.push_back(std::make_unique<unsigned char[]>(bytes));
        unsigned char *base = chunks_.back().get();
        for (std::size_t i = chunk_blocks_; i-- > 0;) {
            auto *node =
                reinterpret_cast<FreeNode *>(base + i * block_size_);
            node->next = free_;
            free_ = node;
        }
    }

    std::size_t chunk_blocks_;
    std::size_t block_size_ = 0;
    std::size_t live_ = 0;
    FreeNode *free_ = nullptr;
    std::vector<std::unique_ptr<unsigned char[]>> chunks_;
};

} // namespace accord

#endif // ACCORD_COMMON_OBJECT_POOL_HPP
