/**
 * @file
 * DRAM-Cache-Presence directory (DCP + way bits).
 *
 * The paper keeps a presence bit per L3 line, extended with the
 * resident way, so writebacks can go straight to the right way without
 * a probe (Section II-B3).  This directory models that metadata: it is
 * written by the L4 controller whenever it returns or installs a line
 * (i.e. whenever the L3 would fill) and erased when the L4 evicts.
 */

#ifndef ACCORD_DRAMCACHE_DCP_HPP
#define ACCORD_DRAMCACHE_DCP_HPP

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dramcache/tag_store.hpp"

namespace accord::dramcache
{

/**
 * line -> resident-way directory for writeback routing, stored as
 * "tag store plus disagreements".
 *
 * Almost every entry equals what the tag store already says: the way
 * holding the line (set-associative), or 0/1 for the primary/pair slot
 * holding it (column-associative, primary first).  Only entries that
 * disagree with that derived value live in a small override table:
 * a broadside hit that records a way its line has since left, or an
 * erase of a line still resident in another slot.  lookup() consults
 * the table only when it is non-empty.
 *
 * Contract: every record()/erase() is issued after the tag writes it
 * describes, and every tag write that moves a line is followed by the
 * record()/erase() of that line.  A default-constructed directory
 * derives nothing, so every record is an override (standalone tests
 * and audits use it as a plain map).
 */
class DcpDirectory
{
  public:
    DcpDirectory() = default;

    /** A directory derived from `tags` (set-associative placement). */
    explicit DcpDirectory(const TagStore &tags) : tags_(&tags) {}

    /**
     * Derive column-associative slot selectors instead: the tag store
     * holds full line addresses, one per slot, and a line's pair slot
     * is its primary slot XOR `pairMask`.
     */
    void useColumnPairs(std::uint64_t pairMask) { pair_mask_ = pairMask; }

    /** Resident way of the line, if the cache holds it. */
    std::optional<unsigned>
    lookup(LineAddr line) const
    {
        unsigned way = kAbsent;
        if (!overrides_.empty()) {
            const auto it = overrides_.find(line);
            way = it != overrides_.end() ? it->second : derive(line);
        } else {
            way = derive(line);
        }
        if (way == kAbsent)
            return std::nullopt;
        return way;
    }

    /** Record that `line` now resides in `way`. */
    void record(LineAddr line, unsigned way) { assign(line, way); }

    /** The cache evicted `line`. */
    void erase(LineAddr line) { assign(line, kAbsent); }

    /** Recorded lines. */
    std::size_t size() const { return entries().size(); }

    /** All (line, way) entries, sorted by line address. */
    std::vector<std::pair<LineAddr, unsigned>> entries() const;

    /** Entries that disagree with the tag store. */
    std::size_t overrideCount() const { return overrides_.size(); }

    /** Host bytes backing the override table (an estimate). */
    std::uint64_t
    residentBytes() const
    {
        return overrides_.bucket_count() * sizeof(void *)
            + overrides_.size()
            * (sizeof(std::pair<const LineAddr, unsigned>)
               + sizeof(void *));
    }

  private:
    /** Stored value of an override that says "not recorded". */
    static constexpr unsigned kAbsent = ~0u;

    /** The entry the tag store implies for `line`, or kAbsent. */
    unsigned
    derive(LineAddr line) const
    {
        if (tags_ == nullptr)
            return kAbsent;
        const core::CacheGeometry &geom = tags_->geometry();
        if (pair_mask_ != 0) {
            const std::uint64_t primary = line & (geom.sets - 1);
            if (slotHolds(primary, line))
                return 0;
            return slotHolds(primary ^ pair_mask_, line) ? 1 : kAbsent;
        }
        const auto ref = core::LineRef::make(line, geom);
        const int way = tags_->findWay(ref.set, ref.tag);
        return way >= 0 ? static_cast<unsigned>(way) : kAbsent;
    }

    bool
    slotHolds(std::uint64_t slot, LineAddr line) const
    {
        return tags_->valid(slot, 0) && tags_->tag(slot, 0) == line;
    }

    /** Set the entry of `line`, keeping only disagreements stored. */
    void
    assign(LineAddr line, unsigned way)
    {
        if (derive(line) != way)
            overrides_[line] = way;
        else if (!overrides_.empty())
            overrides_.erase(line);
    }

    const TagStore *tags_ = nullptr;
    std::uint64_t pair_mask_ = 0;
    std::unordered_map<LineAddr, unsigned> overrides_;
};

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_DCP_HPP
