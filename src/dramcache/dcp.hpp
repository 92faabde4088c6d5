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
#include <utility>
#include <vector>

#include "common/paged_table.hpp"
#include "common/types.hpp"

namespace accord::dramcache
{

/**
 * line -> resident-way directory for writeback routing.
 *
 * Backed by the sparse paged map of the storage layer: line addresses
 * span the whole PCM address space, so entries live in lazily
 * materialized fixed-size pages found through a hash index on the
 * page number, rather than in a per-key hash table.  entries() sorts
 * the page numbers before walking them, so audits see a
 * deterministic, key-ordered listing.
 */
class DcpDirectory
{
  public:
    /** Resident way of the line, if the cache holds it. */
    std::optional<unsigned>
    lookup(LineAddr line) const
    {
        return map.lookup(line);
    }

    /** Record that `line` now resides in `way`. */
    void record(LineAddr line, unsigned way) { map.record(line, way); }

    /** The cache evicted `line`. */
    void erase(LineAddr line) { map.erase(line); }

    std::size_t size() const
        { return static_cast<std::size_t>(map.size()); }

    /** All (line, way) entries, sorted by line address. */
    std::vector<std::pair<LineAddr, unsigned>>
    entries() const
    {
        return map.entries();
    }

    /** Host bytes currently backing directory pages. */
    std::uint64_t residentBytes() const { return map.residentBytes(); }

  private:
    SparsePagedMap map;
};

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_DCP_HPP
