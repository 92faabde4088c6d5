/**
 * @file
 * Cross-structure invariant audits for the DRAM-cache model.
 *
 * These free functions check the consistency rules that tie the tag
 * store, the way-steering policy, the DCP directory, and the
 * controller's statistics together — the metadata whose silent
 * corruption would skew reported hit rates without failing any
 * end-to-end test.  DramCacheController::audit() composes them over a
 * live controller; unit tests call them directly on deliberately
 * corrupted standalone state.
 */

#ifndef ACCORD_DRAMCACHE_AUDIT_HPP
#define ACCORD_DRAMCACHE_AUDIT_HPP

#include "common/invariant_auditor.hpp"
#include "core/way_policy.hpp"
#include "dramcache/dcp.hpp"
#include "dramcache/tag_store.hpp"

namespace accord::dramcache
{

struct DramCacheStats;

/**
 * Tag-store internal consistency: the occupancy counter matches a
 * recount of the valid flags, and no set holds the same tag in two
 * ways (a duplicate line would make hits way-order dependent).
 */
void auditTagStore(const TagStore &tags, InvariantAuditor &auditor);

/**
 * Per-set half of auditTagStore over sets [firstSet, lastSet): the
 * dirty-but-invalid and duplicate-tag checks.  Returns the number of
 * valid entries seen so a full sweep can recount occupancy.  The
 * bounded range is what lets the controller's periodic self-audit
 * rotate through a gigascale array a slice at a time.
 */
std::uint64_t auditTagStoreRange(const TagStore &tags,
                                 InvariantAuditor &auditor,
                                 std::uint64_t firstSet,
                                 std::uint64_t lastSet);

/**
 * Way-steering placement legality: every valid line resides in a way
 * its policy allows — for SWS, the preferred way or one of the k-1
 * tag-hashed alternates (paper Section V-A).
 */
void auditPlacement(const TagStore &tags, const core::WayPolicy &policy,
                    InvariantAuditor &auditor);

/** auditPlacement restricted to sets [firstSet, lastSet). */
void auditPlacementRange(const TagStore &tags,
                         const core::WayPolicy &policy,
                         InvariantAuditor &auditor,
                         std::uint64_t firstSet, std::uint64_t lastSet);

/**
 * DCP coherence: every directory entry names a way that actually
 * holds the line.  A stale entry would route a writeback's dirty data
 * into the wrong way (set-associative organizations only; the
 * column-associative slot encoding is audited by the controller).
 */
void auditDcp(const DcpDirectory &dcp, const TagStore &tags,
              InvariantAuditor &auditor);

/**
 * Forward-direction DCP check over sets [firstSet, lastSet): every
 * resident line with a directory entry must be recorded under the way
 * that holds it.  Unlike auditDcp this never materializes the full
 * directory, so its cost is bounded by the set range — the periodic
 * self-audit uses it; stale entries for evicted lines are only caught
 * by the full auditDcp sweep.
 */
void auditDcpForward(const DcpDirectory &dcp, const TagStore &tags,
                     InvariantAuditor &auditor, std::uint64_t firstSet,
                     std::uint64_t lastSet);

/**
 * Column-associative layout consistency over slots
 * [firstSlot, lastSlot): each resident line (CA tags are full line
 * addresses) must sit in its primary slot (line & (slots-1)) or that
 * slot's pair (primary ^ pairMask), never in both, and any DCP
 * entry's 0/1 slot selector must resolve to the slot actually
 * holding it.
 */
void auditCaSlotRange(const TagStore &tags, const DcpDirectory &dcp,
                      std::uint64_t pairMask, InvariantAuditor &auditor,
                      std::uint64_t firstSlot, std::uint64_t lastSlot);

/**
 * Reverse-direction CA DCP check: stale directory entries for lines no
 * longer resident anywhere, which the forward per-slot check cannot
 * see.  Materializes the full directory, so only the full audit runs
 * it.
 */
void auditCaDcpReverse(const TagStore &tags, const DcpDirectory &dcp,
                       std::uint64_t pairMask,
                       InvariantAuditor &auditor);

/**
 * Stats identities that hold whenever no transaction is in flight:
 * way prediction is sampled exactly once per read hit, every miss
 * reads main memory, and probe counts are sampled once per read.
 */
void auditStats(const DramCacheStats &stats, InvariantAuditor &auditor);

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_AUDIT_HPP
