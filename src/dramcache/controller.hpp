/**
 * @file
 * The L4 DRAM-cache controller: the timed transaction engine plus a
 * thin functional shell.
 *
 * The access path is split into three layers:
 *
 *  - the pure decision core (access_plan.hpp) turns a line address
 *    into a side-effect-free probe/transfer plan;
 *  - an Organization strategy (organization.hpp; set-associative or
 *    column-associative, resolved by name through the registry)
 *    owns placement, install, and per-hit state updates;
 *  - this controller executes plans: untimed for warmRead()/
 *    warmWriteback(), and fully timed against the stacked-DRAM array
 *    and the NVM main memory for read()/writeback(), emitting trace
 *    events and latency statistics.
 *
 * Both execution shells consume the SAME plan from the SAME strategy,
 * so the functional and timed paths agree on hit/miss, transfer, and
 * prediction accounting by construction.
 */

#ifndef ACCORD_DRAMCACHE_CONTROLLER_HPP
#define ACCORD_DRAMCACHE_CONTROLLER_HPP

#include <functional>
#include <memory>
#include <string>

#include "common/event_queue.hpp"
#include "common/invariant_auditor.hpp"
#include "common/metrics/registry.hpp"
#include "common/object_pool.hpp"
#include "common/stats.hpp"
#include "common/trace_event/trace_event.hpp"
#include "core/way_policy.hpp"
#include "dram/dram_system.hpp"
#include "dramcache/dcp.hpp"
#include "dramcache/enums.hpp"
#include "dramcache/layout.hpp"
#include "dramcache/organization.hpp"
#include "dramcache/params.hpp"
#include "dramcache/tag_store.hpp"
#include "nvm/nvm_system.hpp"

namespace accord::trace_event
{
class Tracer;
}

namespace accord::dramcache
{

class SetAssocOrg;

/** The L4 DRAM-cache controller. */
class DramCacheController : private OrgServices
{
  public:
    /**
     * Demand-read completion: hit/miss and data-ready cycle.  Its 16
     * inline bytes hold a requester pointer and one word of context.
     */
    using ReadDone = InlineCallback<16, bool, Cycle>;

    /**
     * @param params  cache organization
     * @param policy  way steering/prediction; may be null for
     *                direct-mapped and column-associative caches
     * @param timing  stacked-DRAM parameters; capacityBytes is forced
     *                to params.capacityBytes
     * @param eq      shared event queue
     * @param nvm     main memory below the cache
     */
    DramCacheController(const DramCacheParams &params,
                        std::unique_ptr<core::WayPolicy> policy,
                        dram::TimingParams timing, EventQueue &eq,
                        nvm::NvmSystem &nvm);

    ~DramCacheController();

    // --- timed path -----------------------------------------------

    /**
     * Timed demand read (L3 miss).  `txn` is the caller's trace
     * transaction (kNoTxn when tracing is off); the controller emits
     * lookup/NVM phases and prediction-outcome points into it and
     * completes it with its request class.
     */
    void read(LineAddr line, ReadDone done,
              trace_event::TxnId txn = trace_event::kNoTxn);

    /** Timed writeback (dirty L3 eviction); posted. */
    void writeback(LineAddr line,
                   trace_event::TxnId txn = trace_event::kNoTxn);

    // --- functional path ------------------------------------------

    /** Untimed demand read; returns hit/miss. */
    bool warmRead(LineAddr line);

    /** Untimed writeback. */
    void warmWriteback(LineAddr line);

    // --- introspection --------------------------------------------

    const DramCacheStats &stats() const { return stats_; }

    /** Reset controller stats AND the HBM device channel stats. */
    void resetStats();

    /**
     * Exclude the functional accesses between begin and end from
     * stats(): the counters are snapshotted at begin and restored at
     * end, while cache/tag/predictor state keeps updating.  This is
     * how sampled simulation (Request::warmup, see
     * trace/sample.hpp) warms the arrays before a selected window
     * without polluting measured statistics.  Warm-shell only, must
     * not nest or span resetStats(); way-policy internal counters are
     * not covered (docs/TRACES.md, warmup policy).
     */
    void beginStatsExclusion();
    void endStatsExclusion();
    bool statsExcluded() const { return stats_excluded_; }

    /**
     * Register controller metrics under `prefix` (typically "l4"):
     * the lookup/way-prediction ratios, transfer and writeback
     * counters, latency averages, the transfers-per-read gauge, and
     * (when a way policy is attached) its internals under
     * `prefix`.policy.  The HBM device registers separately via
     * hbm().registerMetrics().
     */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Attach a transaction tracer: the stacked-DRAM device registers
     * its channel tracks and the controller starts emitting lifecycle
     * events for every traced transaction it is handed.
     */
    void attachTracer(trace_event::Tracer &tracer);

    const core::CacheGeometry &geometry() const { return geom; }
    const TagStore &tagStore() const { return tags; }
    const DcpDirectory &dcpDirectory() const { return dcp; }
    core::WayPolicy *policy() { return policy_.get(); }
    dram::DramSystem &hbm() { return hbm_; }
    const dram::DramSystem &hbm() const { return hbm_; }

    /** Transaction arena, for telemetry pool-usage snapshots. */
    const BlockPool &txnPool() const { return txn_pool_; }

    /**
     * Host bytes currently backing per-set cache state: the tag/flag
     * columns, the DCP directory's override table, and (when
     * attached) the way policy's own tables.  Feeds the
     * resident-state telemetry gauge and the gigascale footprint
     * budget.
     */
    std::uint64_t
    residentStateBytes() const
    {
        return tags.residentStateBytes() + dcp.residentBytes()
            + org_->residentStateBytes()
            + (policy_ ? policy_->residentStateBytes() : 0);
    }

    /** True when no timed transactions are in flight. */
    bool quiesced() const { return in_flight == 0; }

    /** Short description ("dm", "2-way pws+gws serial", ...). */
    std::string describe() const;

    /**
     * Record every violated model-state invariant into the auditor:
     * tag-store consistency, organization-specific placement rules,
     * DCP coherence, policy-internal tables, and (when quiesced)
     * stats identities.  Always available; the periodic self-audit
     * driven by DramCacheParams::auditInterval calls this under
     * ACCORD_CHECKS_ENABLED and panics on any violation.
     */
    void audit(InvariantAuditor &auditor) const;

    /**
     * audit() restricted to sets [firstSet, lastSet), plus the cheap
     * global checks (policy tables when the window wraps to 0, stats
     * identities when quiesced).  Cost is bounded by the window, not
     * the cache — the periodic self-audit rotates this window.  The
     * only check it lacks relative to a full audit() is detection of
     * stale DCP entries for lines no longer resident anywhere.
     */
    void auditWindow(InvariantAuditor &auditor, std::uint64_t firstSet,
                     std::uint64_t lastSet) const;

  private:
    // --- OrgServices (device access lent to the organization) -----

    void cacheOp(std::uint64_t set, unsigned way, bool is_write,
                 dram::MemCallback on_complete, bool priority,
                 trace_event::TxnId txn) override;

    void nvmWrite(LineAddr line, dram::MemCallback on_complete,
                  trace_event::TxnId txn) override;

    std::function<dram::MemCallback()>
    beginFillGroup(trace_event::TxnId parent, LineAddr line,
                   trace_event::TxnId &fill_txn) override;

    // --- timed read engine (read_txn.cpp) -------------------------

    struct ReadTxn;

    /** Drop one hold on `txn`; the last one returns it to the pool. */
    void release(ReadTxn *txn);

    void issueProbe(ReadTxn *txn, unsigned index);
    void probeDone(ReadTxn *txn, unsigned index, Cycle when);
    void missConfirmed(ReadTxn *txn, Cycle when);
    void finishHit(ReadTxn *txn, unsigned way, unsigned trace_way,
                   unsigned probe_index, Cycle when);

    // --- shared shells --------------------------------------------

    /** Writeback routing shared by both paths. */
    void writebackCommon(LineAddr line, bool timed,
                         trace_event::TxnId txn = trace_event::kNoTxn);

    /** Count down to the next periodic self-audit and run it. */
    void maybeAudit();

    DramCacheParams params;

    /** Registry factory the params resolve to (stable for our lifetime). */
    const OrgFactory *org_factory_;

    core::CacheGeometry geom;
    std::unique_ptr<core::WayPolicy> policy_;
    EventQueue &eq;
    nvm::NvmSystem &nvm;
    dram::DramSystem hbm_;
    CacheLayout layout;
    TagStore tags;
    DcpDirectory dcp;
    DramCacheStats stats_;

    /** Snapshot taken by beginStatsExclusion(). */
    DramCacheStats excluded_saved_;
    bool stats_excluded_ = false;

    std::unique_ptr<OrgStrategy> org_;

    /**
     * Devirtualized view of org_ when its dynamic type is exactly the
     * built-in set-associative strategy — the overwhelmingly common
     * case.  The timed read engine calls plan/hit hooks through this
     * pointer with qualified (non-virtual, inlinable) calls; any other
     * organization (CA, registry plug-ins, SetAssocOrg subclasses)
     * keeps the virtual path.  Null when org_ is not exactly a
     * SetAssocOrg.
     */
    SetAssocOrg *setassoc_ = nullptr;

    /**
     * Recycles ReadTxn blocks (read_txn.cpp).  Queued events refer to
     * a transaction by raw pointer and never touch the pool, so
     * events outliving the controller leave nothing to free.
     */
    BlockPool txn_pool_;

    unsigned in_flight = 0;

    /** Transaction tracer (null when tracing is off). */
    trace_event::Tracer *tracer_ = nullptr;

    /** Demand reads until the next periodic self-audit. */
    std::uint32_t audit_countdown = 0;

    /** First set of the next periodic self-audit's rotating window. */
    std::uint64_t audit_cursor = 0;
};

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_CONTROLLER_HPP
