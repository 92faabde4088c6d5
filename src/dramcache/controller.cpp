#include "dramcache/controller.hpp"

#include <algorithm>
#include <typeinfo>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/trace_event/tracer.hpp"
#include "dramcache/access_plan.hpp"
#include "dramcache/audit.hpp"
#include "dramcache/org_setassoc.hpp"

namespace accord::dramcache
{

namespace
{

/** Shrink channel/bank counts so a small (test-sized) cache still maps
 *  onto the device cleanly; full-sized configs are unchanged. */
dram::TimingParams
fitTiming(dram::TimingParams timing, std::uint64_t capacity)
{
    timing.capacityBytes = capacity;
    while (timing.channels > 1
           && capacity % (static_cast<std::uint64_t>(timing.channels)
                          * timing.banksPerChannel * timing.rowBytes)
               != 0) {
        if (timing.banksPerChannel > 1)
            timing.banksPerChannel /= 2;
        else
            timing.channels /= 2;
    }
    return timing;
}

/** Resolve the params' organization name against the registry. */
const OrgFactory *
resolveOrgFactory(const DramCacheParams &params)
{
    registerBuiltinOrganizations();
    const std::string name =
        params.orgName.empty() ? toToken(params.org) : params.orgName;
    const OrgFactory *factory = organizationRegistry().find(name);
    if (factory == nullptr) {
        std::string known;
        for (const auto &entry : organizationRegistry().names())
            known += (known.empty() ? "" : ", ") + entry;
        fatal("dram cache: unknown organization '%s' (registered: %s)",
              name.c_str(), known.c_str());
    }
    return factory;
}

} // namespace

double
DramCacheStats::transfersPerRead() const
{
    const std::uint64_t reads = readHits.total();
    if (reads == 0)
        return 0.0;
    return static_cast<double>(cacheReadTransfers.value()
                               + cacheWriteTransfers.value())
        / static_cast<double>(reads);
}

void
DramCacheStats::reset()
{
    readHits.reset();
    wayPrediction.reset();
    cacheReadTransfers.reset();
    cacheWriteTransfers.reset();
    nvmReads.reset();
    nvmWrites.reset();
    writebacksToCache.reset();
    writebacksToNvm.reset();
    writebackProbeTransfers.reset();
    dcpStaleWritebacks.reset();
    swaps.reset();
    replacementUpdateWrites.reset();
    probesPerRead.reset();
    readHitLatency.reset();
    readMissLatency.reset();
}

DramCacheController::DramCacheController(
    const DramCacheParams &params,
    std::unique_ptr<core::WayPolicy> policy, dram::TimingParams timing,
    EventQueue &eq, nvm::NvmSystem &nvm)
    : params(params), org_factory_(resolveOrgFactory(this->params)),
      geom(org_factory_->geometry(this->params)),
      policy_(std::move(policy)), eq(eq), nvm(nvm),
      hbm_(fitTiming(timing, params.capacityBytes), eq),
      layout(geom, hbm_.params(), params.layout),
      tags(geom, params.stateBackend), dcp(tags),
      audit_countdown(params.auditInterval)
{
    // The plan core owns the probe bound: any organization a factory
    // produces must fit its probe sequences in kMaxWays steps.
    ACCORD_ASSERT(geom.ways >= 1 && geom.ways <= kMaxWays,
                  "organization geometry exceeds the plan-core bound");
    org_ = org_factory_->make(OrgContext{this->params, geom, tags, dcp,
                                         stats_, policy_.get(), *this});
    // Exact-type check, not dynamic_cast: a registry plug-in derived
    // from SetAssocOrg must keep virtual dispatch so its overrides
    // run; only the built-in itself takes the qualified-call path.
    setassoc_ = typeid(*org_) == typeid(SetAssocOrg)
        ? static_cast<SetAssocOrg *>(org_.get())
        : nullptr;
}

DramCacheController::~DramCacheController() = default;

void
DramCacheController::auditWindow(InvariantAuditor &auditor,
                                 std::uint64_t firstSet,
                                 std::uint64_t lastSet) const
{
    auditTagStoreRange(tags, auditor, firstSet, lastSet);
    org_->auditRange(auditor, firstSet, lastSet);
    // In-flight transactions sample some counters at issue and others
    // at completion, so the identities only hold at quiescence.
    if (quiesced())
        auditStats(stats_, auditor);
}

void
DramCacheController::audit(InvariantAuditor &auditor) const
{
    auditTagStore(tags, auditor);
    org_->auditFull(auditor);
    // In-flight transactions sample some counters at issue and others
    // at completion, so the identities only hold at quiescence.
    if (quiesced())
        auditStats(stats_, auditor);
}

void
DramCacheController::maybeAudit()
{
    if (params.auditInterval == 0 || --audit_countdown != 0)
        return;
    audit_countdown = params.auditInterval;
    InvariantAuditor auditor;
    // One bounded slice per firing, rotating through the array, so
    // the amortized audit cost stays O(1) per demand read no matter
    // the cache size (a full sweep here made Debug runs ~30x slower).
    constexpr std::uint64_t window = 1024;
    const std::uint64_t first = audit_cursor;
    const std::uint64_t last = std::min(first + window, geom.sets);
    audit_cursor = last >= geom.sets ? 0 : last;
    auditWindow(auditor, first, last);
    auditor.enforce(describe().c_str());
}

std::string
DramCacheController::describe() const
{
    return org_->describe();
}

ACCORD_HOT void
DramCacheController::cacheOp(std::uint64_t set, unsigned way,
                             bool is_write,
                             dram::MemCallback on_complete,
                             bool priority, trace_event::TxnId txn)
{
    dram::MemOp op;
    op.loc = layout.locate(set, way);
    op.isWrite = is_write;
    op.priority = priority;
    op.onComplete = std::move(on_complete);
    op.txn = txn;
    hbm_.enqueue(std::move(op));
}

ACCORD_HOT void
DramCacheController::nvmWrite(LineAddr line,
                              dram::MemCallback on_complete,
                              trace_event::TxnId txn)
{
    nvm.writeLine(line, std::move(on_complete), txn);
}

void
DramCacheController::attachTracer(trace_event::Tracer &tracer)
{
    tracer_ = &tracer;
    hbm_.attachTracer(tracer, trace_event::Device::Dram);
}

std::function<dram::MemCallback()>
DramCacheController::beginFillGroup(trace_event::TxnId parent,
                                    LineAddr line,
                                    trace_event::TxnId &fill_txn)
{
    fill_txn = trace_event::kNoTxn;
    if (tracer_ == nullptr || parent == trace_event::kNoTxn)
        return [] { return dram::MemCallback{}; };

    fill_txn = tracer_->begin(trace_event::TxnKind::Fill,
                              trace_event::kNoCore, line, eq.now());
    // All member ops are registered synchronously inside the current
    // event, so the counter cannot hit zero before the group is fully
    // built.
    // accord-lint: allow(hot-alloc) fill groups exist only on traced
    // runs, which trade throughput for attribution by design
    auto remaining = std::make_shared<unsigned>(0);
    const trace_event::TxnId id = fill_txn;
    return [this, id, remaining]() -> dram::MemCallback {
        ++*remaining;
        return [this, id, remaining](Cycle when) {
            if (--*remaining == 0) {
                tracer_->complete(
                    id, trace_event::RequestClass::Fill, when);
            }
        };
    };
}

// --------------------------------------------------------------------
// Functional (untimed) path
// --------------------------------------------------------------------

ACCORD_HOT bool
DramCacheController::warmRead(LineAddr line)
{
#if ACCORD_CHECKS_ENABLED
    maybeAudit();
#endif
    const AccessPlan plan = org_->planRead(line);
    const HitLocation loc = resolve(plan, tags);

    if (loc.index >= 0) {
        const auto index = static_cast<unsigned>(loc.index);
        const unsigned transfers = plan.hitTransfers(index);
        stats_.cacheReadTransfers.inc(transfers);
        stats_.probesPerRead.sample(static_cast<double>(transfers));
        stats_.readHits.hit();
        stats_.wayPrediction.add(AccessPlan::predictedAt(index));
        HitContext hit;
        hit.line = line;
        hit.set = plan.probes[index].set;
        hit.way = loc.way;
        hit.probeIndex = index;
        hit.timed = false;
        org_->onReadHit(hit);
        org_->afterReadHit(hit);
        return true;
    }

    const unsigned transfers = plan.missTransfers();
    stats_.cacheReadTransfers.inc(transfers);
    stats_.probesPerRead.sample(static_cast<double>(transfers));
    stats_.readHits.miss();
    org_->onReadMiss(plan.ref);
    stats_.nvmReads.inc();
    org_->installAfterMiss(line, /* timed */ false,
                           trace_event::kNoTxn);
    return false;
}

ACCORD_HOT void
DramCacheController::warmWriteback(LineAddr line)
{
    writebackCommon(line, /* timed */ false);
}

void
DramCacheController::writeback(LineAddr line, trace_event::TxnId txn)
{
    writebackCommon(line, /* timed */ true,
                    tracer_ != nullptr ? txn : trace_event::kNoTxn);
}

// --------------------------------------------------------------------
// Writebacks (shared)
// --------------------------------------------------------------------

ACCORD_HOT void
DramCacheController::writebackCommon(LineAddr line, bool timed,
                                     trace_event::TxnId txn)
{
    // The transaction completes when its routed data write finishes
    // (straggling locate probes only add device events).
    dram::MemCallback complete_cb;
    if (txn != trace_event::kNoTxn) {
        complete_cb = [this, txn](Cycle when) {
            tracer_->complete(
                txn, trace_event::RequestClass::Writeback, when);
        };
    }
    const auto route_point = [this, txn](trace_event::Point point) {
        if (txn != trace_event::kNoTxn)
            tracer_->point(txn, point, eq.now());
    };

    DcpTarget target;
    if (params.dcpWayBits) {
        const auto dcp_way = dcp.lookup(line);
        if (dcp_way) {
            target = org_->dcpTarget(line, *dcp_way);
            // A stale entry (the line moved between the fill that set
            // the L3's way bits and this writeback) falls back to the
            // memory path, like a lost presence bit would.
            if (!target.present)
                stats_.dcpStaleWritebacks.inc();
        }
    } else {
        // No DCP way bits: a probe sequence locates the line (or
        // confirms absence) before the write can be routed.
        const AccessPlan plan = org_->planDemandLocate(line);
        const HitLocation loc = resolve(plan, tags);
        const unsigned probes = loc.index >= 0
            ? static_cast<unsigned>(loc.index) + 1
            : plan.probeCount;
        stats_.cacheReadTransfers.inc(probes);
        stats_.writebackProbeTransfers.inc(probes);
        if (timed) {
            for (unsigned i = 0; i < probes; ++i)
                cacheOp(plan.probes[i].set, plan.probes[i].way, false,
                        {}, false, txn);
        }
        if (loc.index >= 0) {
            target.set = plan.probes[loc.index].set;
            target.way = plan.probes[loc.index].way;
            target.present = true;
        }
    }

    if (target.present) {
        tags.markDirty(target.set, target.way);
        stats_.cacheWriteTransfers.inc();
        stats_.writebacksToCache.inc();
        if (timed) {
            route_point(trace_event::Point::RoutedToCache);
            cacheOp(target.set, target.way, true, std::move(complete_cb),
                    false, txn);
        }
    } else {
        stats_.nvmWrites.inc();
        stats_.writebacksToNvm.inc();
        if (timed) {
            route_point(trace_event::Point::RoutedToNvm);
            nvm.writeLine(line, std::move(complete_cb), txn);
        }
    }
}

void
DramCacheController::resetStats()
{
    ACCORD_ASSERT(!stats_excluded_,
                  "resetStats() inside a stats-exclusion window");
    stats_.reset();
    hbm_.resetStats();
}

void
DramCacheController::beginStatsExclusion()
{
    ACCORD_ASSERT(!stats_excluded_, "stats exclusion cannot nest");
    excluded_saved_ = stats_;
    stats_excluded_ = true;
}

void
DramCacheController::endStatsExclusion()
{
    ACCORD_ASSERT(stats_excluded_,
                  "endStatsExclusion() without begin");
    stats_ = excluded_saved_;
    stats_excluded_ = false;
}

void
DramCacheStats::registerMetrics(MetricRegistry &registry,
                                const std::string &prefix) const
{
    const auto path = [&prefix](const char *name) {
        return MetricRegistry::join(prefix, name);
    };
    registry.addRatio(path("lookup"), readHits);
    registry.addRatio(path("way_prediction"), wayPrediction);
    registry.addCounter(path("xfer.cache_reads"), cacheReadTransfers);
    registry.addCounter(path("xfer.cache_writes"),
                        cacheWriteTransfers);
    registry.addCounter(path("nvm_reads"), nvmReads);
    registry.addCounter(path("nvm_writes"), nvmWrites);
    registry.addCounter(path("wb.to_cache"), writebacksToCache);
    registry.addCounter(path("wb.to_nvm"), writebacksToNvm);
    registry.addCounter(path("wb.probe_transfers"),
                        writebackProbeTransfers);
    registry.addCounter(path("wb.dcp_stale"), dcpStaleWritebacks);
    registry.addCounter(path("ca_swaps"), swaps);
    registry.addCounter(path("replacement_update_writes"),
                        replacementUpdateWrites);
    registry.addAverage(path("probes_per_read"), probesPerRead);
    registry.addAverage(path("read_hit_latency"), readHitLatency);
    registry.addAverage(path("read_miss_latency"), readMissLatency);
    registry.addGauge(path("transfers_per_read"),
                      [this] { return transfersPerRead(); });
}

void
DramCacheController::registerMetrics(MetricRegistry &registry,
                                     const std::string &prefix) const
{
    stats_.registerMetrics(registry, prefix);
    if (policy_) {
        policy_->registerMetrics(
            registry, MetricRegistry::join(prefix, "policy"));
    }
}

} // namespace accord::dramcache
