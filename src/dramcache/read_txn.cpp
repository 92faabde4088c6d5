/**
 * @file
 * The timed demand-read engine: executes an organization's AccessPlan
 * against the stacked-DRAM device, one transaction at a time.
 *
 * The engine dispatches on the plan's IssueShape only — which ways to
 * probe, in what order, and what each outcome costs was decided by the
 * plan core, so this file contains no lookup-mode or organization
 * logic.
 */

#include <new>

#include "common/trace_event/tracer.hpp"
#include "dramcache/access_plan.hpp"
#include "dramcache/controller.hpp"
#include "dramcache/org_setassoc.hpp"

namespace accord::dramcache
{

/**
 * In-flight state of one timed demand read.  Device callbacks refer
 * to it by raw pointer; `holds` counts the continuations that still
 * need it, and release() returns it to the pool when the last one
 * finishes.
 */
struct DramCacheController::ReadTxn
{
    AccessPlan plan;
    ReadDone done;
    Cycle start = 0;

    /** Trace transaction of this read (kNoTxn when untraced). */
    trace_event::TxnId trace = trace_event::kNoTxn;

    /** 1 for the completion, plus 1 per outstanding broadside probe. */
    unsigned holds = 1;

    /** Broadside issue: probe index of the resident way, -1 if absent. */
    int parallelHitPos = -1;
    unsigned parallelArrived = 0;
};

ACCORD_HOT void
DramCacheController::read(LineAddr line, ReadDone done,
                          trace_event::TxnId trace)
{
#if ACCORD_CHECKS_ENABLED
    maybeAudit();
#endif

    // Pool-allocated: transactions recycle through txn_pool_ instead
    // of hitting the heap on every demand read.  The plan (kMaxWays
    // probe slots) is built straight into the transaction, never
    // zeroed or copied on the way.  Devirtualized fast path: when the
    // organization is exactly the built-in SetAssocOrg, qualified
    // calls skip the vtable and inline.
    ReadTxn *txn = ::new (txn_pool_.take(sizeof(ReadTxn))) ReadTxn{
        setassoc_ != nullptr ? setassoc_->SetAssocOrg::planRead(line)
                             : org_->planRead(line),
        std::move(done), eq.now(),
        tracer_ != nullptr ? trace : trace_event::kNoTxn};
    ++in_flight;

    if (txn->trace != trace_event::kNoTxn) {
        tracer_->phaseBegin(txn->trace, trace_event::Phase::Lookup,
                            txn->start);
    }

    switch (txn->plan.shape) {
      case IssueShape::Single: {
        // One magic probe resolves hit and miss alike (Fig 1c bound).
        stats_.cacheReadTransfers.inc();
        stats_.probesPerRead.sample(1.0);
        if (txn->trace != trace_event::kNoTxn) {
            tracer_->point(txn->trace, trace_event::Point::ProbeIssue,
                           eq.now(), txn->plan.probes[0].traceWay);
        }
        cacheOp(txn->plan.probes[0].set, txn->plan.probes[0].way,
                false, [this, txn](Cycle when) {
            const HitLocation loc = resolve(txn->plan, tags);
            if (loc.index >= 0)
                finishHit(txn, loc.way, loc.way, 0, when);
            else
                missConfirmed(txn, when);
        }, false, txn->trace);
        return;
      }

      case IssueShape::Broadside: {
        // All probes leave at once; the hit position is fixed now,
        // against the tag state at issue.
        const HitLocation loc = resolve(txn->plan, tags);
        txn->parallelHitPos = loc.index;
        txn->holds += txn->plan.probeCount;
        stats_.probesPerRead.sample(
            static_cast<double>(txn->plan.probeCount));
        for (unsigned i = 0; i < txn->plan.probeCount; ++i) {
            stats_.cacheReadTransfers.inc();
            if (txn->trace != trace_event::kNoTxn) {
                tracer_->point(txn->trace,
                               trace_event::Point::ProbeIssue,
                               eq.now(), txn->plan.probes[i].traceWay);
            }
            cacheOp(txn->plan.probes[i].set, txn->plan.probes[i].way,
                    false, [this, txn](Cycle when) {
                ++txn->parallelArrived;
                const auto hit_pos =
                    static_cast<unsigned>(txn->parallelHitPos);
                if (txn->parallelHitPos >= 0
                    && txn->parallelArrived == hit_pos + 1) {
                    finishHit(txn, txn->plan.probes[hit_pos].way,
                              txn->plan.probes[hit_pos].traceWay,
                              hit_pos, when);
                } else if (txn->parallelHitPos < 0
                           && txn->parallelArrived
                               == txn->plan.probeCount) {
                    missConfirmed(txn, when);
                }
                release(txn);
            }, false, txn->trace);
        }
        return;
      }

      case IssueShape::Chained:
        issueProbe(txn, 0);
        return;
    }
}

ACCORD_HOT void
DramCacheController::release(ReadTxn *txn)
{
    if (--txn->holds != 0)
        return;
    txn->~ReadTxn();
    txn_pool_.give(txn);
}

ACCORD_HOT void
DramCacheController::issueProbe(ReadTxn *txn, unsigned index)
{
    stats_.cacheReadTransfers.inc();
    if (txn->trace != trace_event::kNoTxn) {
        tracer_->point(txn->trace, trace_event::Point::ProbeIssue,
                       eq.now(), txn->plan.probes[index].traceWay);
    }
    // Follow-up probes jump the device queue: the lookup already paid
    // a miss at the predicted slot and sits on the critical path.
    cacheOp(txn->plan.probes[index].set, txn->plan.probes[index].way,
            false, [this, txn, index](Cycle when) {
        probeDone(txn, index, when);
    }, /* priority */ index > 0, txn->trace);
}

ACCORD_HOT void
DramCacheController::probeDone(ReadTxn *txn, unsigned index,
                               Cycle when)
{
    // Chained probes check live tags: an overlapping fill may have
    // installed or moved the line since this probe was issued.
    if (stepHits(txn->plan.probes[index], tags)) {
        stats_.probesPerRead.sample(static_cast<double>(index + 1));
        finishHit(txn, txn->plan.probes[index].way,
                  txn->plan.probes[index].traceWay, index, when);
        return;
    }
    if (index + 1 < txn->plan.probeCount) {
        issueProbe(txn, index + 1);
        return;
    }
    stats_.probesPerRead.sample(
        static_cast<double>(txn->plan.probeCount));
    missConfirmed(txn, when);
}

ACCORD_HOT void
DramCacheController::finishHit(ReadTxn *txn, unsigned way,
                               unsigned trace_way, unsigned probe_index,
                               Cycle when)
{
    stats_.readHits.hit();
    stats_.wayPrediction.add(AccessPlan::predictedAt(probe_index));
    stats_.readHitLatency.sample(static_cast<double>(when - txn->start));

    HitContext hit;
    hit.line = txn->plan.ref.line;
    hit.set = txn->plan.probes[probe_index].set;
    hit.way = way;
    hit.probeIndex = probe_index;
    hit.timed = true;
    hit.trace = txn->trace;
    if (setassoc_ != nullptr)
        setassoc_->SetAssocOrg::onReadHit(hit);
    else
        org_->onReadHit(hit);

    --in_flight;
    if (txn->trace != trace_event::kNoTxn) {
        tracer_->point(txn->trace,
                       probe_index == 0
                           ? trace_event::Point::PredictCorrect
                           : trace_event::Point::PredictWrong,
                       when, trace_way);
        tracer_->phaseEnd(txn->trace, trace_event::Phase::Lookup,
                          when);
        tracer_->complete(
            txn->trace,
            probe_index == 0
                ? trace_event::RequestClass::HitPredict
                : trace_event::RequestClass::HitMispredict,
            when);
    }
    if (txn->done)
        txn->done(true, when);

    // Post-completion work (e.g. the CA swap-to-primary) runs off the
    // critical path, after the requester has its data.
    if (setassoc_ != nullptr)
        setassoc_->OrgStrategy::afterReadHit(hit); // the base no-op
    else
        org_->afterReadHit(hit);
    release(txn);
}

ACCORD_HOT void
DramCacheController::missConfirmed(ReadTxn *txn, Cycle when)
{
    stats_.readHits.miss();
    if (setassoc_ != nullptr)
        setassoc_->SetAssocOrg::onReadMiss(txn->plan.ref);
    else
        org_->onReadMiss(txn->plan.ref);
    stats_.nvmReads.inc();

    if (txn->trace != trace_event::kNoTxn) {
        tracer_->point(txn->trace, trace_event::Point::MissConfirm,
                       when);
        tracer_->phaseEnd(txn->trace, trace_event::Phase::Lookup,
                          when);
        tracer_->phaseBegin(txn->trace, trace_event::Phase::Nvm,
                            when);
    }

    nvm.readLine(txn->plan.ref.line, [this, txn](Cycle nvm_done) {
        stats_.readMissLatency.sample(
            static_cast<double>(nvm_done - txn->start));
        --in_flight;
        if (txn->trace != trace_event::kNoTxn) {
            tracer_->phaseEnd(txn->trace, trace_event::Phase::Nvm,
                              nvm_done);
            tracer_->complete(txn->trace,
                              trace_event::RequestClass::Miss,
                              nvm_done);
        }
        if (txn->done)
            txn->done(false, nvm_done);

        // Fill off the critical path: functional install now, the
        // array writes and any victim writeback posted.
        if (setassoc_ != nullptr)
            setassoc_->SetAssocOrg::installAfterMiss(txn->plan.ref.line,
                                        /* timed */ true, txn->trace);
        else
            org_->installAfterMiss(txn->plan.ref.line, /* timed */ true,
                                   txn->trace);
        release(txn);
    }, txn->trace);
}

} // namespace accord::dramcache
