#include "sim/device.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace pimphony {
namespace sim {

namespace {

/**
 * Charge of @p item when it launches with a prefill chunk, or 0 when
 * it cannot: only a decode share that carries a fused charge rides.
 */
double
fusedCharge(const WorkItem &item)
{
    if (item.kind != WorkItem::Kind::DecodeCycle || item.fusedFcSeconds <= 0.0)
        return 0.0;
    return std::min(item.fusedFcSeconds, item.seconds);
}

} // namespace

double
Device::submit(EventQueue &queue, const WorkItem &item, double ready,
               CompletionFn done)
{
    double start = std::max(ready, busyUntil_);
    double completion = start + item.seconds;
    busyUntil_ = completion;
    busySeconds_ += item.seconds;
    // Completion times on a FIFO timeline are monotone, so the
    // completion events of this device fire in submission order: the
    // event only needs the device pointer, and the item + callback
    // wait in the reusable in-flight ring (no per-event closure
    // state, no allocation).
    inflight_.push(InFlight{item, std::move(done)});
    queue.schedule(completion, [this](double t) { completeFront(t); });
    return completion;
}

void
Device::completeFront(double t)
{
    InFlight f = std::move(inflight_.front());
    inflight_.pop();
    ++completed_;
    onComplete(f.item, t);
    if (f.done)
        f.done(t);
}

void
Device::onComplete(const WorkItem &, double)
{
}

double
QueuedDevice::submit(EventQueue &queue, const WorkItem &item,
                     double ready, CompletionFn done)
{
    if (!arbiter_) {
        if (item.kind == WorkItem::Kind::PrefillChunk) {
            lastChunkStart_ = std::max(ready, Device::busyUntil());
            return Device::submit(queue, item, ready, std::move(done));
        }
        // A share ready by the time the last reserved chunk starts
        // waits for it, so it launches with it: reserved right after
        // the chunk (and earlier riders) at its fused charge.
        WorkItem charged = item;
        double fused = fusedCharge(item);
        if (fused > 0.0 && ready <= lastChunkStart_) {
            charged.seconds = fused;
            ++fused_;
        }
        double completion =
            Device::submit(queue, charged, ready, std::move(done));
        double wait = completion - charged.seconds - ready;
        maxDecodeWait_ = std::max(maxDecodeWait_, wait);
        return completion;
    }

    Pending p;
    p.item = item;
    p.ready = ready;
    p.remaining = item.seconds;
    p.done = std::move(done);
    p.seq = nextSeq_++;
    pending_.push_back(std::move(p));

    if (ready > queue.now()) {
        // Not yet eligible: wake the dispatcher when it becomes so.
        queue.schedule(ready, [this, &queue](double) { pump(queue); });
    } else {
        pump(queue);
    }
    // Advisory congestion-free estimate; the completion callback is
    // the authoritative time (arbitration depends on future work).
    return std::max(ready, busyUntil()) + item.seconds;
}

double
QueuedDevice::busyUntil() const
{
    return arbiter_ ? timelineEnd_ : Device::busyUntil();
}

double
QueuedDevice::busySeconds() const
{
    return arbiter_ ? servedSeconds_ : Device::busySeconds();
}

std::uint64_t
QueuedDevice::completedItems() const
{
    return arbiter_ ? completed_ : Device::completedItems();
}

void
QueuedDevice::pump(EventQueue &queue)
{
    if (inService_ || pending_.empty())
        return;
    double now = queue.now();

    std::size_t at = 0; // pending_ index of this dispatch
    bool rider = riders_ > 0;
    if (rider) {
        // The riders of the completed chunk launch first, in queue
        // order and unsliced: they are the tail of its launch.
        while (!pending_[at].rides)
            ++at;
        pending_[at].rides = false;
        --riders_;
    } else {
        std::vector<const WorkItem *> &eligible = eligibleScratch_;
        std::vector<std::size_t> &index = indexScratch_;
        eligible.clear();
        index.clear();
        double earliest = pending_.front().ready;
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            earliest = std::min(earliest, pending_[i].ready);
            if (pending_[i].ready <= now) {
                eligible.push_back(&pending_[i].item);
                index.push_back(i);
            }
        }
        if (eligible.empty()) {
            // Everything queued becomes ready in the future; sleep
            // until the earliest (redundant wakes no-op through this
            // guard).
            queue.schedule(earliest, [this, &queue](double) { pump(queue); });
            return;
        }

        std::size_t pick = arbiter_->pickNext(eligible);
        if (pick >= eligible.size())
            panic("%s: arbiter picked item %zu of %zu eligible",
                  name().c_str(), pick, eligible.size());
        if (pick != 0)
            ++overtakes_; // jumped at least one earlier-queued item
        at = index[pick];
    }
    Pending &p = pending_[at];

    double quantum = rider ? 0.0 : arbiter_->sliceSeconds(p.item);
    sliceIsFinal_ =
        !(quantum > 0.0 && p.remaining > quantum * (1.0 + 1e-9));
    double serve = sliceIsFinal_ ? p.remaining : quantum;
    if (sliceIsFinal_ && p.item.kind == WorkItem::Kind::PrefillChunk &&
        eligibleScratch_.size() > 1)
        fuseWaitingShares(p.seq);

    // Wait metrics are recorded only on an item's FIRST dispatch: a
    // quantum-sliced decode item's resumes would otherwise count its
    // own earlier service as queueing delay.
    if (p.item.kind == WorkItem::Kind::DecodeCycle &&
        p.item.servedSeconds == 0.0)
        maxDecodeWait_ = std::max(maxDecodeWait_, now - p.ready);

    inService_ = true;
    serviceSeq_ = p.seq;
    sliceSeconds_ = serve;
    timelineEnd_ = now + serve;
    servedSeconds_ += serve;
    queue.schedule(timelineEnd_,
                   [this, &queue](double t) { finishSlice(queue, t); });
}

void
QueuedDevice::fuseWaitingShares(std::uint64_t chunk)
{
    for (std::size_t i : indexScratch_) {
        Pending &w = pending_[i];
        double fused = fusedCharge(w.item);
        if (w.seq == chunk || fused <= 0.0 || w.item.servedSeconds > 0.0)
            continue;
        w.item.seconds = fused;
        w.remaining = fused;
        w.rides = true;
        ++riders_;
        ++fused_;
    }
}

void
QueuedDevice::finishSlice(EventQueue &queue, double t)
{
    inService_ = false;
    std::size_t idx = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].seq == serviceSeq_) {
            idx = i;
            break;
        }
    }
    if (idx == pending_.size())
        panic("%s: in-service item vanished from the queue",
              name().c_str());
    Pending &p = pending_[idx];
    p.item.servedSeconds += sliceSeconds_;
    if (sliceIsFinal_) {
        WorkItem done_item = p.item;
        CompletionFn done = std::move(p.done);
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        ++completed_;
        onComplete(done_item, t);
        if (done)
            done(t);
    } else {
        // Preempted at the quantum: the remainder keeps its queue
        // position (seq) and re-enters arbitration.
        p.remaining -= sliceSeconds_;
        ++p.item.slices;
        ++slices_;
        if (p.item.kind == WorkItem::Kind::DecodeCycle)
            ++decodeSlices_;
    }
    pump(queue);
}

} // namespace sim
} // namespace pimphony
