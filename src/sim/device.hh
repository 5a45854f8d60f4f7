/**
 * @file
 * Device abstractions for the event-driven serving core.
 *
 * A Device is a FIFO-serial timeline: work submitted with a ready
 * time begins at max(ready, busyUntil()) and completes after its
 * service time. Submission is synchronous on the timeline arithmetic
 * (so callers can chain stages deterministically) while completion
 * notifications are delivered through the event queue, keeping all
 * observable ordering in event time.
 *
 * A QueuedDevice generalizes the timeline to queue-based arbitration:
 * items wait in a pending queue and a QueueArbiter picks the next one
 * at every dispatch point (dispatch decisions happen in event time,
 * so later-submitted work can overtake queued work) and may bound a
 * dispatch to a service quantum (preempting an in-flight item at the
 * slice boundary). With no arbiter a QueuedDevice degenerates to the
 * plain Device timeline, bit for bit, apart from the one launch rule
 * both modes share: a decode share waiting on the device when a
 * prefill chunk launches launches with it (see QueuedDevice). Because
 * arbitration depends on future submissions, QueuedDevice completion
 * times are authoritative only through the completion callback; the
 * submit() return value is a congestion-free estimate.
 *
 * Performance contract: completion callbacks are sim::SimFn
 * (small-buffer, no heap), and a device keeps its in-flight items in
 * a reusable FIFO ring instead of capturing them in per-event
 * closures — the FIFO timeline's completion times are monotone, so
 * completion events pop the ring in order. Steady-state submission
 * therefore allocates nothing.
 */

#ifndef PIMPHONY_SIM_DEVICE_HH
#define PIMPHONY_SIM_DEVICE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/small_fn.hh"
#include "sim/work_item.hh"

namespace pimphony {
namespace sim {

class Device
{
  public:
    using CompletionFn = SimFn;

    explicit Device(std::string name) : name_(std::move(name)) {}
    virtual ~Device() = default;

    const std::string &name() const { return name_; }

    /** Time the device frees after everything submitted so far. */
    virtual double busyUntil() const { return busyUntil_; }

    /** Total service seconds accepted (occupancy accounting). */
    virtual double busySeconds() const { return busySeconds_; }

    virtual std::uint64_t completedItems() const { return completed_; }

    /**
     * Submit @p item, eligible to start at @p ready. The item begins
     * at max(ready, busyUntil()) and occupies the device for
     * item.seconds. @p done (optional) is scheduled on @p queue at
     * the completion time, after the device's own onComplete hook.
     *
     * @return the completion time.
     */
    virtual double submit(EventQueue &queue, const WorkItem &item,
                          double ready, CompletionFn done = nullptr);

  protected:
    /** Hook observed at completion time (via the event queue). */
    virtual void onComplete(const WorkItem &item, double completion);

  private:
    struct InFlight
    {
        WorkItem item;
        CompletionFn done;
    };

    /** Completion event handler: pop + notify the oldest item. */
    void completeFront(double t);

    std::string name_;
    double busyUntil_ = 0.0;
    double busySeconds_ = 0.0;
    std::uint64_t completed_ = 0;
    RingQueue<InFlight> inflight_;
};

/**
 * Arbitration hooks for a QueuedDevice. The sim layer defines only
 * the mechanism (pick + slice); the serving engine's arbiter,
 * TierPriorityArbiter, lives in system/sched_policy.
 */
class QueueArbiter
{
  public:
    virtual ~QueueArbiter() = default;

    /**
     * Pick the next item to dispatch. @p eligible holds the queued
     * items whose ready time has passed, in submission (FIFO) order;
     * it is never empty. @return an index into @p eligible (a device
     * panics on any other value). The default is FIFO (index 0).
     */
    virtual std::size_t
    pickNext(const std::vector<const WorkItem *> &eligible) const
    {
        (void)eligible;
        return 0;
    }

    /**
     * Longest single dispatch of @p item in seconds. A value <= 0
     * serves the item's remaining charge unsliced; a positive
     * quantum preempts the item at the slice boundary and re-queues
     * the remainder (keeping its queue position), so the device
     * re-arbitrates at least every quantum.
     */
    virtual double
    sliceSeconds(const WorkItem &item) const
    {
        (void)item;
        return 0.0;
    }
};

/**
 * A serial device whose dispatch order is delegated to a
 * QueueArbiter. Submitted items wait in a pending queue; whenever
 * the device idles it dispatches the arbiter's pick among the ready
 * items (or sleeps until the earliest ready time). Preempted items
 * conserve their total service charge exactly: the slices of one
 * item sum to its WorkItem::seconds, and busySeconds() accounts
 * every slice as served.
 *
 * With a null arbiter every call forwards to the plain Device
 * timeline arithmetic, preserving the FIFO semantics (including
 * advance reservation of future-ready items) exactly.
 *
 * Hybrid launch, in both modes: when a PrefillChunk launches, every
 * DecodeCycle share already waiting on the device (one that carries
 * a WorkItem::fusedFcSeconds charge and has not been served) launches
 * with it. The chunk streams the weights for both, so the share is
 * charged only its fused seconds and completes right after the chunk
 * (after earlier riders, in queue order). A share that becomes ready
 * after the chunk started waits and runs stand-alone; a share queued
 * ahead of the chunk is never delayed. On the reservation timeline a
 * share fuses when the last reserved chunk starts at or after the
 * share's ready time. Under an arbiter, a chunk launches at its final
 * dispatch (its only one unless the arbiter slices chunks; a sliced
 * chunk's earlier slices launch nothing), and the decode items
 * eligible then join it. Policies that pick decode first never leave
 * one waiting.
 */
class QueuedDevice : public Device
{
  public:
    QueuedDevice(std::string name, const QueueArbiter *arbiter)
        : Device(std::move(name)), arbiter_(arbiter)
    {
    }

    double submit(EventQueue &queue, const WorkItem &item, double ready,
                  CompletionFn done = nullptr) override;

    double busyUntil() const override;
    double busySeconds() const override;
    std::uint64_t completedItems() const override;

    bool arbitrated() const { return arbiter_ != nullptr; }

    // --- Policy observability. --------------------------------------

    /** Preemption splits (dispatches that left a remainder queued). */
    std::uint64_t preemptionSlices() const { return slices_; }

    /** Preemption splits of DecodeCycle-kind items only (tier-aware
     *  policies slice lower-tier in-flight decode work). */
    std::uint64_t decodePreemptionSlices() const { return decodeSlices_; }

    /** Dispatches that overtook earlier-queued eligible work. */
    std::uint64_t overtakes() const { return overtakes_; }

    /** Decode shares that launched together with a prefill chunk. */
    std::uint64_t fusedShares() const { return fused_; }

    /**
     * Worst queueing delay (start - ready) of a DecodeCycle-kind
     * item, i.e. the longest a decode share stalled behind other
     * work on this timeline, in both modes. A fused share starts its
     * own compute when its chunk completes.
     */
    double maxDecodeWaitSeconds() const { return maxDecodeWait_; }

  private:
    struct Pending
    {
        WorkItem item;
        double ready = 0.0;
        double remaining = 0.0;
        CompletionFn done;
        std::uint64_t seq = 0;
        /** Rides the chunk in service: dispatched, unsliced, as soon
         *  as that chunk completes. */
        bool rides = false;
    };

    /** Make the eligible decode shares (@ref indexScratch_) riders
     *  of the chunk with seq @p chunk, dispatched for its launch. */
    void fuseWaitingShares(std::uint64_t chunk);

    /** Dispatch the next eligible item when idle. */
    void pump(EventQueue &queue);

    /** Completion of the in-service slice at @p t. */
    void finishSlice(EventQueue &queue, double t);

    const QueueArbiter *arbiter_;
    std::vector<Pending> pending_;
    /** Per-pump scratch (reused; pump is never re-entered). */
    std::vector<const WorkItem *> eligibleScratch_;
    std::vector<std::size_t> indexScratch_;
    bool inService_ = false;
    bool sliceIsFinal_ = false;
    double sliceSeconds_ = 0.0;
    std::uint64_t serviceSeq_ = 0;
    double timelineEnd_ = 0.0;
    double servedSeconds_ = 0.0;
    std::uint64_t completed_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t slices_ = 0;
    std::uint64_t decodeSlices_ = 0;
    std::uint64_t overtakes_ = 0;
    std::uint64_t fused_ = 0;
    /** Queued items that ride the chunk in service. */
    std::size_t riders_ = 0;
    /** Reservation mode: start of the last reserved chunk. */
    double lastChunkStart_ = -1.0;
    double maxDecodeWait_ = 0.0;
};

} // namespace sim
} // namespace pimphony

#endif // PIMPHONY_SIM_DEVICE_HH
