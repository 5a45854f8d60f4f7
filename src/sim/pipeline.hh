/**
 * @file
 * Pipeline-parallel stage composition for the event-driven core.
 *
 * A StagePipeline owns an ordered list of stage devices (each the
 * serializing resource of one PP stage). One decode cycle of a
 * cohort traverses every stage in order; the hand-off from stage s
 * to s+1 happens at s's completion event, so cohort m+1 enters stage
 * s while cohort m occupies s+1, so a fast cohort is never padded to
 * the slowest one's stage beat.
 *
 * Prefill chunks use the same traversal: submitSequence() runs an
 * ordered list of elements (one per chunk) through the stages with
 * element k+1 entering stage 0 at element k's stage-0 completion.
 * Sequences are served first-come-first-served: a sequence's first
 * element enters stage 0 when the previous sequence's last element
 * completes stage 0 (or at its own ready time, if later), so one
 * request's chunk stream runs to the end before the next one starts
 * and at most one chunk in total queues at stage 0. Decode chains
 * submitted meanwhile still slot in between elements, so on a FIFO
 * stage 0 a decode share waits behind at most one chunk. Sequences
 * waiting for stage 0 sit in a pooled FIFO.
 *
 * Stage devices need not be plain FIFO timelines: a queue-arbitrated
 * stage (see sim::QueuedDevice and the co-scheduling policies in
 * system/sched_policy) may reorder or slice queued work, so its
 * submit() return value is only an estimate. The pipeline therefore
 * advances chains and sequences exclusively on completion events —
 * the authoritative times under every arbitration policy.
 *
 * Performance contract: in-flight chain and sequence state lives in
 * free lists owned by the pipeline (item vectors keep their
 * capacity across reuse), waiting sequences in a reusable ring, and
 * every per-stage completion callback captures only two pointers.
 * Submitting one decode cycle on the steady-state path therefore
 * allocates nothing once the pools are warm — the
 * shared_ptr-per-chain and std::function-per-stage of the previous
 * design are gone.
 */

#ifndef PIMPHONY_SIM_PIPELINE_HH
#define PIMPHONY_SIM_PIPELINE_HH

#include <memory>
#include <vector>

#include "sim/device.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/work_item.hh"

namespace pimphony {
namespace sim {

class StagePipeline
{
  public:
    using CompletionFn = Device::CompletionFn;

    explicit StagePipeline(std::vector<Device *> stages)
        : stages_(std::move(stages))
    {
    }

    unsigned stageCount() const
    {
        return static_cast<unsigned>(stages_.size());
    }

    Device &stage(unsigned s) { return *stages_[s]; }
    const Device &stage(unsigned s) const { return *stages_[s]; }

    /**
     * Submit one full decode cycle for a cohort: @p base describes
     * the cohort/cycle, with base.seconds (and base.fcSeconds) the
     * per-stage service time. The chain enters stage 0 no earlier
     * than @p ready; @p done fires at the last stage's completion.
     */
    void submitCycle(EventQueue &queue, const WorkItem &base,
                     double ready, CompletionFn done);

    /**
     * Submit one traversal with heterogeneous per-stage items:
     * @p stage_items[s] runs on stage s (stage indexes are stamped
     * here). Size must equal stageCount(). Used for uneven layer
     * splits, where the last stage owns the layer remainder. The
     * items are copied into pooled chain storage; the caller's
     * vector is reusable scratch.
     */
    void submitChain(EventQueue &queue,
                     const std::vector<WorkItem> &stage_items,
                     double ready, CompletionFn done);

    /**
     * Submit an ordered sequence of traversals (e.g. one request's
     * prefill chunks): element e+1 enters stage 0 at element e's
     * stage-0 completion, so elements pipeline across stages and
     * other submitters' chains can slot in between them. Sequences
     * run first-come-first-served: the first element enters stage 0
     * at max(@p ready, the previous sequence's last stage-0
     * completion). @p done fires at the last element's last-stage
     * completion. Empty sequences complete immediately at @p ready
     * and do not queue. Elements are copied into pooled sequence
     * storage.
     */
    void submitSequence(EventQueue &queue,
                        const std::vector<std::vector<WorkItem>> &elements,
                        double ready, CompletionFn done);

    /**
     * Drop every submitted sequence's work that has not reached a
     * device: waiting sequences are discarded, with their @p done,
     * and the streaming one launches no further element. Elements
     * already on a device run out; the streaming sequence's @p done
     * fires when its element on the device completes the last stage.
     * Used when a replica crashes.
     */
    void dropSequences();

  private:
    /**
     * One in-flight traversal. A chain occupies exactly one stage at
     * a time (stage s+1 is submitted at s's completion event), so a
     * single cursor tracks progress and the per-stage completion
     * callback carries only {pipeline, chain}.
     */
    struct Chain
    {
        std::vector<WorkItem> items;
        unsigned stage = 0;
        CompletionFn firstDone; ///< fires at stage-0 completion
        CompletionFn done;      ///< fires at last-stage completion
    };

    /** One submitted sequence of chained elements. */
    struct Sequence
    {
        std::vector<std::vector<WorkItem>> elements;
        std::size_t next = 0; ///< next element to launch
        double ready = 0.0;
        Chain *running = nullptr; ///< latest launched element
        CompletionFn done; ///< moves to the last element's chain
    };

    Chain *acquireChain();
    void releaseChain(Chain *ch);
    Sequence *acquireSequence();
    void releaseSequence(Sequence *sq);

    /** Submit chain->items[chain->stage] on its stage device. */
    void advanceChain(EventQueue &queue, Chain *ch, double at);

    /** Stage-completion continuation for @p ch at time @p t. */
    void onStageComplete(EventQueue &queue, Chain *ch, double t);

    /** Launch sequence element sq->next as a chain at @p at. */
    void launchElement(EventQueue &queue, Sequence *sq, double at);

    /**
     * Stage-0 completion of the streaming sequence's latest element
     * at @p t: launch its next element, or retire it and start the
     * next waiting one.
     */
    void onElementLeftStage0(EventQueue &queue, double t);

    std::vector<Device *> stages_;
    std::vector<std::unique_ptr<Chain>> chains_;
    std::vector<Chain *> freeChains_;
    std::vector<std::unique_ptr<Sequence>> sequences_;
    std::vector<Sequence *> freeSequences_;
    /** Submitted sequences; the front one is streaming. */
    RingQueue<Sequence *> waiting_;
};

} // namespace sim
} // namespace pimphony

#endif // PIMPHONY_SIM_PIPELINE_HH
