/**
 * @file
 * The serving engine's pipeline stages, built from the sim core's
 * Device timelines.
 *
 * One pipeline stage of the serving engine is a PipelineStage: its
 * serializing timeline is the PIM side (attention always runs
 * there), and its xPU timeline shadows the FC share of each work
 * item in xPU+PIM systems — FC of one cohort overlaps PIM attention
 * of the same (and, across stages, other) cohorts, which is the
 * overlap NeuPIMs-like systems are built around. The same xPU
 * timeline serves prefill chunks in FIFO order with the decode FC
 * shares, which is where prefill/decode interference appears in the
 * simulation. A share already waiting when a chunk launches rides
 * the chunk's GEMMs (the weights stream once for both) and completes
 * right after it, charged only its rows' compute.
 */

#ifndef PIMPHONY_SYSTEM_STAGE_DEVICE_HH
#define PIMPHONY_SYSTEM_STAGE_DEVICE_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/device.hh"
#include "sim/pipeline.hh"
#include "sim/ring_buffer.hh"

namespace pimphony {

/**
 * The xPU side of a stage. With a null arbiter it is a FIFO
 * reservation timeline; with a co-scheduling arbiter attached it
 * arbitrates between queued prefill chunks and decode FC shares (see
 * system/sched_policy).
 */
class XpuStageDevice : public sim::QueuedDevice
{
  public:
    explicit XpuStageDevice(std::string name,
                            const sim::QueueArbiter *arbiter = nullptr)
        : sim::QueuedDevice(std::move(name), arbiter)
    {
    }

    /**
     * Prefill seconds actually served to completion on this
     * timeline. Policies relocate prefill work in time; none may
     * lose any of its charge (conservation is asserted against the
     * planner's apportioned totals).
     */
    double prefillBusySeconds() const { return prefillBusy_; }

    /**
     * Decode FC seconds served to completion on this timeline, fused
     * shares at their fused charge. Once everything submitted has
     * completed, prefill plus FC equals busySeconds().
     */
    double fcBusySeconds() const { return fcBusy_; }

  protected:
    void
    onComplete(const sim::WorkItem &item, double) override
    {
        if (item.kind == sim::WorkItem::Kind::PrefillChunk)
            prefillBusy_ += item.seconds;
        else
            fcBusy_ += item.seconds;
    }

  private:
    double prefillBusy_ = 0.0;
    double fcBusy_ = 0.0;
};

/**
 * One PP stage: serializes decode cohorts on the PIM timeline and
 * runs each item's FC share on its xPU timeline together with prefill
 * chunks. With an idle xPU the FC share (never larger than the item's
 * total service time) trails the PIM timeline as a pure shadow; when
 * prefill chunks congest the xPU the FC share completes late and the
 * stage is extended to cover the stall, so prefill delays decode
 * exactly as a shared compute engine would. A share waiting when a
 * chunk launches launches with it (WorkItem::fusedFcSeconds) and
 * gates the stage until just after the chunk; one that arrives after
 * the chunk started waits for it and then runs stand-alone (an
 * arbiter that slices chunks launches each at its final slice; see
 * sim::QueuedDevice). PrefillChunk items route to the xPU timeline.
 *
 * With a co-scheduling arbiter attached, the xPU timeline is
 * queue-arbitrated and an FC share's completion is unknown at submit
 * time (later decode work may overtake queued chunks), so the stage
 * serializes decode items through its own queue and joins the PIM
 * and xPU completions in event time: the stage completes at
 * max(attention end, FC end), and any FC stall is charged to the PIM
 * timeline to keep it serializing (as the FIFO path does by
 * extending the item). Without an arbiter the PR 2 synchronous path
 * is used unchanged.
 */
class PipelineStage : public sim::Device
{
  public:
    explicit PipelineStage(std::string name,
                           const sim::QueueArbiter *arbiter = nullptr);

    double submit(sim::EventQueue &queue, const sim::WorkItem &item,
                  double ready, CompletionFn done = nullptr) override;

    double busyUntil() const override { return pim_.busyUntil(); }
    double busySeconds() const override { return pim_.busySeconds(); }
    std::uint64_t completedItems() const override
    {
        return pim_.completedItems();
    }

    XpuStageDevice &xpu() { return xpu_; }

  private:
    struct DecodeEntry
    {
        sim::WorkItem item;
        double ready = 0.0;
        CompletionFn done;
    };

    /** Start the next queued decode item (arbitrated path). */
    void pumpDecode(sim::EventQueue &queue);

    /** Join point: both attention and FC ends known. */
    void joinDecode(sim::EventQueue &queue, double att_end,
                    double fc_end);

    const sim::QueueArbiter *arbiter_ = nullptr;
    sim::Device pim_;
    XpuStageDevice xpu_;
    sim::RingQueue<DecodeEntry> decodeQ_;
    /** pumpDecode's arbitration scratch (reused, never re-entered). */
    std::vector<const sim::WorkItem *> decodeEligible_;
    bool decodeInFlight_ = false;
    CompletionFn decodeDone_;
};

/**
 * Build the per-stage devices for a PP-deep pipeline and a
 * StagePipeline view over them. @p arbiter (optional) attaches a
 * co-scheduling arbiter to every stage's xPU timeline.
 */
class StageDeviceSet
{
  public:
    explicit StageDeviceSet(unsigned pp,
                            const sim::QueueArbiter *arbiter = nullptr);

    sim::StagePipeline &pipeline() { return *pipeline_; }
    PipelineStage &stage(unsigned s) { return *stages_[s]; }
    unsigned count() const
    {
        return static_cast<unsigned>(stages_.size());
    }

  private:
    std::vector<std::unique_ptr<PipelineStage>> stages_;
    std::unique_ptr<sim::StagePipeline> pipeline_;
};

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_STAGE_DEVICE_HH
