#include "system/stage_device.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace pimphony {

PipelineStage::PipelineStage(std::string name,
                             const sim::QueueArbiter *arbiter)
    : sim::Device(name), arbiter_(arbiter), pim_(name + ".pim"),
      xpu_(name + ".xpu", arbiter)
{
}

double
PipelineStage::submit(sim::EventQueue &queue, const sim::WorkItem &item,
                      double ready, CompletionFn done)
{
    if (item.kind == sim::WorkItem::Kind::PrefillChunk) {
        // Prefill chunks occupy the stage's xPU timeline, queueing
        // with decode FC shares under the attached arbitration.
        return xpu_.submit(queue, item, ready, std::move(done));
    }

    if (arbiter_ && item.fcSeconds > 0.0) {
        // Arbitrated path: the FC share's completion depends on
        // future arbitration, so the stage queues decode items and
        // joins the two timelines in event time.
        double estimate =
            std::max(ready, pim_.busyUntil()) + item.seconds;
        decodeQ_.push(DecodeEntry{item, ready, std::move(done)});
        pumpDecode(queue);
        return estimate;
    }

    double start = std::max(ready, pim_.busyUntil());
    sim::WorkItem main = item;
    if (item.fcSeconds > 0.0) {
        sim::WorkItem fc = item;
        fc.seconds = std::min(item.fcSeconds, item.seconds);
        fc.fcSeconds = 0.0;
        // The FC share queues on the xPU timeline from the moment
        // the composite item starts. With an idle xPU it shadows the
        // serializing timeline (fc <= seconds); behind queued prefill
        // chunks it completes late and gates the stage instead, or
        // launches with the next chunk at its fused charge.
        double fc_done = xpu_.submit(queue, fc, start);
        if (fc_done > start + item.seconds)
            main.seconds = fc_done - start;
    }
    return pim_.submit(queue, main, ready, std::move(done));
}

void
PipelineStage::pumpDecode(sim::EventQueue &queue)
{
    if (decodeInFlight_ || decodeQ_.empty())
        return;
    // The arbiter picks among the queued decode items too, so a
    // tier-aware policy serves a higher tier's cohort first when two
    // cohorts queue at one stage. Among same-tier items TierPriority
    // picks the first, which is the FIFO pop exactly.
    std::size_t pick = 0;
    if (decodeQ_.size() > 1) {
        decodeEligible_.clear();
        for (std::size_t i = 0; i < decodeQ_.size(); ++i)
            decodeEligible_.push_back(&decodeQ_.at(i).item);
        pick = arbiter_->pickNext(decodeEligible_);
        if (pick >= decodeQ_.size())
            panic("%s: arbiter picked decode item %zu of %zu queued",
                  name().c_str(), pick, decodeQ_.size());
    }
    DecodeEntry e = decodeQ_.takeAt(pick);
    decodeInFlight_ = true;
    decodeDone_ = std::move(e.done);

    double start = std::max(e.ready, pim_.busyUntil());
    sim::WorkItem att = e.item;
    att.fcSeconds = 0.0;
    // The attention charge reserves the serializing timeline now;
    // its end is exact (plain FIFO arithmetic, one item in flight).
    double att_end = pim_.submit(queue, att, e.ready);

    sim::WorkItem fc = e.item;
    fc.seconds = std::min(e.item.fcSeconds, e.item.seconds);
    fc.fcSeconds = 0.0;
    xpu_.submit(queue, fc, start,
                [this, &queue, att_end](double fc_end) {
                    joinDecode(queue, att_end, fc_end);
                });
}

void
PipelineStage::joinDecode(sim::EventQueue &queue, double att_end,
                          double fc_end)
{
    double completion = std::max(att_end, fc_end);
    if (fc_end > att_end) {
        // The FC share was gated behind prefill work: charge the
        // stall to the serializing timeline, as the FIFO path does
        // by extending the item's service, so the next decode item
        // cannot start under the stall.
        sim::WorkItem stall;
        stall.seconds = fc_end - att_end;
        pim_.submit(queue, stall, att_end);
    }
    queue.schedule(completion, [this, &queue](double t) {
        decodeInFlight_ = false;
        CompletionFn done = std::move(decodeDone_);
        decodeDone_ = nullptr;
        if (done)
            done(t);
        pumpDecode(queue);
    });
}

StageDeviceSet::StageDeviceSet(unsigned pp,
                               const sim::QueueArbiter *arbiter)
{
    std::vector<sim::Device *> devices;
    for (unsigned s = 0; s < pp; ++s) {
        stages_.push_back(std::make_unique<PipelineStage>(
            "stage" + std::to_string(s), arbiter));
        devices.push_back(stages_.back().get());
    }
    pipeline_ = std::make_unique<sim::StagePipeline>(devices);
}

} // namespace pimphony
