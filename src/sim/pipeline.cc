#include "sim/pipeline.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace pimphony {
namespace sim {

StagePipeline::Chain *
StagePipeline::acquireChain()
{
    if (freeChains_.empty()) {
        chains_.push_back(std::make_unique<Chain>());
        return chains_.back().get();
    }
    Chain *ch = freeChains_.back();
    freeChains_.pop_back();
    return ch;
}

void
StagePipeline::releaseChain(Chain *ch)
{
    ch->stage = 0;
    ch->firstDone = nullptr;
    ch->done = nullptr;
    // items keeps its capacity for the next traversal.
    freeChains_.push_back(ch);
}

StagePipeline::Sequence *
StagePipeline::acquireSequence()
{
    if (freeSequences_.empty()) {
        sequences_.push_back(std::make_unique<Sequence>());
        return sequences_.back().get();
    }
    Sequence *sq = freeSequences_.back();
    freeSequences_.pop_back();
    return sq;
}

void
StagePipeline::releaseSequence(Sequence *sq)
{
    sq->next = 0;
    sq->done = nullptr;
    freeSequences_.push_back(sq);
}

void
StagePipeline::advanceChain(EventQueue &queue, Chain *ch, double at)
{
    unsigned s = ch->stage;
    WorkItem item = ch->items[s];
    item.stage = s;
    // Deferring each stage's submission to its predecessor's
    // completion keeps per-stage FIFO order consistent with event
    // order, so work queues at a busy stage instead of reserving it
    // in advance.
    stages_[s]->submit(queue, item, at,
                       [this, ch, &queue](double t) {
                           onStageComplete(queue, ch, t);
                       });
}

void
StagePipeline::onStageComplete(EventQueue &queue, Chain *ch, double t)
{
    unsigned s = ch->stage;
    if (s == 0 && ch->firstDone) {
        // The stage-0 hand-off (sequence submission launches the
        // next element here) runs before this chain advances, so
        // the next element's stage-0 submission keeps its FIFO slot.
        CompletionFn first = std::move(ch->firstDone);
        ch->firstDone = nullptr;
        first(t);
    }
    if (s + 1 < stages_.size()) {
        ch->stage = s + 1;
        advanceChain(queue, ch, t);
    } else {
        CompletionFn done = std::move(ch->done);
        releaseChain(ch);
        if (done)
            done(t);
    }
}

void
StagePipeline::submitCycle(EventQueue &queue, const WorkItem &base,
                           double ready, CompletionFn done)
{
    Chain *ch = acquireChain();
    ch->items.assign(stages_.size(), base);
    ch->done = std::move(done);
    advanceChain(queue, ch, ready);
}

void
StagePipeline::submitChain(EventQueue &queue,
                           const std::vector<WorkItem> &stage_items,
                           double ready, CompletionFn done)
{
    if (stage_items.size() != stages_.size())
        panic("submitChain with %zu items for %zu stages",
              stage_items.size(), stages_.size());
    Chain *ch = acquireChain();
    ch->items.assign(stage_items.begin(), stage_items.end());
    ch->done = std::move(done);
    advanceChain(queue, ch, ready);
}

void
StagePipeline::launchElement(EventQueue &queue, Sequence *sq, double at)
{
    const std::vector<WorkItem> &element = sq->elements[sq->next++];
    Chain *ch = acquireChain();
    ch->items.assign(element.begin(), element.end());
    // The last element completes the sequence at its last-stage
    // completion.
    if (sq->next == sq->elements.size())
        ch->done = std::move(sq->done);
    // Handing off at the element's *stage-0* completion (not the
    // chain end) pipelines elements across stages while leaving a
    // FIFO gap other submitters can slot into between elements.
    ch->firstDone = [this, &queue](double t) {
        onElementLeftStage0(queue, t);
    };
    sq->running = ch;
    advanceChain(queue, ch, at);
}

void
StagePipeline::onElementLeftStage0(EventQueue &queue, double t)
{
    Sequence *sq = waiting_.front();
    if (sq->next < sq->elements.size()) {
        launchElement(queue, sq, t);
        return;
    }
    waiting_.pop();
    releaseSequence(sq);
    if (!waiting_.empty())
        launchElement(queue, waiting_.front(),
                      std::max(t, waiting_.front()->ready));
}

void
StagePipeline::submitSequence(
    EventQueue &queue, const std::vector<std::vector<WorkItem>> &elements,
    double ready, CompletionFn done)
{
    if (elements.empty()) {
        if (done)
            queue.schedule(ready, std::move(done));
        return;
    }
    Sequence *sq = acquireSequence();
    // Element-wise assign reuses the pooled inner vectors' capacity.
    sq->elements.resize(elements.size());
    for (std::size_t e = 0; e < elements.size(); ++e) {
        if (elements[e].size() != stages_.size())
            panic("submitSequence element %zu has %zu items for %zu "
                  "stages",
                  e, elements[e].size(), stages_.size());
        sq->elements[e].assign(elements[e].begin(), elements[e].end());
    }
    sq->ready = ready;
    sq->done = std::move(done);
    waiting_.push(std::move(sq));
    if (waiting_.size() == 1)
        launchElement(queue, waiting_.front(), ready);
}

void
StagePipeline::dropSequences()
{
    if (waiting_.empty())
        return;
    Sequence *sq = waiting_.front();
    waiting_.pop();
    while (!waiting_.empty()) {
        releaseSequence(waiting_.front());
        waiting_.pop();
    }
    // The streaming sequence launches nothing more and completes
    // when its element on the device does; that element's stage-0
    // completion retires it.
    sq->next = sq->elements.size();
    if (sq->done)
        sq->running->done = std::move(sq->done);
    waiting_.push(std::move(sq));
}

} // namespace sim
} // namespace pimphony
