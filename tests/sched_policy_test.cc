/**
 * @file
 * Tests for the pluggable xPU co-scheduling subsystem: policy
 * naming/factory plumbing, the preemption re-planner, the
 * queue-arbitrated device (ordering, quantum slicing, charge
 * conservation, decode-wait bounds), the arbitrated stage join, and
 * the engine-level properties the policies exist for — DecodePriority
 * cuts the p95 decode token gap vs FIFO under bursty load,
 * ChunkPreempt bounds the worst-case decode stall by its quantum,
 * SloAdmission keeps the p95 gap under the target at the cost of
 * higher tail TTFT, and every policy conserves the planned prefill
 * charge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/device.hh"
#include "sim/event_queue.hh"
#include "system/engine.hh"
#include "system/prefill.hh"
#include "system/sched_policy.hh"
#include "system/stage_device.hh"
#include "core/orchestrator.hh"
#include "workload/arrival.hh"

namespace pimphony {
namespace {

// --- Policy plumbing. ------------------------------------------------

TEST(SchedPolicy, NamesRoundTripAndFactoryKinds)
{
    for (SchedPolicyKind kind : allSchedPolicies()) {
        SchedPolicyKind parsed = SchedPolicyKind::Fifo;
        ASSERT_TRUE(parseSchedPolicy(schedPolicyName(kind), parsed));
        EXPECT_EQ(parsed, kind);

        SchedPolicyConfig cfg;
        cfg.kind = kind;
        auto policy = makeSchedPolicy(cfg);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->kind(), kind);
        EXPECT_EQ(policy->name(), schedPolicyName(kind));
    }
    SchedPolicyKind out = SchedPolicyKind::ChunkPreempt;
    EXPECT_FALSE(parseSchedPolicy("round-robin", out));
    EXPECT_EQ(out, SchedPolicyKind::ChunkPreempt); // untouched
}

TEST(SchedPolicy, OnlyPriorityPoliciesReorderTheTimeline)
{
    SchedPolicyConfig cfg;
    cfg.kind = SchedPolicyKind::Fifo;
    EXPECT_FALSE(makeSchedPolicy(cfg)->reordersXpu());
    cfg.kind = SchedPolicyKind::SloAdmission;
    EXPECT_FALSE(makeSchedPolicy(cfg)->reordersXpu());
    cfg.kind = SchedPolicyKind::DecodePriority;
    EXPECT_TRUE(makeSchedPolicy(cfg)->reordersXpu());
    cfg.kind = SchedPolicyKind::ChunkPreempt;
    EXPECT_TRUE(makeSchedPolicy(cfg)->reordersXpu());
}

TEST(SchedPolicy, SloGateBindsOnlyWithDecodeInFlight)
{
    SchedPolicyConfig cfg;
    cfg.kind = SchedPolicyKind::SloAdmission;
    cfg.sloTargetGapSeconds = 0.1;
    cfg.sloMinSamples = 8;
    cfg.sloHeadroom = 0.7;
    auto policy = makeSchedPolicy(cfg);

    // Gate open: nothing decoding, or too few samples, or gap OK.
    EXPECT_TRUE(policy->admitPrefill(10.0, 100, false));
    EXPECT_TRUE(policy->admitPrefill(10.0, 7, true));
    EXPECT_TRUE(policy->admitPrefill(0.06, 100, true));
    // Gate shut: headroom * target = 70 ms exceeded while decoding.
    EXPECT_FALSE(policy->admitPrefill(0.0701, 100, true));
    // Other policies never defer.
    cfg.kind = SchedPolicyKind::Fifo;
    EXPECT_TRUE(makeSchedPolicy(cfg)->admitPrefill(10.0, 100, true));
}

// --- Preemption re-planner. ------------------------------------------

TEST(PreemptionSlices, ConservesChargeExactly)
{
    // Full quanta + remainder.
    auto s = preemptionSlices(0.7, 0.5);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s[0], 0.5);
    EXPECT_DOUBLE_EQ(s[1], 0.2);
    // Exact multiple: no zero-length tail slice.
    s = preemptionSlices(10.0, 0.5);
    EXPECT_EQ(s.size(), 20u);
    double sum = 0.0;
    for (double v : s)
        sum += v;
    EXPECT_NEAR(sum, 10.0, 1e-12);
    // No quantum (or a charge within one): a single slice.
    s = preemptionSlices(3.0, 0.0);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s[0], 3.0);
    EXPECT_EQ(preemptionSlices(0.3, 0.5).size(), 1u);
    EXPECT_TRUE(preemptionSlices(0.0, 0.5).empty());
}

// --- Queue-arbitrated device. ----------------------------------------

sim::WorkItem
chunkItem(double seconds)
{
    sim::WorkItem w;
    w.kind = sim::WorkItem::Kind::PrefillChunk;
    w.seconds = seconds;
    return w;
}

sim::WorkItem
decodeItem(double seconds)
{
    sim::WorkItem w;
    w.seconds = seconds;
    return w;
}

TEST(QueuedDevice, NullArbiterKeepsReservationTimeline)
{
    sim::EventQueue q;
    sim::QueuedDevice dev("d", nullptr);
    EXPECT_FALSE(dev.arbitrated());
    // Plain Device semantics: synchronous completion arithmetic,
    // including the advance reservation of a future-ready item.
    EXPECT_DOUBLE_EQ(dev.submit(q, decodeItem(2.0), 0.0), 2.0);
    EXPECT_DOUBLE_EQ(dev.submit(q, decodeItem(1.0), 0.5), 3.0);
    EXPECT_DOUBLE_EQ(dev.busyUntil(), 3.0);
    q.runAll();
    EXPECT_EQ(dev.completedItems(), 2u);
    EXPECT_DOUBLE_EQ(dev.busySeconds(), 3.0);
}

TEST(QueuedDevice, FifoArbiterIsWorkConserving)
{
    SchedPolicyConfig cfg;
    FifoPolicy policy(cfg);
    sim::EventQueue q;
    sim::QueuedDevice dev("d", &policy);
    EXPECT_TRUE(dev.arbitrated());

    double a_done = -1, b_done = -1, d_done = -1;
    dev.submit(q, chunkItem(2.0), 0.0, [&](double t) { a_done = t; });
    dev.submit(q, chunkItem(3.0), 0.0, [&](double t) { b_done = t; });
    dev.submit(q, decodeItem(1.0), 1.0, [&](double t) { d_done = t; });
    q.runAll();
    // FIFO order, but dispatch happens in event time: A [0,2],
    // B [2,5], decode [5,6].
    EXPECT_DOUBLE_EQ(a_done, 2.0);
    EXPECT_DOUBLE_EQ(b_done, 5.0);
    EXPECT_DOUBLE_EQ(d_done, 6.0);
    EXPECT_EQ(dev.overtakes(), 0u);
    EXPECT_EQ(dev.preemptionSlices(), 0u);
    EXPECT_DOUBLE_EQ(dev.busySeconds(), 6.0);
    EXPECT_DOUBLE_EQ(dev.maxDecodeWaitSeconds(), 4.0);
    EXPECT_EQ(dev.completedItems(), 3u);
}

TEST(QueuedDevice, DecodePriorityOvertakesQueuedChunks)
{
    SchedPolicyConfig cfg;
    cfg.kind = SchedPolicyKind::DecodePriority;
    DecodePriorityPolicy policy(cfg);
    sim::EventQueue q;
    sim::QueuedDevice dev("d", &policy);

    double b_done = -1, d_done = -1;
    dev.submit(q, chunkItem(2.0), 0.0);
    dev.submit(q, chunkItem(3.0), 0.0, [&](double t) { b_done = t; });
    dev.submit(q, decodeItem(1.0), 1.0, [&](double t) { d_done = t; });
    q.runAll();
    // The decode share jumps queued chunk B but not in-service A:
    // A [0,2], decode [2,3], B [3,6].
    EXPECT_DOUBLE_EQ(d_done, 3.0);
    EXPECT_DOUBLE_EQ(b_done, 6.0);
    EXPECT_EQ(dev.overtakes(), 1u);
    EXPECT_DOUBLE_EQ(dev.maxDecodeWaitSeconds(), 1.0);
    EXPECT_DOUBLE_EQ(dev.busySeconds(), 6.0);
}

/** Captures the completed WorkItem to observe preemption metadata. */
class CapturingDevice : public sim::QueuedDevice
{
  public:
    using sim::QueuedDevice::QueuedDevice;
    sim::WorkItem last;

  protected:
    void
    onComplete(const sim::WorkItem &item, double) override
    {
        last = item;
    }
};

TEST(QueuedDevice, ChunkPreemptStartsDecodeWithinOneQuantum)
{
    SchedPolicyConfig cfg;
    cfg.kind = SchedPolicyKind::ChunkPreempt;
    cfg.preemptQuantumSeconds = 0.5;
    ChunkPreemptPolicy policy(cfg);
    sim::EventQueue q;
    CapturingDevice dev("d", &policy);

    double chunk_done = -1, d_done = -1;
    dev.submit(q, chunkItem(10.0), 0.0, [&](double t) { chunk_done = t; });
    q.schedule(0.2, [&](double) {
        dev.submit(q, decodeItem(0.3), 0.2,
                   [&](double t) { d_done = t; });
    });
    q.runAll();

    // Chunk slices [0,0.5]; the decode share waits 0.3 <= quantum
    // and runs [0.5,0.8]; the chunk's remaining 9.5 s resume
    // [0.8,10.3]. No charge is lost: busy = 10.3 of 10.3.
    EXPECT_DOUBLE_EQ(d_done, 0.8);
    EXPECT_DOUBLE_EQ(chunk_done, 10.3);
    EXPECT_DOUBLE_EQ(dev.busySeconds(), 10.3);
    EXPECT_DOUBLE_EQ(dev.maxDecodeWaitSeconds(), 0.3);
    EXPECT_EQ(dev.overtakes(), 1u);
    // 20 dispatch slices, 19 of them preemption splits — exactly the
    // re-planner's slice count.
    EXPECT_EQ(dev.preemptionSlices(), 19u);
    EXPECT_EQ(preemptionSlices(10.0, 0.5).size(), 20u);
    // The preemption metadata rides on the completed item: the chunk
    // (the last completion) was served in 20 slices and its served
    // seconds equal its full charge.
    EXPECT_EQ(dev.last.kind, sim::WorkItem::Kind::PrefillChunk);
    EXPECT_EQ(dev.last.slices, 20u);
    EXPECT_NEAR(dev.last.servedSeconds, 10.0, 1e-12);
}

TEST(PipelineStage, ArbitratedJoinGatesDecodeBehindInServiceChunk)
{
    SchedPolicyConfig cfg;
    cfg.kind = SchedPolicyKind::DecodePriority;
    DecodePriorityPolicy policy(cfg);
    PimModuleConfig mcfg;
    PimModuleModel pim(mcfg);
    XpuModel xpu(XpuConfig::neupimsNpu());
    PipelineStage stage("s", pim, &xpu, &policy);
    sim::EventQueue q;

    stage.submit(q, chunkItem(1.0), 0.0);
    sim::WorkItem decode;
    decode.seconds = 0.5;
    decode.fcSeconds = 0.4;
    double done = -1;
    stage.submit(q, decode, 0.0, [&](double t) { done = t; });
    q.runAll();
    // Attention [0,0.5] on PIM; the FC share waits for the
    // in-service chunk and runs [1.0,1.4] on the xPU; the stage
    // completes at the join and the stall is charged to the
    // serializing timeline.
    EXPECT_DOUBLE_EQ(done, 1.4);
    EXPECT_DOUBLE_EQ(stage.busyUntil(), 1.4);
    ASSERT_NE(stage.xpu(), nullptr);
    EXPECT_DOUBLE_EQ(stage.xpu()->busySeconds(), 1.4);
}

// --- Engine-level policy properties. ---------------------------------

EngineResult
runPolicy(const ClusterConfig &cluster, const LlmConfig &model,
          const std::vector<TimedRequest> &timed, Tokens chunk,
          const SchedPolicyConfig &sched)
{
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = chunk;
    opts.sched = sched;
    return ServingEngine(cluster, model, timed, opts).run();
}

void
expectPrefillConserved(const EngineResult &r,
                       const ClusterConfig &cluster, const char *tag)
{
    // Policies relocate prefill work in time; none may lose any of
    // the planner's apportioned charge. The per-stage work items
    // scale the scalar charge by prefillEngines / tp, so the total
    // served on the xPU timelines must match that scaling within 1%.
    double expected = r.prefillSeconds *
                      static_cast<double>(cluster.prefillEngines()) /
                      cluster.plan.tp;
    ASSERT_GT(expected, 0.0) << tag;
    EXPECT_NEAR(r.xpuPrefillBusySeconds / expected, 1.0, 0.01) << tag;
}

TEST(SchedPolicyEngine, DecodePriorityCutsP95GapUnderBurstyLoad)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, 30000, 64});
    OnOffTraffic traffic;
    traffic.onRate = 4.0;
    traffic.offRate = 0.0;
    traffic.meanOnSeconds = 2.0;
    traffic.meanOffSeconds = 4.0;
    auto timed = onOffArrivals(reqs, traffic, 17);

    SchedPolicyConfig sched;
    sched.kind = SchedPolicyKind::Fifo;
    auto fifo = runPolicy(cluster, model, timed, 2048, sched);
    sched.kind = SchedPolicyKind::DecodePriority;
    auto dp = runPolicy(cluster, model, timed, 2048, sched);
    sched.kind = SchedPolicyKind::ChunkPreempt;
    auto cp = runPolicy(cluster, model, timed, 2048, sched);

    ASSERT_EQ(fifo.completedRequests, 32u);
    ASSERT_EQ(dp.completedRequests, 32u);
    ASSERT_EQ(cp.completedRequests, 32u);

    // Prioritizing decode strictly cuts the decode token-gap tail:
    // an FC share waits for at most the in-service chunk instead of
    // the whole queued burst.
    ASSERT_GT(fifo.p95TokenGapSeconds, 0.0);
    EXPECT_LT(dp.p95TokenGapSeconds, 0.5 * fifo.p95TokenGapSeconds);
    // Preemption tightens the tail further: the wait is one quantum,
    // not one chunk.
    EXPECT_LT(cp.p95TokenGapSeconds, dp.p95TokenGapSeconds);

    // Policy observability: decode really overtook queued prefill,
    // and only the quantum policy split chunks.
    EXPECT_GT(dp.decodeOvertakes, 0u);
    EXPECT_EQ(dp.chunkSlices, 0u);
    EXPECT_GT(cp.chunkSlices, 0u);
    EXPECT_EQ(fifo.chunkSlices, 0u);
    EXPECT_EQ(fifo.sloDeferrals, 0u);

    // Same admissions, same charge: chunking policies must not
    // change what prefill costs, only where it sits in time.
    EXPECT_NEAR(dp.prefillSeconds, fifo.prefillSeconds,
                1e-9 * fifo.prefillSeconds);
    EXPECT_NEAR(cp.prefillSeconds, fifo.prefillSeconds,
                1e-9 * fifo.prefillSeconds);
    expectPrefillConserved(fifo, cluster, "fifo");
    expectPrefillConserved(dp, cluster, "decode-priority");
    expectPrefillConserved(cp, cluster, "chunk-preempt");
}

TEST(SchedPolicyEngine, ChunkPreemptBoundsDecodeStallByQuantum)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    ASSERT_EQ(cluster.plan.pp, 1u); // one decode share in flight/stage

    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, 30000, 64});
    OnOffTraffic traffic;
    traffic.onRate = 4.0;
    traffic.offRate = 0.0;
    traffic.meanOnSeconds = 2.0;
    traffic.meanOffSeconds = 4.0;
    auto timed = onOffArrivals(reqs, traffic, 17);

    SchedPolicyConfig sched;
    sched.kind = SchedPolicyKind::ChunkPreempt;
    sched.preemptQuantumSeconds = 2e-3;
    auto cp = runPolicy(cluster, model, timed, 2048, sched);
    sched.kind = SchedPolicyKind::DecodePriority;
    auto dp = runPolicy(cluster, model, timed, 2048, sched);

    ASSERT_EQ(cp.completedRequests, 32u);
    ASSERT_GT(cp.chunkSlices, 0u);
    // The worst decode stall behind prefill is one quantum (plus at
    // most one device cycle of slack); without preemption it is one
    // whole chunk — many quanta.
    double cycle = cluster.module.timing.secondsPerCycle();
    EXPECT_LE(cp.maxDecodeXpuWaitSeconds,
              sched.preemptQuantumSeconds + cycle + 1e-12);
    EXPECT_GT(cp.maxDecodeXpuWaitSeconds, 0.0);
    EXPECT_GT(dp.maxDecodeXpuWaitSeconds,
              5.0 * sched.preemptQuantumSeconds);
}

TEST(SchedPolicyEngine, SloAdmissionKeepsGapUnderTargetAtTtftCost)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    // A warm decoder (so the SLO feedback exists) plus two admission
    // bursts of long-context prefills that clobber its token gaps.
    std::vector<TimedRequest> timed;
    timed.push_back({{0, 30000, 1536}, 0.0});
    RequestId id = 1;
    for (int burst = 0; burst < 2; ++burst)
        for (int i = 0; i < 8; ++i)
            timed.push_back(
                {{id++, 30000, 64}, 3.0 + 7.0 * burst + 0.25 * i});

    SchedPolicyConfig sched;
    sched.kind = SchedPolicyKind::Fifo;
    auto fifo = runPolicy(cluster, model, timed, 512, sched);
    sched.kind = SchedPolicyKind::SloAdmission;
    sched.sloTargetGapSeconds = 0.07;
    sched.sloWindow = 32;
    auto slo = runPolicy(cluster, model, timed, 512, sched);

    ASSERT_EQ(fifo.completedRequests, 17u);
    ASSERT_EQ(slo.completedRequests, 17u);
    ASSERT_GT(slo.sloDeferrals, 0u);

    // The gate keeps the decode tail under the target; FIFO blows
    // through it during the bursts.
    EXPECT_LE(slo.p95TokenGapSeconds, sched.sloTargetGapSeconds);
    EXPECT_GT(fifo.p95TokenGapSeconds, sched.sloTargetGapSeconds);

    // The cost is time to first token: deferred prefills stretch the
    // TTFT tail (admission serializes, so the average can improve
    // while the worst case degrades).
    auto max_ttft = [](const EngineResult &r) {
        double m = 0.0;
        for (const auto &kv : r.firstTokenLatency)
            m = std::max(m, kv.second);
        return m;
    };
    EXPECT_GT(max_ttft(slo), max_ttft(fifo));
    expectPrefillConserved(fifo, cluster, "fifo");
    expectPrefillConserved(slo, cluster, "slo-admission");
}

TEST(SchedPolicyEngine, AllPoliciesSelectableViaOrchestrator)
{
    for (SchedPolicyKind kind : allSchedPolicies()) {
        OrchestratorConfig cfg;
        cfg.system = SystemKind::XpuPim;
        cfg.model = LlmConfig::llm7b(true);
        cfg.options = PimphonyOptions::all();
        cfg.plan = ParallelPlan{2, 2}; // exercise the PP>1 join path
        cfg.prefillChunkTokens = 2048;
        cfg.sched.kind = kind;
        cfg.nRequests = 6;
        cfg.decodeTokens = 8;
        PimphonyOrchestrator orch(cfg);
        auto r = orch.evaluate(TraceTask::MultifieldQa);
        EXPECT_EQ(r.engine.completedRequests, 6u)
            << schedPolicyName(kind);
        EXPECT_GT(r.engine.tokensPerSecond, 0.0)
            << schedPolicyName(kind);
    }
}

} // namespace
} // namespace pimphony
