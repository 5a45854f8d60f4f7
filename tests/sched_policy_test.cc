/**
 * @file
 * Tests for the xPU co-scheduling subsystem: policy names and config
 * checks, the preemption re-planner, the queue-arbitrated device
 * (ordering, quantum slicing, charge conservation, decode-wait
 * bounds, hybrid chunk launches, bad picks) and the arbitrated stage
 * join, partly driven by a test-local decode-first arbiter, and the
 * engine-level properties the policies exist for — TierPriority cuts
 * the p95 decode token gap below FIFO's over a grid of loads and
 * bounds the worst-case decode stall by its quantum while FIFO's
 * hybrid launches fuse shares into chunks, SloAdmission's gate idles
 * where FIFO holds the target, and every policy conserves the planned
 * prefill charge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/device.hh"
#include "sim/event_queue.hh"
#include "system/engine.hh"
#include "system/prefill.hh"
#include "system/sched_policy.hh"
#include "system/stage_device.hh"
#include "core/orchestrator.hh"
#include "test_arbiters.hh"
#include "workload/arrival.hh"

namespace pimphony {
namespace {

// --- Policy plumbing. ------------------------------------------------

TEST(SchedPolicy, KindsAndNames)
{
    const std::vector<SchedPolicyKind> kinds = allSchedPolicies();
    ASSERT_EQ(kinds.size(), 3u);
    EXPECT_EQ(schedPolicyName(kinds[0]), "fifo");
    EXPECT_EQ(schedPolicyName(kinds[1]), "slo-admission");
    EXPECT_EQ(schedPolicyName(kinds[2]), "tier-priority");
}

TEST(SchedPolicy, RejectsInvalidConfigNamingTheField)
{
    // NaN is rejected whatever the policy (Fifo here): a NaN target
    // used to shut the gate for good.
    SchedPolicyConfig cfg;
    cfg.sloTargetGapSeconds = std::nan("");
    EXPECT_DEATH(cfg.validate(), "sloTargetGapSeconds must be finite");

    // Positive where the policy uses the value.
    cfg = SchedPolicyConfig{};
    cfg.kind = SchedPolicyKind::SloAdmission;
    cfg.sloTargetGapSeconds = -1.0;
    EXPECT_DEATH(cfg.validate(),
                 "slo-admission needs a positive "
                 "SchedPolicyConfig::sloTargetGapSeconds");

    // A field the policy ignores need not be positive.
    cfg.kind = SchedPolicyKind::TierPriority;
    cfg.validate();
    SUCCEED();
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
    sim::QueueArbiter fifo;
    sim::EventQueue q;
    sim::QueuedDevice dev("d", &fifo);
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

TEST(QueuedDevice, DecodeFirstArbiterOvertakesQueuedChunks)
{
    DecodeFirstArbiter arbiter;
    sim::EventQueue q;
    sim::QueuedDevice dev("d", &arbiter);

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

TEST(QueuedDevice, ChunkSlicingStartsDecodeWithinOneQuantum)
{
    DecodeFirstArbiter arbiter(0.5);
    sim::EventQueue q;
    CapturingDevice dev("d", &arbiter);

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
    DecodeFirstArbiter arbiter;
    PipelineStage stage("s", &arbiter);
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
    EXPECT_DOUBLE_EQ(stage.xpu().busySeconds(), 1.4);
}

sim::WorkItem
fusableDecode(double seconds, double fused, std::uint32_t tier)
{
    sim::WorkItem w = decodeItem(seconds);
    w.fusedFcSeconds = fused;
    w.tier = tier;
    return w;
}

TEST(QueuedDevice, TierPriorityFusesALowerTierShareIntoAHigherTierChunk)
{
    // Every time is in units of the chunk quantum Q.
    const double Q = kPreemptQuantumSeconds;
    TierPriorityArbiter tier;
    sim::EventQueue q;
    XpuStageDevice dev("d", &tier);

    double chunk_done = -1, low_done = -1, high_done = -1;
    dev.submit(q, chunkItem(4 * Q), 0.0, [&](double t) { chunk_done = t; });
    // The tier-1 share waits behind the tier-0 chunk's band through
    // its slices; it rides the chunk's final slice (dispatched 3.4 Q).
    q.schedule(Q, [&](double) {
        dev.submit(q, fusableDecode(0.8 * Q, 0.2 * Q, 1), Q,
                   [&](double t) { low_done = t; });
    });
    // A tier-0 share still preempts the chunk at a slice boundary;
    // the tier-1 share, outranked by both, keeps waiting.
    q.schedule(2.4 * Q, [&](double) {
        dev.submit(q, fusableDecode(0.4 * Q, 0.1 * Q, 0), 2.4 * Q,
                   [&](double t) { high_done = t; });
    });
    q.runAll();

    // Chunk [0,3Q], tier-0 share [3Q,3.4Q] stand-alone (it was
    // picked, never left waiting at a chunk launch), chunk
    // [3.4Q,4.4Q], rider [4.4Q,4.6Q] at its fused charge.
    EXPECT_DOUBLE_EQ(high_done, 3.4 * Q);
    EXPECT_DOUBLE_EQ(chunk_done, 4.4 * Q);
    EXPECT_DOUBLE_EQ(low_done, 4.6 * Q);
    EXPECT_EQ(dev.fusedShares(), 1u);
    EXPECT_DOUBLE_EQ(dev.prefillBusySeconds(), 4 * Q);
    EXPECT_NEAR(dev.fcBusySeconds(), 0.4 * Q + 0.2 * Q, 2e-12 * Q);
    EXPECT_NEAR(dev.busySeconds(),
                dev.prefillBusySeconds() + dev.fcBusySeconds(), 2e-12 * Q);
    // The rider's own compute started when the chunk completed.
    EXPECT_NEAR(dev.maxDecodeWaitSeconds(), 4.4 * Q - Q, 2e-12 * Q);
}

/** Whenever it has a choice, picks one past the end. */
class OnePastTheEndArbiter : public sim::QueueArbiter
{
  public:
    std::size_t
    pickNext(const std::vector<const sim::WorkItem *> &eligible)
        const override
    {
        return eligible.size() > 1 ? eligible.size() : 0;
    }
};

TEST(QueuedDeviceDeathTest, BadPickPanicsNamingTheDevice)
{
    // An out-of-range pick used to be served as index 0.
    OnePastTheEndArbiter arbiter;
    auto device = [&arbiter] {
        sim::EventQueue q;
        sim::QueuedDevice dev("xpu3", &arbiter);
        for (int i = 0; i < 3; ++i)
            dev.submit(q, chunkItem(1.0), 0.0);
        q.runAll();
    };
    EXPECT_DEATH(device(), "xpu3: arbiter picked item 2 of 2 eligible");

    // The stage's own decode queue: the first item's FC share is
    // alone on the xPU, and the next two queue behind it.
    auto stage = [&arbiter] {
        sim::EventQueue q;
        PipelineStage stage("stage3", &arbiter);
        sim::WorkItem decode;
        decode.seconds = 0.5;
        decode.fcSeconds = 0.4;
        for (int i = 0; i < 3; ++i)
            stage.submit(q, decode, 0.0);
        q.runAll();
    };
    EXPECT_DEATH(stage(),
                 "stage3: arbiter picked decode item 2 of 2 queued");
}

TEST(QueuedDevice, DecodeFirstArbiterNeverLeavesAShareToFuse)
{
    DecodeFirstArbiter arbiter;
    sim::EventQueue q;
    XpuStageDevice dev("d", &arbiter);

    double d_done = -1;
    dev.submit(q, chunkItem(2.0), 0.0);
    dev.submit(q, chunkItem(3.0), 0.0);
    dev.submit(q, fusableDecode(1.0, 0.1, 0), 1.0,
               [&](double t) { d_done = t; });
    q.runAll();
    // Decode is picked before chunk B launches, so it runs
    // stand-alone [2,3] and nothing fuses.
    EXPECT_DOUBLE_EQ(d_done, 3.0);
    EXPECT_EQ(dev.fusedShares(), 0u);
    EXPECT_DOUBLE_EQ(dev.fcBusySeconds(), 1.0);
}

TEST(QueuedDevice, FifoArbiterFusesAShareWaitingAtAChunkLaunch)
{
    // The arbitrated timeline applies the reservation timeline's
    // launch rule: the share waiting when chunk B launches rides it.
    sim::QueueArbiter fifo;
    sim::EventQueue q;
    XpuStageDevice dev("d", &fifo);
    XpuStageDevice reserved("r");
    sim::EventQueue rq;

    double b_done = -1, d_done = -1;
    dev.submit(q, chunkItem(2.0), 0.0);
    dev.submit(q, chunkItem(3.0), 0.0, [&](double t) { b_done = t; });
    dev.submit(q, fusableDecode(1.0, 0.25, 0), 1.0,
               [&](double t) { d_done = t; });
    q.runAll();
    EXPECT_DOUBLE_EQ(b_done, 5.0);
    EXPECT_DOUBLE_EQ(d_done, 5.25);
    EXPECT_EQ(dev.fusedShares(), 1u);

    reserved.submit(rq, chunkItem(2.0), 0.0);
    reserved.submit(rq, chunkItem(3.0), 0.0);
    EXPECT_DOUBLE_EQ(reserved.submit(rq, fusableDecode(1.0, 0.25, 0), 1.0),
                     d_done);
    EXPECT_EQ(reserved.fusedShares(), 1u);
    rq.runAll();
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

TEST(SchedPolicyEngine, TierPriorityCutsP95GapBelowFifoOverALoadGrid)
{
    // bench_sched_policies' full grid: 24 requests of 48 decode
    // tokens on bursty (gamma cv 3) arrivals, 2048-token chunks.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    for (Tokens ctx : {Tokens(8000), Tokens(30000), Tokens(60000)}) {
        for (double rate : {0.8, 1.2, 1.6}) {
            std::vector<Request> reqs;
            for (RequestId i = 0; i < 24; ++i)
                reqs.push_back({i, ctx, 48});
            GammaProcess arrivals(rate, 3.0);
            auto timed = attachArrivals(reqs, arrivals, 17);
            SCOPED_TRACE("ctx " + std::to_string(ctx) + " rate " +
                         std::to_string(rate));

            SchedPolicyConfig sched;
            sched.kind = SchedPolicyKind::Fifo;
            auto fifo = runPolicy(cluster, model, timed, 2048, sched);
            sched.kind = SchedPolicyKind::TierPriority;
            auto tp = runPolicy(cluster, model, timed, 2048, sched);
            ASSERT_EQ(fifo.completedRequests, 24u);
            ASSERT_EQ(tp.completedRequests, 24u);

            // FIFO stalls a decode share behind at most one whole
            // chunk; tier-priority (every item tier 0) runs decode
            // first and slices in-flight chunks, so the stall is one
            // quantum and the gap tail falls below FIFO's.
            ASSERT_GT(fifo.p95TokenGapSeconds, 0.0);
            EXPECT_LT(tp.p95TokenGapSeconds, fifo.p95TokenGapSeconds);
            EXPECT_EQ(fifo.chunkSlices, 0u);
            EXPECT_GT(tp.chunkSlices, 0u);

            // Under FIFO a share waiting when a chunk launches rides
            // its GEMMs. Tier-priority picks a waiting tier-0 share
            // before the chunk, so none is left waiting to ride.
            EXPECT_GT(fifo.fusedFcShares, 0u);
            EXPECT_EQ(tp.fusedFcShares, 0u);

            // Same admissions, same charge: a policy moves prefill in
            // time but never changes what it costs.
            EXPECT_NEAR(tp.prefillSeconds, fifo.prefillSeconds,
                        1e-9 * fifo.prefillSeconds);
            expectPrefillConserved(fifo, cluster, "fifo");
            expectPrefillConserved(tp, cluster, "tier-priority");
        }
    }
}

TEST(SchedPolicyEngine, TierPriorityBoundsDecodeStallByQuantum)
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
    OnOffProcess arrivals(traffic);
    auto timed = attachArrivals(reqs, arrivals, 17);

    SchedPolicyConfig sched;
    sched.kind = SchedPolicyKind::TierPriority;
    auto tp = runPolicy(cluster, model, timed, 2048, sched);
    sched.kind = SchedPolicyKind::Fifo;
    auto fifo = runPolicy(cluster, model, timed, 2048, sched);

    ASSERT_EQ(tp.completedRequests, 32u);
    ASSERT_GT(tp.chunkSlices, 0u);
    // The worst decode stall behind prefill is one quantum (plus at
    // most one device cycle of slack); without preemption it is one
    // whole chunk — many quanta.
    double cycle = cluster.module.timing.secondsPerCycle();
    EXPECT_LE(tp.maxDecodeXpuWaitSeconds,
              kPreemptQuantumSeconds + cycle + 1e-12);
    EXPECT_GT(tp.maxDecodeXpuWaitSeconds, 0.0);
    EXPECT_GT(fifo.maxDecodeXpuWaitSeconds, 5.0 * kPreemptQuantumSeconds);
}

TEST(SchedPolicyEngine, FifoDecodeWaitsBehindAtMostOneChunk)
{
    // Prefills run first-come-first-served, so stage 0 holds at most
    // one chunk and even FIFO stalls a decode FC share behind at most
    // one: at PP=1 the longest chunk's service bounds the worst wait.
    // (At PP>1 chunks can queue behind decode shares at later stages,
    // so no such bound holds there.)
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    ASSERT_EQ(cluster.plan.pp, 1u);
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, 30000, 64});
    OnOffTraffic traffic;
    traffic.onRate = 4.0;
    traffic.offRate = 0.0;
    traffic.meanOnSeconds = 2.0;
    traffic.meanOffSeconds = 4.0;
    OnOffProcess arrivals(traffic);
    auto timed = attachArrivals(reqs, arrivals, 17);
    const Tokens chunk = 2048;

    SchedPolicyConfig sched;
    sched.kind = SchedPolicyKind::Fifo;
    auto r = runPolicy(cluster, model, timed, chunk, sched);
    ASSERT_EQ(r.completedRequests, 32u);

    // The engine's chunk service: the chunk's scalar seconds spread
    // over the stage's engines.
    auto secs = prefillChunkSeconds(model, 30000, chunk, cluster.xpu,
                                    cluster.prefillEngines());
    double longest = *std::max_element(secs.begin(), secs.end());
    double bound = longest * static_cast<double>(cluster.prefillEngines()) /
                   cluster.plan.tp;
    EXPECT_GT(r.maxDecodeXpuWaitSeconds, 0.0);
    // The wait is timeline arithmetic (end - service - start), so it
    // may exceed the chunk's service by rounding.
    EXPECT_LE(r.maxDecodeXpuWaitSeconds, bound * (1.0 + 1e-12));
}

TEST(SchedPolicyEngine, SloAdmissionIdlesWhileFifoHoldsTheTarget)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    // A warm decoder (so the SLO feedback exists) plus two admission
    // bursts of long-context prefills.
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
    auto slo = runPolicy(cluster, model, timed, 512, sched);

    ASSERT_EQ(fifo.completedRequests, 17u);
    ASSERT_EQ(slo.completedRequests, 17u);

    // Prefills run first-come-first-served, so a decode waits behind
    // at most one chunk and FIFO's gap tail stays under the target
    // the bursts used to break. The gate never closes and SLO
    // admission reproduces FIFO (ROADMAP: the gate would have to act
    // where prefills now wait, at pipeline entry).
    EXPECT_LE(fifo.p95TokenGapSeconds, sched.sloTargetGapSeconds);
    EXPECT_EQ(slo.sloDeferrals, 0u);
    EXPECT_EQ(slo.p95TokenGapSeconds, fifo.p95TokenGapSeconds);
    auto max_ttft = [](const EngineResult &r) {
        double m = 0.0;
        for (const auto &kv : r.firstTokenLatency)
            m = std::max(m, kv.second);
        return m;
    };
    EXPECT_EQ(max_ttft(slo), max_ttft(fifo));
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
