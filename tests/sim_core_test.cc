/**
 * @file
 * Tests for the event-driven serving core: the sim primitives
 * (event queue, devices, stage pipeline), the anchor contract that
 * the event-driven engine reproduces the recorded closed-form
 * lockstep results on PP=1 and beats them on a heterogeneous PP>1
 * deployment, and the
 * open-loop behaviors (late arrivals, preemption re-queue, latency
 * percentile edge cases).
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "sim/device.hh"
#include "sim/event_queue.hh"
#include "sim/pipeline.hh"
#include "sim/ring_buffer.hh"
#include "sim/small_fn.hh"
#include "system/engine.hh"
#include "system/fleet.hh"
#include "system/stage_device.hh"
#include "workload/arrival.hh"
#include "workload/spec.hh"

namespace pimphony {
namespace {

// --- Event queue. ----------------------------------------------------

TEST(EventQueue, DispatchesInTimeOrder)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&](double) { order.push_back(3); });
    q.schedule(1.0, [&](double) { order.push_back(1); });
    q.schedule(2.0, [&](double) { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, SimultaneousEventsRunFifo)
{
    sim::EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(1.0, [&order, i](double) { order.push_back(i); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FifoTiesUnderPooledEvents)
{
    // Pooled/small-buffer event storage must preserve the
    // (time, insertion-order) contract: same-time events of mixed
    // callback sizes run FIFO, including events scheduled from
    // inside callbacks (which reuse freed heap slots) and after the
    // backing vector grows.
    sim::EventQueue q;
    std::vector<int> order;
    struct Big
    {
        double pad[4];
    };
    Big big{{0, 0, 0, 0}};
    for (int i = 0; i < 32; ++i) {
        if (i % 2 == 0) {
            q.schedule(1.0, [&order, i](double) { order.push_back(i); });
        } else {
            q.schedule(1.0, [&order, i, big](double) {
                order.push_back(i + static_cast<int>(big.pad[0]));
            });
        }
    }
    // A later-scheduled earlier-time event still runs first...
    q.schedule(0.5, [&order](double) { order.push_back(-1); });
    // ...and events scheduled from within a callback at the same
    // time run after everything already queued at that time.
    q.schedule(1.0, [&](double) {
        q.schedule(1.0, [&order](double) { order.push_back(100); });
    });
    q.runAll();
    ASSERT_EQ(order.size(), 34u);
    EXPECT_EQ(order.front(), -1);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
    EXPECT_EQ(order.back(), 100);
    EXPECT_EQ(q.dispatched(), 35u);
}

TEST(EventQueue, RunUntilHorizonIsInclusive)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.schedule(1.0, [&](double) { order.push_back(1); });
    q.schedule(2.0, [&](double) { order.push_back(2); });
    q.schedule(3.0, [&](double) { order.push_back(3); });
    q.runUntil(2.0); // inclusive: dispatches 1.0 and 2.0
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.pending(), 1u);
    // now() stays at the last dispatched event, not the horizon, so
    // a schedule() between windows is never clamped forward.
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
    q.runUntil(2.5); // nothing at or before 2.5 remains
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(3.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedRunUntilMatchesRunAll)
{
    // Chained events (each schedules the next) dispatched through a
    // sequence of increasing horizons must replay exactly the
    // runAll() order — the property the fleet's conservative
    // windows rely on.
    auto build = [](sim::EventQueue &q, std::vector<double> &times) {
        for (int i = 0; i < 4; ++i) {
            double t = 0.3 * i;
            q.schedule(t, [&q, &times, t](double now) {
                times.push_back(now);
                q.schedule(t + 0.45, [&times](double inner) {
                    times.push_back(inner);
                });
            });
        }
    };
    sim::EventQueue serial;
    std::vector<double> serial_times;
    build(serial, serial_times);
    serial.runAll();

    sim::EventQueue windowed;
    std::vector<double> windowed_times;
    build(windowed, windowed_times);
    for (double h = 0.25; !windowed.empty(); h += 0.25)
        windowed.runUntil(h);
    EXPECT_EQ(windowed_times, serial_times);
    EXPECT_EQ(windowed.dispatched(), serial.dispatched());
}

TEST(EventQueue, RunUntilOnEmptyQueueIsANoOp)
{
    sim::EventQueue q;
    q.runUntil(5.0);
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
    // A pre-horizon queue is untouched by an earlier horizon.
    q.schedule(10.0, [](double) {});
    q.runUntil(5.0);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.dispatched(), 0u);
}

TEST(SmallFn, InlineCallbacksNeverTouchTheHeap)
{
    std::uint64_t before = sim::smallFnHeapAllocs();
    int hits = 0;
    // Typical hot-path capture sets: one pointer, two pointers plus
    // a double, a shared_ptr plus references.
    sim::SimFn a([&hits](double) { ++hits; });
    void *p1 = &hits;
    void *p2 = &a;
    double x = 1.5;
    sim::SimFn b([p1, p2, x, &hits](double) { ++hits; });
    auto sp = std::make_shared<int>(7);
    sim::SimFn c([sp, &hits](double) { hits += *sp; });
    a(0.0);
    b(0.0);
    c(0.0);
    // Moving between SmallFns (stored completion -> event queue) is
    // a relocation, not a re-erasure.
    sim::SimFn d(std::move(c));
    d(0.0);
    EXPECT_EQ(hits, 16);
    EXPECT_EQ(sim::smallFnHeapAllocs(), before);

    // An oversized capture falls back to the heap -- and is counted,
    // which is what the decode-path assertions below key on.
    struct Huge
    {
        double pad[16];
    };
    Huge huge{};
    huge.pad[0] = 1.0;
    sim::SimFn e([huge, &hits](double) {
        hits += static_cast<int>(huge.pad[0]);
    });
    e(0.0);
    EXPECT_EQ(hits, 17);
    EXPECT_EQ(sim::smallFnHeapAllocs(), before + 1);
}

TEST(SmallFn, HeapAllocCounterIsPerThread)
{
    // The zero-alloc assertions above key on the calling thread's
    // counter staying flat; a sweep-runner worker heap-allocating on
    // another thread must not perturb it. The aggregate counter
    // still observes every thread's fallbacks.
    std::uint64_t local_before = sim::smallFnHeapAllocs();
    std::uint64_t total_before = sim::smallFnHeapAllocsTotal();

    std::thread worker([]() {
        struct Huge
        {
            double pad[16];
        };
        Huge huge{};
        huge.pad[0] = 2.0;
        int sink = 0;
        sim::SimFn f([huge, &sink](double) {
            sink += static_cast<int>(huge.pad[0]);
        });
        f(0.0);
        EXPECT_EQ(sink, 2);
        // The worker's own thread-local counter saw the fallback.
        EXPECT_GE(sim::smallFnHeapAllocs(), 1u);
    });
    worker.join();

    EXPECT_EQ(sim::smallFnHeapAllocs(), local_before);
    EXPECT_GE(sim::smallFnHeapAllocsTotal(), total_before + 1);
}

TEST(SmallFn, DecodePathIsCallbackAllocationFree)
{
    // The acceptance contract of the PR 4 hot-path overhaul: a full
    // event-driven serving run -- decode cycles, chunked prefill,
    // arrivals, and an arbitrated policy -- never heap-allocates
    // callback storage. Every closure on the path fits the SimFn
    // small buffer; a capture that grows past it would trip the
    // counter here.
    auto model = LlmConfig::llm7b(true);
    for (SchedPolicyKind kind :
         {SchedPolicyKind::Fifo, SchedPolicyKind::SloAdmission,
          SchedPolicyKind::ChunkPreempt}) {
        auto cluster = ClusterConfig::neupimsLike(model);
        cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
        applyOptions(cluster, PimphonyOptions::all());
        std::vector<Request> reqs;
        for (RequestId i = 0; i < 32; ++i)
            reqs.push_back({i, (i % 4 == 0) ? Tokens(30000)
                                            : Tokens(2000),
                            16});
        auto timed = gammaArrivals(reqs, 4.0, 3.0, 17);
        EngineOptions opts;
        opts.allocator = AllocatorKind::LazyChunk;
        opts.prefillChunkTokens = 2048;
        opts.sched.kind = kind;

        std::uint64_t before = sim::smallFnHeapAllocs();
        auto r = ServingEngine(cluster, model, timed, opts).run();
        EXPECT_EQ(sim::smallFnHeapAllocs(), before)
            << "policy " << schedPolicyName(kind)
            << " heap-allocated callback storage on the decode path";
        EXPECT_EQ(r.completedRequests, 32u);
    }

    // Closed-loop session releases ride the same path: each is one
    // event whose callback points into the session book, on a bare
    // engine with the prefix cache retaining turn KV and on a fleet
    // whose replicas share one book.
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
    applyOptions(cluster, PimphonyOptions::all());
    WorkloadSpec spec;
    spec.count = 16;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{2000, 16}, {4000, 16}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 8.0;
    spec.session.turns = 3;
    spec.session.thinkMeanSeconds = 0.2;
    spec.prefix.share = 0.5;
    spec.prefix.tokens = 1024;
    auto built = buildWorkload(spec, 41);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.prefixCache.enabled = true;

    std::uint64_t before = sim::smallFnHeapAllocs();
    ServingEngine engine(cluster, model, built.initial, opts);
    engine.declareSessionTurns(built.sessions);
    auto bare = engine.run();
    EXPECT_EQ(sim::smallFnHeapAllocs(), before)
        << "session releases heap-allocated callback storage";
    EXPECT_EQ(bare.completedRequests, 48u);
    EXPECT_GT(bare.prefixHits, 0u);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.engine = opts;
    before = sim::smallFnHeapAllocs();
    FleetEngine fleet(cluster, model, built.initial, fopts);
    fleet.setSessions(built.sessions);
    auto out = fleet.run();
    EXPECT_EQ(sim::smallFnHeapAllocs(), before)
        << "fleet session releases heap-allocated callback storage";
    EXPECT_EQ(out.aggregate.completedRequests, 48u);
}

TEST(RingQueue, FifoAcrossGrowthAndWraparound)
{
    sim::RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    // Interleaved push/pop drives head_ around the buffer while the
    // queue grows past its initial capacity.
    int next_push = 0, next_pop = 0;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 3; ++i)
            q.push(next_push++);
        for (int i = 0; i < (round % 3 == 0 ? 1 : 2); ++i) {
            ASSERT_FALSE(q.empty());
            EXPECT_EQ(q.front(), next_pop++);
            q.pop();
        }
    }
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_pop++);
        q.pop();
    }
    EXPECT_EQ(next_pop, next_push);
}

TEST(EventQueue, PastTimesClampToNow)
{
    sim::EventQueue q;
    double ran_at = -1.0;
    q.schedule(2.0, [&](double t) {
        // Scheduling "in the past" from inside an event runs at now.
        q.schedule(0.5, [&](double t2) { ran_at = t2; });
        (void)t;
    });
    q.runAll();
    EXPECT_DOUBLE_EQ(ran_at, 2.0);
}

// --- Device timeline. ------------------------------------------------

TEST(Device, FifoSerialization)
{
    sim::EventQueue q;
    sim::Device dev("d");
    sim::WorkItem a;
    a.seconds = 2.0;
    sim::WorkItem b;
    b.seconds = 1.0;
    double done_a = dev.submit(q, a, 0.0);
    // b is ready at 0.5 but must wait for a.
    double done_b = dev.submit(q, b, 0.5);
    EXPECT_DOUBLE_EQ(done_a, 2.0);
    EXPECT_DOUBLE_EQ(done_b, 3.0);
    EXPECT_DOUBLE_EQ(dev.busyUntil(), 3.0);
    EXPECT_DOUBLE_EQ(dev.busySeconds(), 3.0);
    q.runAll();
    EXPECT_EQ(dev.completedItems(), 2u);
}

TEST(Device, CompletionCallbackAtCompletionTime)
{
    sim::EventQueue q;
    sim::Device dev("d");
    sim::WorkItem w;
    w.seconds = 4.0;
    double completed_at = -1.0;
    dev.submit(q, w, 1.0, [&](double t) { completed_at = t; });
    q.runAll();
    EXPECT_DOUBLE_EQ(completed_at, 5.0);
}

// --- Stage pipeline overlap. -----------------------------------------

TEST(StagePipeline, CohortsOverlapAcrossStages)
{
    sim::EventQueue q;
    sim::Device s0("s0"), s1("s1");
    sim::StagePipeline pipe({&s0, &s1});

    double done0 = -1.0, done1 = -1.0;
    sim::WorkItem a;
    a.cohort = 0;
    a.seconds = 1.0;
    sim::WorkItem b;
    b.cohort = 1;
    b.seconds = 1.0;
    pipe.submitCycle(q, a, 0.0, [&](double t) { done0 = t; });
    pipe.submitCycle(q, b, 0.0, [&](double t) { done1 = t; });
    q.runAll();
    // b enters stage 0 at t=1 while a occupies stage 1 -> b finishes
    // at 3, not at 4 as a serialized schedule would.
    EXPECT_DOUBLE_EQ(done0, 2.0);
    EXPECT_DOUBLE_EQ(done1, 3.0);
}

TEST(StagePipeline, SubmitChainOnSingleStageMatchesDeviceSubmit)
{
    // PP=1: a chain degenerates to one device submission — same
    // completion time, one completed item, stage index stamped.
    sim::EventQueue q;
    sim::Device s0("s0");
    sim::StagePipeline pipe({&s0});
    std::vector<sim::WorkItem> items(1);
    items[0].seconds = 2.0;
    items[0].stage = 7; // overwritten by the chain
    double done = -1.0;
    pipe.submitChain(q, items, 1.0, [&](double t) { done = t; });
    q.runAll();
    EXPECT_DOUBLE_EQ(done, 3.0);
    EXPECT_EQ(s0.completedItems(), 1u);
    EXPECT_DOUBLE_EQ(s0.busySeconds(), 2.0);
}

TEST(StagePipeline, SequenceOnSingleStageRunsElementsBackToBack)
{
    // PP=1: stage 0 is also the last stage, so element k+1 enters at
    // element k's completion — chunk pipelining degenerates to
    // serial execution without gaps or overlap.
    sim::EventQueue q;
    sim::Device s0("s0");
    sim::StagePipeline pipe({&s0});
    auto element = [](double sec) {
        std::vector<sim::WorkItem> row(1);
        row[0].seconds = sec;
        return row;
    };
    double done = -1.0;
    pipe.submitSequence(q, {element(1.0), element(2.0), element(0.5)},
                        0.0, [&](double t) { done = t; });
    q.runAll();
    EXPECT_DOUBLE_EQ(done, 3.5);
    EXPECT_EQ(s0.completedItems(), 3u);
}

TEST(StagePipeline, TwoSequencesInterleaveElementWise)
{
    // Two requests' chunk streams on one stage interleave FIFO at
    // element granularity: A0 B0 A1 B1, because each stream only
    // submits its next element at the previous one's stage-0
    // completion event.
    sim::EventQueue q;
    sim::Device s0("s0");
    sim::StagePipeline pipe({&s0});
    auto element = [](double sec) {
        std::vector<sim::WorkItem> row(1);
        row[0].seconds = sec;
        return row;
    };
    double a_done = -1.0, b_done = -1.0;
    pipe.submitSequence(q, {element(1.0), element(1.0)}, 0.0,
                        [&](double t) { a_done = t; });
    pipe.submitSequence(q, {element(1.0), element(1.0)}, 0.0,
                        [&](double t) { b_done = t; });
    q.runAll();
    // A0 [0,1], B0 [1,2], A1 [2,3], B1 [3,4].
    EXPECT_DOUBLE_EQ(a_done, 3.0);
    EXPECT_DOUBLE_EQ(b_done, 4.0);
    EXPECT_DOUBLE_EQ(s0.busySeconds(), 4.0);
}

TEST(ChunkedPrefillEdge, ZeroContextRequestSkipsPrefill)
{
    // A zero-context request has a zero-chunk prefill plan: it must
    // enter the decode pool immediately (TTFT ~ one decode cycle)
    // while a long-context peer pays its chunked prefill first.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs{{0, 0, 8}, {1, 20000, 8}};

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    auto r = ServingEngine(cluster, model, reqs, opts).run();
    EXPECT_EQ(r.completedRequests, 2u);
    EXPECT_EQ(r.generatedTokens, 16u);
    ASSERT_EQ(r.firstTokenLatency.count(0), 1u);
    ASSERT_EQ(r.firstTokenLatency.count(1), 1u);
    EXPECT_GT(r.prefillSeconds, 0.0); // request 1 only
    EXPECT_LT(r.firstTokenLatency.at(0),
              0.5 * r.firstTokenLatency.at(1));
}

TEST(PipelineStage, XpuShadowTrailsPimTimeline)
{
    PimModuleConfig mcfg;
    PimModuleModel pim(mcfg);
    XpuModel xpu(XpuConfig::neupimsNpu());
    PipelineStage stage("s", pim, &xpu);

    sim::EventQueue q;
    sim::WorkItem w;
    w.seconds = 2.0;
    w.fcSeconds = 0.5;
    double done = stage.submit(q, w, 0.0);
    EXPECT_DOUBLE_EQ(done, 2.0);
    // The FC share lands on the xPU timeline without gating the stage.
    ASSERT_NE(stage.xpu(), nullptr);
    EXPECT_DOUBLE_EQ(stage.xpu()->busySeconds(), 0.5);
    EXPECT_LE(stage.xpu()->busyUntil(), stage.busyUntil());
}

// --- Engine anchors: event-driven vs the closed-form lockstep. -------
//
// The ka* constants are reference results of a closed-form lockstep
// model on each configuration, recorded at hex-float precision: every
// decode step costs stageBeats * max_stage_sec, each stage beat
// padded to the slowest micro-batch. On PP=1 the event core must
// agree with them; on a heterogeneous PP>1 deployment it must beat
// them.

std::vector<Request>
uniformRequests(std::size_t n, Tokens context, Tokens decode)
{
    std::vector<Request> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back({static_cast<RequestId>(i), context, decode});
    return out;
}

TEST(StepModels, AgreeOnPp1PimOnly)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 8; ++i)
        reqs.push_back({i, 20000 + 5000 * static_cast<Tokens>(i), 16});

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    auto e = ServingEngine(cluster, model, reqs, opts).run();

    // The lockstep model's result on this configuration.
    const double kaTokensPerSecond = 0x1.4499752e43138p+9;
    const double kaSimulatedSeconds = 0x1.93cbcf4bd81acp-3;
    const std::uint64_t kaGeneratedTokens = 128;
    const std::uint64_t kaCompletedRequests = 8;
    const double kaAvgEffectiveBatch = 0x1p+3;
    const double kaMacUtilization = 0x1.5921e0372e998p-2;
    const double kaCapacityUtilization = 0x1.41f3ea3258a45p-2;
    const double kaAttentionSeconds = 0x1.eb60136ea557bp-4;
    const double kaFcSeconds = 0x1.b93da3cf7d811p-5;
    const double kaP95RequestLatency = 0x1.93cbcf4bd81acp-3;
    const double kaP95FirstTokenSeconds = 0x1.93ba17cf90b2ap-7;
    const double kaP95TokenGapSeconds = 0x1.93d3dce16cedp-7;
    const double kaAvgTokenGapSeconds = 0x1.93ccfda97677ep-7;

    EXPECT_NEAR(e.tokensPerSecond / kaTokensPerSecond, 1.0, 0.01);
    EXPECT_NEAR(e.macUtilization, kaMacUtilization, 0.01);
    EXPECT_NEAR(e.avgEffectiveBatch, kaAvgEffectiveBatch,
                0.01 * kaAvgEffectiveBatch);
    EXPECT_EQ(e.completedRequests, kaCompletedRequests);
    EXPECT_EQ(e.generatedTokens, kaGeneratedTokens);
    // On PP=1 the pipeline recurrence degenerates to the closed form,
    // so time, occupancy and latency agree as well.
    auto expectWithinOnePercent = [](double actual, double reference) {
        EXPECT_NEAR(actual, reference, 0.01 * reference);
    };
    expectWithinOnePercent(e.simulatedSeconds, kaSimulatedSeconds);
    expectWithinOnePercent(e.capacityUtilization, kaCapacityUtilization);
    expectWithinOnePercent(e.attentionSeconds, kaAttentionSeconds);
    expectWithinOnePercent(e.fcSeconds, kaFcSeconds);
    expectWithinOnePercent(e.p95RequestLatency, kaP95RequestLatency);
    expectWithinOnePercent(e.p95FirstTokenSeconds,
                           kaP95FirstTokenSeconds);
    expectWithinOnePercent(e.p95TokenGapSeconds, kaP95TokenGapSeconds);
    expectWithinOnePercent(e.avgTokenGapSeconds, kaAvgTokenGapSeconds);
}

TEST(StepModels, AgreeOnPp1XpuPim)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    auto reqs = uniformRequests(6, 30000, 12);

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    auto e = ServingEngine(cluster, model, reqs, opts).run();

    // The lockstep model's throughput on this configuration.
    const double kaTokensPerSecond = 0x1.341fe7c4a1bf8p+9;
    EXPECT_NEAR(e.tokensPerSecond / kaTokensPerSecond, 1.0, 0.01);
}

TEST(StepModels, EventDrivenBeatsAnalyticOnPp4Heterogeneous)
{
    // PP=4 with memory turnover and bimodal context lengths: the
    // ready pool forms homogeneous cohorts of two, fewer cohorts
    // than stages are in flight, and the lockstep model padded every
    // stage beat to the slowest micro-batch while the event-driven
    // pipeline lets short-context cohorts cycle, retire, and pull
    // pending work at their own pace.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    cluster.nModules = 4;
    cluster.plan = ParallelPlan{1, 4};
    const Tokens short_ctx = 2000, long_ctx = 64000, decode = 32;
    Bytes per_req = model.kvBytesPerToken() * (long_ctx + decode);
    Bytes kv_budget = static_cast<Bytes>(3.2 * static_cast<double>(per_req));
    cluster.module.capacityBytes =
        (kv_budget + model.weightBytes()) / cluster.nModules + 1;
    applyOptions(cluster, PimphonyOptions::all());

    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, ((i / 2) % 2 == 0) ? short_ctx : long_ctx,
                        decode});

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    auto e = ServingEngine(cluster, model, reqs, opts).run();

    // The lockstep model's throughput on this configuration (it
    // completed all 32 requests).
    const double kaTokensPerSecond = 0x1.cd50d0818d9b3p+7;
    EXPECT_EQ(e.completedRequests, 32u);
    EXPECT_GE(e.tokensPerSecond, 1.05 * kaTokensPerSecond);
}

// --- Open-loop coverage. ---------------------------------------------

TEST(OpenLoopEvent, IdlesUntilFirstArrival)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<TimedRequest> timed;
    timed.push_back({{0, 20000, 8}, 5.0});
    timed.push_back({{1, 20000, 8}, 7.0});

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    auto r = ServingEngine(cluster, model, timed, opts).run();
    EXPECT_EQ(r.completedRequests, 2u);
    // The clock idles to the arrivals instead of starting at zero.
    EXPECT_GE(r.simulatedSeconds, 7.0);
    EXPECT_LT(r.avgRequestLatency, 2.0);
}

TEST(OpenLoopEvent, PreemptionRequeuesWithOriginalArrival)
{
    // Two small-context, long-decode requests into a KV budget that
    // admits both (the headroom check sees the second request's full
    // trajectory next to the first one's *current* chunks) but
    // cannot hold both full trajectories: one request is preempted
    // mid-decode and re-queued. Its latency must span from the
    // original arrival, so the last completion's latency is almost
    // the whole simulated span; re-queuing with the preemption time
    // would cut it roughly in half.
    auto model = LlmConfig::llm7b(true);
    const Tokens ctx = 1000, decode = 2000;
    auto cluster = ClusterConfig::centLike(model);
    cluster.nModules = 2;
    cluster.plan = ParallelPlan{2, 1};
    Bytes kv_budget = model.kvBytesPerToken() * (2 * ctx + 2 * 1800);
    cluster.module.capacityBytes =
        (kv_budget + model.weightBytes()) / cluster.nModules + 1;
    applyOptions(cluster, PimphonyOptions::all());

    std::vector<TimedRequest> timed;
    timed.push_back({{0, ctx, decode}, 0.0});
    timed.push_back({{1, ctx, decode}, 0.01});

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    auto r = ServingEngine(cluster, model, timed, opts).run();
    EXPECT_GE(r.preemptions, 1u);
    EXPECT_EQ(r.completedRequests, 2u);
    EXPECT_EQ(r.rejectedRequests, 0u);
    // Nearest-rank p95 of two samples is the max latency: the
    // preempted request restarts, finishes last, and its latency
    // reaches back to its original arrival near time zero.
    EXPECT_GE(r.p95RequestLatency, 0.9 * r.simulatedSeconds);
    // Token ledger: the preempted request's discarded tokens are
    // generated again, so generation exceeds the delivered decode
    // total by exactly the recomputed share.
    EXPECT_GT(r.recomputedTokens, 0u);
    EXPECT_EQ(r.generatedTokens, 2 * decode + r.recomputedTokens);
}

TEST(LatencyPercentiles, NearestRankEdgeCases)
{
    // 1-element sample: every percentile is the only value.
    EXPECT_DOUBLE_EQ(nearestRankPercentile({42.0}, 95.0), 42.0);
    EXPECT_DOUBLE_EQ(nearestRankPercentile({42.0}, 1.0), 42.0);

    // 20-element sample: ceil(0.95 * 20) = 19 -> the 19th smallest,
    // not the max.
    std::vector<double> v;
    for (int i = 1; i <= 20; ++i)
        v.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(nearestRankPercentile(v, 95.0), 19.0);
    EXPECT_DOUBLE_EQ(nearestRankPercentile(v, 100.0), 20.0);
    EXPECT_DOUBLE_EQ(nearestRankPercentile(v, 5.0), 1.0);
    EXPECT_DOUBLE_EQ(nearestRankPercentile({}, 95.0), 0.0);
}

TEST(LatencyPercentiles, SingleRequestP95EqualsAverage)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    auto reqs = uniformRequests(1, 20000, 8);

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    auto r = ServingEngine(cluster, model, reqs, opts).run();
    EXPECT_EQ(r.completedRequests, 1u);
    EXPECT_GT(r.p95RequestLatency, 0.0);
    EXPECT_DOUBLE_EQ(r.p95RequestLatency, r.avgRequestLatency);
}

TEST(Arrivals, SortByArrivalIsStable)
{
    std::vector<TimedRequest> v;
    v.push_back({{0, 10, 1}, 2.0});
    v.push_back({{1, 11, 1}, 1.0});
    v.push_back({{2, 12, 1}, 1.0});
    sortByArrival(v);
    EXPECT_EQ(v[0].request.id, 1u);
    EXPECT_EQ(v[1].request.id, 2u);
    EXPECT_EQ(v[2].request.id, 0u);
}

} // namespace
} // namespace pimphony
