/**
 * @file
 * Tests for chunked prefill as first-class pipeline events: the
 * chunk planner's conservation properties, the sim-level sequence
 * submission (chunk pipelining + FIFO interleaving), the stage
 * device's prefill/decode interference, the engine's Prefilling
 * state (TTFT reporting, decode-stall vs chunk size, scalar-charge
 * parity), and the per-stage layer remainder.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mapping/parallel.hh"
#include "result_eq.hh"
#include "sim/device.hh"
#include "sim/event_queue.hh"
#include "sim/pipeline.hh"
#include "system/engine.hh"
#include "system/prefill.hh"
#include "system/stage_device.hh"
#include "workload/arrival.hh"

namespace pimphony {
namespace {

// --- Chunk planner. --------------------------------------------------

TEST(PrefillChunks, CoverContextAndConserveFlops)
{
    auto model = LlmConfig::llm7b(true);
    const Tokens ctx = 10000, chunk = 3000;
    auto chunks = prefillChunks(model, ctx, chunk);
    ASSERT_EQ(chunks.size(), 4u); // 3000 + 3000 + 3000 + 1000
    Tokens covered = 0;
    double flops = 0.0;
    for (std::size_t k = 0; k < chunks.size(); ++k) {
        EXPECT_EQ(chunks[k].firstToken, covered);
        covered += chunks[k].tokens;
        flops += chunks[k].flops;
    }
    EXPECT_EQ(covered, ctx);
    EXPECT_EQ(chunks.back().tokens, 1000u);
    // The chunk split telescopes exactly to the scalar FLOP count.
    EXPECT_NEAR(flops, prefillFlops(model, ctx),
                1e-9 * prefillFlops(model, ctx));
    // Causal attention makes later (equal-sized) chunks costlier.
    EXPECT_GT(chunks[1].flops, chunks[0].flops);
    EXPECT_GT(chunks[2].flops, chunks[1].flops);
}

TEST(PrefillChunks, EdgeCases)
{
    auto model = LlmConfig::llm7b(true);
    EXPECT_TRUE(prefillChunks(model, 0, 512).empty());
    // chunk_tokens == 0 or >= tokens: one chunk.
    EXPECT_EQ(prefillChunks(model, 100, 0).size(), 1u);
    EXPECT_EQ(prefillChunks(model, 100, 4096).size(), 1u);
    EXPECT_EQ(prefillChunks(model, 4096, 4096).size(), 1u);
}

TEST(PrefillChunks, SecondsSumToScalarCharge)
{
    auto model = LlmConfig::llm7b(true);
    auto cfg = XpuConfig::neupimsNpu();
    const Tokens ctx = 57000;
    for (Tokens chunk : {Tokens{512}, Tokens{2048}, Tokens{60000}}) {
        auto secs = prefillChunkSeconds(model, ctx, chunk, cfg, 4);
        double sum = 0.0;
        for (double s : secs)
            sum += s;
        double scalar = prefillSeconds(model, ctx, cfg, 4);
        EXPECT_NEAR(sum, scalar, 1e-9 * scalar) << "chunk=" << chunk;
    }
}

// --- Sequence submission on the sim core. ----------------------------

TEST(StagePipeline, SequencePipelinesElementsAcrossStages)
{
    sim::EventQueue q;
    sim::Device s0("s0"), s1("s1");
    sim::StagePipeline pipe({&s0, &s1});

    auto element = [] {
        std::vector<sim::WorkItem> row(2);
        row[0].seconds = 1.0;
        row[1].seconds = 1.0;
        return row;
    };
    double done = -1.0;
    pipe.submitSequence(q, {element(), element(), element()}, 0.0,
                        [&](double t) { done = t; });
    q.runAll();
    // Element k enters stage 0 at k and stage 1 at k+1: the last of
    // three finishes at 4, not at 6 as a serialized schedule would.
    EXPECT_DOUBLE_EQ(done, 4.0);
    EXPECT_DOUBLE_EQ(s0.busySeconds(), 3.0);
    EXPECT_DOUBLE_EQ(s1.busySeconds(), 3.0);
}

TEST(StagePipeline, SequenceLeavesFifoGapsForInterleaving)
{
    sim::EventQueue q;
    sim::Device s0("s0");
    sim::StagePipeline pipe({&s0});

    double seq_done = -1.0, other_done = -1.0;
    std::vector<sim::WorkItem> a(1), b(1);
    a[0].seconds = 1.0;
    b[0].seconds = 1.0;
    pipe.submitSequence(q, {a, b}, 0.0,
                        [&](double t) { seq_done = t; });
    // A latecomer submitted at t=0.5 slots between the two sequence
    // elements, because element 1 is only submitted at element 0's
    // completion event (t=1).
    q.schedule(0.5, [&](double) {
        sim::WorkItem w;
        w.seconds = 0.2;
        s0.submit(q, w, 0.5, [&](double t) { other_done = t; });
    });
    q.runAll();
    EXPECT_DOUBLE_EQ(other_done, 1.2);
    EXPECT_DOUBLE_EQ(seq_done, 2.2);
}

TEST(StagePipeline, EmptySequenceCompletesAtReady)
{
    sim::EventQueue q;
    sim::Device s0("s0");
    sim::StagePipeline pipe({&s0});
    double done = -1.0;
    pipe.submitSequence(q, {}, 3.0, [&](double t) { done = t; });
    q.runAll();
    EXPECT_DOUBLE_EQ(done, 3.0);
}

// --- Prefill/decode interference on one stage. -----------------------

sim::WorkItem
decodeShare(double seconds, double fc, double fused)
{
    sim::WorkItem w;
    w.seconds = seconds;
    w.fcSeconds = fc;
    w.fusedFcSeconds = fused;
    return w;
}

TEST(PipelineStage, PrefillChunkOccupiesXpuAndGatesDecodeFc)
{
    PipelineStage stage("s");
    sim::EventQueue q;

    sim::WorkItem chunk;
    chunk.kind = sim::WorkItem::Kind::PrefillChunk;
    chunk.seconds = 1.0;
    double chunk_done = stage.submit(q, chunk, 0.0);
    // The chunk occupies the xPU timeline, not the serializing PIM.
    EXPECT_DOUBLE_EQ(chunk_done, 1.0);
    EXPECT_DOUBLE_EQ(stage.busyUntil(), 0.0);
    EXPECT_DOUBLE_EQ(stage.xpu().busyUntil(), 1.0);

    // The decode item's FC share is ready when the chunk launches, so
    // it launches with it: the chunk streams the weights, the share
    // pays only its 0.1 s of rows and completes right after the
    // chunk, [1.0, 1.1]. The stage is gated until then instead of
    // its nominal 0.5 (stand-alone, the share would run [1.0, 1.4]).
    double decode_done = stage.submit(q, decodeShare(0.5, 0.4, 0.1), 0.0);
    EXPECT_DOUBLE_EQ(decode_done, 1.1);
    EXPECT_DOUBLE_EQ(stage.busyUntil(), 1.1);
    EXPECT_DOUBLE_EQ(stage.xpu().busyUntil(), 1.1);
    EXPECT_EQ(stage.xpu().fusedShares(), 1u);
    q.runAll();
    EXPECT_DOUBLE_EQ(stage.xpu().fcBusySeconds(), 0.1);
}

TEST(PipelineStage, ShareArrivingMidChunkWaitsAndRunsStandAlone)
{
    PipelineStage stage("s");
    sim::EventQueue q;

    sim::WorkItem chunk;
    chunk.kind = sim::WorkItem::Kind::PrefillChunk;
    chunk.seconds = 1.0;
    stage.submit(q, chunk, 0.0);
    // Ready at 0.5, after the chunk launched at 0: the share is gated
    // behind the chunk and runs stand-alone on the xPU, [1.0, 1.4],
    // so the stage completes at 1.4 instead of its nominal 1.0.
    double decode_done = stage.submit(q, decodeShare(0.5, 0.4, 0.1), 0.5);
    EXPECT_DOUBLE_EQ(decode_done, 1.4);
    EXPECT_DOUBLE_EQ(stage.busyUntil(), 1.4);
    EXPECT_EQ(stage.xpu().fusedShares(), 0u);
    EXPECT_DOUBLE_EQ(stage.xpu().maxDecodeWaitSeconds(), 0.5);
    q.runAll();
    EXPECT_DOUBLE_EQ(stage.xpu().fcBusySeconds(), 0.4);
}

TEST(PipelineStage, ShareAheadOfAChunkIsNeverDelayed)
{
    PipelineStage stage("s");
    sim::EventQueue q;

    // The share reserves the xPU first, [0, 0.4]; the chunk queued
    // behind it neither delays it nor changes its charge.
    double decode_done = stage.submit(q, decodeShare(0.5, 0.4, 0.1), 0.0);
    sim::WorkItem chunk;
    chunk.kind = sim::WorkItem::Kind::PrefillChunk;
    chunk.seconds = 1.0;
    double chunk_done = stage.submit(q, chunk, 0.0);
    EXPECT_DOUBLE_EQ(decode_done, 0.5);
    EXPECT_DOUBLE_EQ(chunk_done, 1.4);
    EXPECT_EQ(stage.xpu().fusedShares(), 0u);
    EXPECT_DOUBLE_EQ(stage.xpu().maxDecodeWaitSeconds(), 0.0);
    q.runAll();
}

TEST(XpuStageDevice, TwoSharesBehindOneQueuedChunkBothFuseInOrder)
{
    XpuStageDevice xpu("x");
    sim::EventQueue q;
    sim::WorkItem a, b;
    a.kind = b.kind = sim::WorkItem::Kind::PrefillChunk;
    a.seconds = 1.0;
    b.seconds = 2.0;
    EXPECT_DOUBLE_EQ(xpu.submit(q, a, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(xpu.submit(q, b, 0.0), 3.0); // launches at 1.0

    // Both shares are ready before chunk B launches (0.5 and 0.8 <=
    // 1.0), so both launch with it and complete right after it, in
    // queue order, each at its fused charge.
    sim::WorkItem x = decodeShare(0.4, 0.0, 0.1);
    sim::WorkItem y = decodeShare(0.3, 0.0, 0.2);
    EXPECT_DOUBLE_EQ(xpu.submit(q, x, 0.5), 3.1);
    EXPECT_DOUBLE_EQ(xpu.submit(q, y, 0.8), 3.3);
    EXPECT_EQ(xpu.fusedShares(), 2u);
    // Ready at 1.5, after B launched: stand-alone, [3.3, 3.7].
    sim::WorkItem z = decodeShare(0.4, 0.0, 0.1);
    EXPECT_DOUBLE_EQ(xpu.submit(q, z, 1.5), 3.7);
    EXPECT_EQ(xpu.fusedShares(), 2u);
    // A fused share waits until its own compute starts, after B.
    EXPECT_DOUBLE_EQ(xpu.maxDecodeWaitSeconds(), 3.0 - 0.5);

    q.runAll();
    EXPECT_DOUBLE_EQ(xpu.prefillBusySeconds(), 3.0);
    EXPECT_NEAR(xpu.fcBusySeconds(), 0.1 + 0.2 + 0.4, 1e-12);
    EXPECT_NEAR(xpu.busySeconds(),
                xpu.prefillBusySeconds() + xpu.fcBusySeconds(), 1e-12);
}

TEST(PipelineStage, XpuBusyIsPrefillPlusFcShare)
{
    // A stream of chunks and decode items, some fusing and some not:
    // the xPU serves exactly the prefill charge plus the FC charge,
    // a fused share at its fused charge.
    PipelineStage stage("s");
    sim::EventQueue q;
    sim::WorkItem chunk;
    chunk.kind = sim::WorkItem::Kind::PrefillChunk;
    for (int i = 0; i < 6; ++i) {
        double t = 2.0 * i;
        chunk.seconds = 0.5 + 0.1 * i;
        stage.submit(q, chunk, t);
        // Even items are ready at the chunk's launch and fuse; odd
        // ones arrive mid-chunk and run stand-alone after it.
        double ready = i % 2 == 0 ? t : t + 0.2;
        stage.submit(q, decodeShare(0.3, 0.25, 0.05), ready);
    }
    q.runAll();
    const XpuStageDevice &x = stage.xpu();
    EXPECT_EQ(x.fusedShares(), 3u);
    EXPECT_NEAR(x.fcBusySeconds(), 3 * 0.05 + 3 * 0.25, 1e-12);
    EXPECT_NEAR(x.prefillBusySeconds(), 6 * 0.5 + 0.1 * 15, 1e-12);
    EXPECT_NEAR(x.busySeconds(), x.prefillBusySeconds() + x.fcBusySeconds(),
                1e-12);
}

// --- Per-stage layer remainder. --------------------------------------

TEST(StageLayersSplit, LastStageAbsorbsRemainder)
{
    // Even split: unchanged.
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(stageLayers(32, 4, s), 8u);
    // Remainder goes to the last stage and counts sum to nLayers.
    EXPECT_EQ(stageLayers(33, 2, 0), 16u);
    EXPECT_EQ(stageLayers(33, 2, 1), 17u);
    EXPECT_EQ(stageLayers(80, 32, 0), 2u);
    EXPECT_EQ(stageLayers(80, 32, 31), 18u);
    unsigned total = 0;
    for (unsigned s = 0; s < 32; ++s)
        total += stageLayers(80, 32, s);
    EXPECT_EQ(total, 80u);
    // Oversubscribed pipelines keep one layer per stage.
    EXPECT_EQ(stageLayers(2, 4, 0), 1u);
    EXPECT_EQ(stageLayers(2, 4, 3), 1u);
}

TEST(StageLayersSplit, RemainderLayersAreCharged)
{
    // Pre-remainder handling, a 33-layer model on PP=2 was billed as
    // 32 layers (16 per stage); now the extra layer must cost time.
    auto model32 = LlmConfig::llm7b(true);
    auto model33 = model32;
    model33.nLayers = 33;
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 8; ++i)
        reqs.push_back({i, 20000, 8});

    auto cluster = ClusterConfig::centLike(model32);
    cluster.nModules = 2;
    cluster.plan = ParallelPlan{1, 2};
    applyOptions(cluster, PimphonyOptions::all());
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    auto r32 = ServingEngine(cluster, model32, reqs, opts).run();
    auto r33 = ServingEngine(cluster, model33, reqs, opts).run();
    EXPECT_EQ(r32.completedRequests, 8u);
    EXPECT_EQ(r33.completedRequests, 8u);
    EXPECT_LT(r33.tokensPerSecond, r32.tokensPerSecond);
}

// --- Engine: Prefilling state, TTFT, interference. --------------------

TEST(ChunkedPrefill, TtftReportedAndMonotoneInContext)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    double prev_ttft = 0.0;
    for (Tokens ctx : {Tokens{8000}, Tokens{16000}, Tokens{32000},
                       Tokens{64000}}) {
        std::vector<Request> reqs{{0, ctx, 4}};
        EngineOptions opts;
        opts.allocator = AllocatorKind::LazyChunk;
        opts.prefillChunkTokens = 2048;
        auto r = ServingEngine(cluster, model, reqs, opts).run();
        ASSERT_EQ(r.completedRequests, 1u) << "ctx=" << ctx;
        ASSERT_EQ(r.firstTokenLatency.count(0), 1u) << "ctx=" << ctx;
        double ttft = timeOf(r.firstTokenLatency, 0);
        EXPECT_DOUBLE_EQ(ttft, r.avgFirstTokenSeconds);
        EXPECT_GT(ttft, 0.0);
        // Prefill work is on the clock now: TTFT exceeds the prefill
        // charge and never shrinks as the context grows.
        EXPECT_GT(ttft, r.prefillSeconds * 0.99) << "ctx=" << ctx;
        EXPECT_GE(ttft, prev_ttft) << "ctx=" << ctx;
        prev_ttft = ttft;
    }
}

TEST(ChunkedPrefill, SmallerChunksCutDecodeStallAtSamePrefillCost)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    // Arrivals at ~1.1x the xPU's prefill capacity (scalar prefill
    // of a 30k context is ~0.74 s on the 4-NPU group): prefill
    // chunks contend with decode FC on every cycle, which is the
    // regime continuous batching exists for.
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, 30000, 64});
    PoissonProcess arrivals(1.5);
    auto timed = attachArrivals(reqs, arrivals, 17);

    auto run = [&](Tokens chunk_tokens, bool scalar) {
        EngineOptions opts;
        opts.allocator = AllocatorKind::LazyChunk;
        opts.prefillChunkTokens = chunk_tokens;
        opts.chargePrefill = scalar;
        return ServingEngine(cluster, model, timed, opts).run();
    };

    auto scalar = run(0, true);       // unchunked scalar charge
    auto coarse = run(30000, false);  // one chunk per request
    auto fine = run(1024, false);     // fine-grained interleaving

    ASSERT_EQ(scalar.completedRequests, 32u);
    ASSERT_EQ(coarse.completedRequests, 32u);
    ASSERT_EQ(fine.completedRequests, 32u);

    // Chunking changes the layout of prefill in time, not its cost:
    // the charged total matches the scalar model within 1%.
    ASSERT_GT(scalar.prefillSeconds, 0.0);
    EXPECT_NEAR(coarse.prefillSeconds / scalar.prefillSeconds, 1.0, 0.01);
    EXPECT_NEAR(fine.prefillSeconds / scalar.prefillSeconds, 1.0, 0.01);

    // Decode tokens stall behind whole-context chunks; shrinking the
    // chunk lets decode FC slot between chunks and cuts the tail.
    ASSERT_GT(coarse.p95TokenGapSeconds, 0.0);
    EXPECT_LT(fine.p95TokenGapSeconds, 0.5 * coarse.p95TokenGapSeconds);
    EXPECT_LT(fine.avgTokenGapSeconds, coarse.avgTokenGapSeconds);
}

TEST(ChunkedPrefill, ServedFcIsThePlanLessWhatFusedSharesSaved)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 16; ++i)
        reqs.push_back({i, 20000, 16});
    PoissonProcess arrivals(2.0);
    auto timed = attachArrivals(reqs, arrivals, 7);

    auto run = [&](Tokens chunk_tokens) {
        EngineOptions opts;
        opts.allocator = AllocatorKind::LazyChunk;
        opts.prefillChunkTokens = chunk_tokens;
        opts.chargePrefill = chunk_tokens == 0;
        return ServingEngine(cluster, model, timed, opts).run();
    };
    auto plain = run(0);
    auto chunked = run(1024);
    ASSERT_EQ(plain.completedRequests, 16u);
    ASSERT_EQ(chunked.completedRequests, 16u);

    // Without chunks on the xPU nothing fuses, and the timelines
    // serve exactly the planned FC charge.
    EXPECT_EQ(plain.fusedFcShares, 0u);
    ASSERT_GT(plain.fcSeconds, 0.0);
    EXPECT_NEAR(plain.xpuFcBusySeconds, plain.fcSeconds,
                1e-12 * plain.fcSeconds);

    // With chunks, shares that launched with one were served at
    // their fused charge only; prefill is served in full.
    EXPECT_GT(chunked.fusedFcShares, 0u);
    EXPECT_LT(chunked.xpuFcBusySeconds, chunked.fcSeconds);
    double expected = chunked.prefillSeconds *
                      static_cast<double>(cluster.prefillEngines()) /
                      cluster.plan.tp;
    EXPECT_NEAR(chunked.xpuPrefillBusySeconds, expected, 1e-9 * expected);
}

TEST(ChunkedPrefill, ChunksPipelineAcrossPpStages)
{
    // On a PP=2 deployment a single whole-context chunk crosses the
    // two stages back to back (~2x the scalar prefill), while fine
    // chunks pipeline — chunk k+1 on stage 0 under chunk k on stage
    // 1 — and approach the scalar time. This is the chunked-prefill
    // speedup the NeuPIMs-like prefillEngines() model assumes.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{2, 2};
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs{{0, 32000, 4}};

    auto run = [&](Tokens chunk_tokens) {
        EngineOptions opts;
        opts.allocator = AllocatorKind::LazyChunk;
        opts.prefillChunkTokens = chunk_tokens;
        return ServingEngine(cluster, model, reqs, opts).run();
    };
    auto coarse = run(32000);
    auto fine = run(512);

    ASSERT_EQ(coarse.completedRequests, 1u);
    ASSERT_EQ(fine.completedRequests, 1u);
    ASSERT_GT(coarse.prefillSeconds, 0.0);
    EXPECT_DOUBLE_EQ(fine.prefillSeconds, coarse.prefillSeconds);
    // Coarse: both stages in series; fine: pipelined overlap.
    EXPECT_GT(coarse.avgFirstTokenSeconds,
              1.8 * coarse.prefillSeconds);
    EXPECT_LT(fine.avgFirstTokenSeconds, 1.2 * fine.prefillSeconds);
    EXPECT_GT(fine.avgFirstTokenSeconds, fine.prefillSeconds);
}

TEST(ChunkedPrefill, PimOnlyPrefillsOnPnmWithoutTouchingDecode)
{
    // In the PIM-only system prefill runs on the PNM engines; decode
    // never uses the xPU timeline, so chunked prefill must not slow
    // steady-state decode, only defer each request's first token. A
    // single request keeps the decode batch (and so the cycle time)
    // identical between the runs.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs{{0, 20000, 16}};

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    auto plain = ServingEngine(cluster, model, reqs, opts).run();
    opts.prefillChunkTokens = 4096;
    auto chunked = ServingEngine(cluster, model, reqs, opts).run();

    EXPECT_EQ(chunked.completedRequests, 1u);
    EXPECT_GT(chunked.prefillSeconds, 0.0);
    EXPECT_GT(chunked.avgFirstTokenSeconds, plain.avgFirstTokenSeconds);
    // Steady-state decode pace is untouched by PNM-side prefill, and
    // with no decode share on the PNM timeline nothing fuses.
    EXPECT_NEAR(chunked.avgTokenGapSeconds, plain.avgTokenGapSeconds,
                1e-9);
    EXPECT_EQ(chunked.fusedFcShares, 0u);
    EXPECT_EQ(chunked.xpuFcBusySeconds, 0.0);
}

} // namespace
} // namespace pimphony
