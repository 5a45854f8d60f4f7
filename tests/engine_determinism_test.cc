/**
 * @file
 * Determinism anchors for the serving engine across the PR 4 hot-path
 * overhaul (allocation-free event core, memoized device models,
 * streaming SLO percentile, nth_element summaries).
 *
 * Two layers of protection:
 *
 *  - Golden metrics: seeded configurations pinned to the values the
 *    pre-overhaul engine produced (captured at hex-float precision).
 *    Every simulated quantity — event times, percentiles,
 *    throughput, policy counters — must match to double precision;
 *    the three avg* summary means are pinned to 1e-12 relative
 *    because finalizeResult now sums samples in production order
 *    instead of ascending order (same samples, same count; only the
 *    last-ulp rounding of the sum differs).
 *
 *  - Run-to-run: the same engine object graph run twice in one
 *    process must be bit-identical in every field, which is what the
 *    CI determinism job also checks across processes.
 *
 * It also pins the per-request tables (RequestTimes): sealing puts
 * them in id order, and a preempted restart keeps its first TTFT.
 */

#include <gtest/gtest.h>

#include <vector>

#include "result_eq.hh"
#include "system/engine.hh"
#include "system/sched_policy.hh"
#include "workload/arrival.hh"

namespace pimphony {
namespace {

EngineResult
runConfigA()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 64; ++i)
        reqs.push_back({i, (i % 4 == 0) ? Tokens(30000) : Tokens(2000),
                        24});
    GammaProcess arrivals(4.0, 3.0);
    auto timed = attachArrivals(reqs, arrivals, 17);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    return ServingEngine(cluster, model, timed, opts).run();
}

EngineResult
runConfigB()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, 20000, 16});
    PoissonProcess arrivals(2.0);
    auto timed = attachArrivals(reqs, arrivals, 7);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 1024;
    opts.sched.kind = SchedPolicyKind::SloAdmission;
    return ServingEngine(cluster, model, timed, opts).run();
}

EngineResult
runConfigD()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 16; ++i)
        reqs.push_back({i, 30000, 12});
    PoissonProcess arrivals(1.5);
    auto timed = attachArrivals(reqs, arrivals, 17);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.sched.kind = SchedPolicyKind::TierPriority;
    return ServingEngine(cluster, model, timed, opts).run();
}

/** avg* fields: pinned to relative 1e-12 (summation-order change). */
void
expectAvgNear(double actual, double golden)
{
    EXPECT_NEAR(actual, golden, 1e-12 * std::abs(golden) + 1e-300);
}

TEST(EngineGolden, EventDrivenPp4FifoChunked)
{
    auto r = runConfigA();
    EXPECT_DOUBLE_EQ(r.tokensPerSecond, 0x1.0c1cb02de0158p+6);
    EXPECT_DOUBLE_EQ(r.simulatedSeconds, 0x1.6ea7146ff20c6p+4);
    EXPECT_EQ(r.generatedTokens, 1536u);
    EXPECT_EQ(r.completedRequests, 64u);
    EXPECT_DOUBLE_EQ(r.avgEffectiveBatch, 0x1.d499bc0588436p+2);
    EXPECT_DOUBLE_EQ(r.macUtilization, 0x1.036f14ad1d70ep-3);
    EXPECT_DOUBLE_EQ(r.capacityUtilization, 0x1.07fa4d67ec2ffp-3);
    EXPECT_DOUBLE_EQ(r.attentionSeconds, 0x1.8e79c4abdad44p+1);
    EXPECT_DOUBLE_EQ(r.fcSeconds, 0x1.9d5033f575328p+2);
    EXPECT_DOUBLE_EQ(r.prefillSeconds, 0x1.ab40b5fda861dp+3);
    EXPECT_DOUBLE_EQ(r.p95RequestLatency, 0x1.95488436e5decp+2);
    EXPECT_DOUBLE_EQ(r.p95FirstTokenSeconds, 0x1.2359c6bad49cap+2);
    EXPECT_DOUBLE_EQ(r.p95TokenGapSeconds, 0x1.f69829da5274p-3);
    EXPECT_DOUBLE_EQ(r.maxDecodeXpuWaitSeconds, 0x1.12e0be826d6ap-4);
    EXPECT_DOUBLE_EQ(r.xpuPrefillBusySeconds, 0x1.ab40b5fda8616p+5);
    expectAvgNear(r.avgRequestLatency, 0x1.2c9c10030296ep+2);
    expectAvgNear(r.avgFirstTokenSeconds, 0x1.223963450d53ep+1);
    expectAvgNear(r.avgTokenGapSeconds, 0x1.b0b05486e98dcp-4);
    EXPECT_EQ(r.preemptions, 0u);
    EXPECT_EQ(r.rejectedRequests, 0u);
    EXPECT_EQ(r.sloDeferrals, 0u);
    EXPECT_EQ(r.chunkSlices, 0u);
    EXPECT_EQ(r.decodeOvertakes, 0u);
}

TEST(EngineGolden, EventDrivenPp2SloAdmission)
{
    auto r = runConfigB();
    EXPECT_DOUBLE_EQ(r.tokensPerSecond, 0x1.c6221449dc69bp+4);
    EXPECT_DOUBLE_EQ(r.simulatedSeconds, 0x1.209ec681ab226p+4);
    EXPECT_EQ(r.generatedTokens, 512u);
    EXPECT_EQ(r.completedRequests, 32u);
    EXPECT_DOUBLE_EQ(r.p95RequestLatency, 0x1.010adfd71d5abp+2);
    EXPECT_DOUBLE_EQ(r.p95FirstTokenSeconds, 0x1.c3631c3786a6ap+1);
    EXPECT_DOUBLE_EQ(r.p95TokenGapSeconds, 0x1.512dfc2724ap-5);
    EXPECT_DOUBLE_EQ(r.prefillSeconds, 0x1.b7c5d48b072fep+3);
    EXPECT_DOUBLE_EQ(r.xpuPrefillBusySeconds, 0x1.b7c5d48b07306p+4);
    expectAvgNear(r.avgTokenGapSeconds, 0x1.92359e11e0dacp-6);
    // The SLO gate's deferral count is the sharpest witness that the
    // streaming windowed p95 reproduces the copy+sort signal: one
    // different percentile read would shift admissions.
    EXPECT_EQ(r.sloDeferrals, 315u);
}

TEST(EngineGolden, EventDrivenTierPriority)
{
    // Every item of this single-class trace is tier 0, so
    // tier-priority runs decode first and slices chunks at the
    // quantum.
    auto r = runConfigD();
    EXPECT_DOUBLE_EQ(r.tokensPerSecond, 0x1.ac69c8d7c69eep+3);
    EXPECT_DOUBLE_EQ(r.simulatedSeconds, 0x1.caebe19eb91a8p+3);
    EXPECT_EQ(r.generatedTokens, 192u);
    EXPECT_EQ(r.completedRequests, 16u);
    EXPECT_DOUBLE_EQ(r.p95TokenGapSeconds, 0x1.4d61d3e51d8p-8);
    EXPECT_DOUBLE_EQ(r.maxDecodeXpuWaitSeconds, 0x1.0624dd2f1bp-9);
    EXPECT_DOUBLE_EQ(r.xpuPrefillBusySeconds, 0x1.7afb48e11a616p+3);
    // Quantum-slicing counters: preemption accounting is exact.
    EXPECT_EQ(r.chunkSlices, 5808u);
    EXPECT_EQ(r.decodeOvertakes, 168u);
}

TEST(EngineGolden, PreemptedRestartKeepsItsFirstTtft)
{
    // A KV budget of 5,600 tokens over two modules, and three
    // requests that each grow to 3,000 tokens: two are preempted
    // mid-decode, after emitting tokens, and restart. Each request
    // records one TTFT, its first; a restart records none.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    cluster.nModules = 2;
    cluster.plan = ParallelPlan{2, 1};
    Bytes kv_budget = model.kvBytesPerToken() * 5600;
    cluster.module.capacityBytes =
        (kv_budget + model.weightBytes()) / cluster.nModules + 1;
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<TimedRequest> trace;
    for (RequestId i = 0; i < 6; ++i)
        trace.push_back({Request(i, 1000, i % 2 == 0 ? 2000 : 64),
                         0.01 * static_cast<double>(i)});
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    auto r = ServingEngine(cluster, model, trace, opts).run();

    EXPECT_EQ(r.preemptions, 2u);
    EXPECT_EQ(r.recomputedTokens, 3168u);
    EXPECT_EQ(r.completedRequests, trace.size());
    EXPECT_EQ(r.firstTokenLatency.size(), trace.size());
    EXPECT_EQ(r.firstTokenLatency.size(), r.firstTokenRuns.count());
    // Pinned when TTFTs were kept in a hash map keyed by request id
    // (first emplace wins); a restart's TTFT would move it.
    EXPECT_EQ(r.avgFirstTokenSeconds, 0x1.25897b6957de1p+3);
    double sum = 0.0;
    for (RequestId i = 0; i < 6; ++i)
        sum += timeOf(r.firstTokenLatency, i);
    EXPECT_DOUBLE_EQ(r.avgFirstTokenSeconds, sum / 6.0);
}

TEST(RequestTimes, SealOrdersOutOfOrderAppendsById)
{
    RequestTimes t;
    t.add(7, 0.7);
    t.add(2, 0.2);
    t.add(9, 0.9);
    t.add(4, 0.4);
    t.seal("completed");
    std::vector<RequestId> ids;
    for (const auto &kv : t)
        ids.push_back(kv.first);
    EXPECT_EQ(ids, (std::vector<RequestId>{2, 4, 7, 9}));
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(timeOf(t, 7), 0.7);
    EXPECT_EQ(t.count(4), 1u);
    for (RequestId absent : {0u, 3u, 8u, 10u}) {
        EXPECT_EQ(t.find(absent), t.end()) << absent;
        EXPECT_EQ(t.count(absent), 0u) << absent;
    }
    RequestTimes empty;
    empty.seal("completed");
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.find(0), empty.end());
}

TEST(RequestTimesDeathTest, DuplicateCompletionPanicsNamingTheId)
{
    RequestTimes t;
    t.add(11, 1.0);
    t.add(4, 2.0);
    t.add(11, 3.0);
    EXPECT_DEATH(t.seal("completed"), "request 11 completed twice");
}

TEST(EngineDeterminism, RepeatedRunsAreBitIdentical)
{
    for (int cfg = 0; cfg < 3; ++cfg) {
        EngineResult a, b;
        switch (cfg) {
          case 0: a = runConfigA(); b = runConfigA(); break;
          case 1: a = runConfigB(); b = runConfigB(); break;
          default: a = runConfigD(); b = runConfigD(); break;
        }
        EXPECT_EQ(a.tokensPerSecond, b.tokensPerSecond) << cfg;
        EXPECT_EQ(a.simulatedSeconds, b.simulatedSeconds) << cfg;
        EXPECT_EQ(a.generatedTokens, b.generatedTokens) << cfg;
        EXPECT_EQ(a.completedRequests, b.completedRequests) << cfg;
        EXPECT_EQ(a.avgEffectiveBatch, b.avgEffectiveBatch) << cfg;
        EXPECT_EQ(a.macUtilization, b.macUtilization) << cfg;
        EXPECT_EQ(a.capacityUtilization, b.capacityUtilization) << cfg;
        EXPECT_EQ(a.attentionSeconds, b.attentionSeconds) << cfg;
        EXPECT_EQ(a.fcSeconds, b.fcSeconds) << cfg;
        EXPECT_EQ(a.prefillSeconds, b.prefillSeconds) << cfg;
        EXPECT_EQ(a.avgRequestLatency, b.avgRequestLatency) << cfg;
        EXPECT_EQ(a.p95RequestLatency, b.p95RequestLatency) << cfg;
        EXPECT_EQ(a.avgFirstTokenSeconds, b.avgFirstTokenSeconds) << cfg;
        EXPECT_EQ(a.p95FirstTokenSeconds, b.p95FirstTokenSeconds) << cfg;
        EXPECT_EQ(a.avgTokenGapSeconds, b.avgTokenGapSeconds) << cfg;
        EXPECT_EQ(a.p95TokenGapSeconds, b.p95TokenGapSeconds) << cfg;
        EXPECT_EQ(a.sloDeferrals, b.sloDeferrals) << cfg;
        EXPECT_EQ(a.chunkSlices, b.chunkSlices) << cfg;
        EXPECT_EQ(a.decodeOvertakes, b.decodeOvertakes) << cfg;
        EXPECT_EQ(a.maxDecodeXpuWaitSeconds, b.maxDecodeXpuWaitSeconds)
            << cfg;
        EXPECT_EQ(a.xpuPrefillBusySeconds, b.xpuPrefillBusySeconds)
            << cfg;
        EXPECT_EQ(a.simEvents, b.simEvents) << cfg;
        EXPECT_EQ(a.preemptions, b.preemptions) << cfg;
        EXPECT_EQ(a.rejectedRequests, b.rejectedRequests) << cfg;
    }
}

} // namespace
} // namespace pimphony
