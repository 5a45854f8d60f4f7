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
 */

#include <gtest/gtest.h>

#include <vector>

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
    auto timed = gammaArrivals(reqs, 4.0, 3.0, 17);
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
    auto timed = poissonArrivals(reqs, 2.0, 7);
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
    auto timed = poissonArrivals(reqs, 1.5, 17);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.sched.kind = SchedPolicyKind::ChunkPreempt;
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
    EXPECT_DOUBLE_EQ(r.tokensPerSecond, 0x1.0dc2950e6faffp+6);
    EXPECT_DOUBLE_EQ(r.simulatedSeconds, 0x1.6c69a64fde9b9p+4);
    EXPECT_EQ(r.generatedTokens, 1536u);
    EXPECT_EQ(r.completedRequests, 64u);
    EXPECT_DOUBLE_EQ(r.avgEffectiveBatch, 0x1.293396f5d0b5bp+3);
    EXPECT_DOUBLE_EQ(r.macUtilization, 0x1.3e78189cc649ap-3);
    EXPECT_DOUBLE_EQ(r.capacityUtilization, 0x1.06d349531cda7p-3);
    EXPECT_DOUBLE_EQ(r.attentionSeconds, 0x1.8e79c4abdad46p+1);
    EXPECT_DOUBLE_EQ(r.fcSeconds, 0x1.62d540ad09928p+2);
    EXPECT_DOUBLE_EQ(r.prefillSeconds, 0x1.ab40b5fda861dp+3);
    EXPECT_DOUBLE_EQ(r.p95RequestLatency, 0x1.9cee1d2c9a9bp+2);
    EXPECT_DOUBLE_EQ(r.p95FirstTokenSeconds, 0x1.4c6cd1a96e2ccp+2);
    EXPECT_DOUBLE_EQ(r.p95TokenGapSeconds, 0x1.f8ad03a9d52a8p-2);
    EXPECT_DOUBLE_EQ(r.maxDecodeXpuWaitSeconds, 0x1.8946b705d2885p-2);
    EXPECT_DOUBLE_EQ(r.xpuPrefillBusySeconds, 0x1.ab40b5fda8616p+5);
    expectAvgNear(r.avgRequestLatency, 0x1.289a62b4d8264p+2);
    expectAvgNear(r.avgFirstTokenSeconds, 0x1.a3b100f0cefa1p+0);
    expectAvgNear(r.avgTokenGapSeconds, 0x1.0aaf7ddf8090cp-3);
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
    EXPECT_DOUBLE_EQ(r.p95RequestLatency, 0x1.6b67d7357f448p+2);
    EXPECT_DOUBLE_EQ(r.p95FirstTokenSeconds, 0x1.292e0105d1166p+2);
    EXPECT_DOUBLE_EQ(r.p95TokenGapSeconds, 0x1.fe72c208383cp-4);
    EXPECT_DOUBLE_EQ(r.prefillSeconds, 0x1.b7c5d48b072fep+3);
    EXPECT_DOUBLE_EQ(r.xpuPrefillBusySeconds, 0x1.b7c5d48b07303p+4);
    expectAvgNear(r.avgTokenGapSeconds, 0x1.1f3e419584d91p-5);
    // The SLO gate's deferral count is the sharpest witness that the
    // streaming windowed p95 reproduces the copy+sort signal: one
    // different percentile read would shift admissions.
    EXPECT_EQ(r.sloDeferrals, 73u);
}

TEST(EngineGolden, EventDrivenChunkPreempt)
{
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
