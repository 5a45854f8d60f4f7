/**
 * @file
 * Tests for the serving extensions: Poisson arrivals / open-loop
 * operation, request-latency reporting, and the prefill model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "system/engine.hh"
#include "system/prefill.hh"
#include "workload/arrival.hh"

namespace pimphony {
namespace {

std::vector<Request>
uniformRequests(std::size_t n, Tokens context, Tokens decode)
{
    std::vector<Request> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back({static_cast<RequestId>(i), context, decode});
    return out;
}

TEST(Arrivals, PoissonIsMonotoneAndRateAccurate)
{
    auto reqs = uniformRequests(20000, 1000, 8);
    PoissonProcess arrivals(50.0);
    auto timed = attachArrivals(reqs, arrivals, 7);
    ASSERT_EQ(timed.size(), reqs.size());
    double prev = 0.0;
    for (const auto &t : timed) {
        EXPECT_GE(t.arrivalSeconds, prev);
        prev = t.arrivalSeconds;
    }
    // 20000 arrivals at 50/s ~ 400 s +- a few percent.
    EXPECT_NEAR(timed.back().arrivalSeconds, 400.0, 400.0 * 0.05);
}

TEST(Arrivals, ImmediateIsClosedLoop)
{
    auto reqs = uniformRequests(5, 1000, 8);
    ImmediateProcess arrivals;
    for (const auto &t : attachArrivals(reqs, arrivals, 0))
        EXPECT_DOUBLE_EQ(t.arrivalSeconds, 0.0);
}

namespace {

/** Mean and CV of the inter-arrival gaps of @p timed. */
void
gapMoments(const std::vector<TimedRequest> &timed, double &mean,
           double &cv)
{
    double prev = 0.0, sum = 0.0, sum2 = 0.0;
    for (const auto &t : timed) {
        double gap = t.arrivalSeconds - prev;
        prev = t.arrivalSeconds;
        sum += gap;
        sum2 += gap * gap;
    }
    double n = static_cast<double>(timed.size());
    mean = sum / n;
    double var = sum2 / n - mean * mean;
    cv = var > 0.0 ? std::sqrt(var) / mean : 0.0;
}

} // namespace

TEST(Arrivals, GammaMatchesRateAndBurstiness)
{
    auto reqs = uniformRequests(20000, 1000, 8);
    GammaProcess arrivals(50.0, 2.5);
    auto timed = attachArrivals(reqs, arrivals, 7);
    ASSERT_EQ(timed.size(), reqs.size());
    double prev = 0.0;
    for (const auto &t : timed) {
        EXPECT_GE(t.arrivalSeconds, prev);
        prev = t.arrivalSeconds;
    }
    double mean, cv;
    gapMoments(timed, mean, cv);
    EXPECT_NEAR(mean, 1.0 / 50.0, 0.05 / 50.0);
    EXPECT_NEAR(cv, 2.5, 2.5 * 0.1); // CV > 1: burstier than Poisson
    EXPECT_GT(cv, 1.0);
}

TEST(Arrivals, OnOffProducesBurstsAndMatchesLongRunRate)
{
    auto reqs = uniformRequests(20000, 1000, 8);
    OnOffTraffic traffic;
    traffic.onRate = 100.0;
    traffic.offRate = 0.0;
    traffic.meanOnSeconds = 1.0;
    traffic.meanOffSeconds = 9.0;
    OnOffProcess arrivals(traffic);
    auto timed = attachArrivals(reqs, arrivals, 7);
    ASSERT_EQ(timed.size(), reqs.size());
    double prev = 0.0;
    for (const auto &t : timed) {
        EXPECT_GE(t.arrivalSeconds, prev);
        prev = t.arrivalSeconds;
    }
    // Long-run average: 100/s for 10% of the time ~ 10/s.
    double mean, cv;
    gapMoments(timed, mean, cv);
    EXPECT_NEAR(mean, 0.1, 0.1 * 0.15);
    // MMPP gaps are far burstier than the Poisson CV of 1: most gaps
    // are intra-burst (~10 ms), a few span silent periods (~9 s).
    EXPECT_GT(cv, 2.0);
    std::size_t inside = 0, across = 0;
    prev = 0.0;
    for (const auto &t : timed) {
        double gap = t.arrivalSeconds - prev;
        prev = t.arrivalSeconds;
        if (gap < 0.1)
            ++inside;
        else if (gap > 1.0)
            ++across;
    }
    EXPECT_GT(inside, timed.size() * 9 / 10);
    EXPECT_GT(across, 50u);
}

TEST(Arrivals, BurstyTracesServeEndToEnd)
{
    // The bursty generators must compose with the event engine: an
    // on/off trace admits in bursts and still completes everything.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    auto reqs = uniformRequests(16, 20000, 8);
    OnOffTraffic traffic;
    traffic.onRate = 50.0;
    traffic.meanOnSeconds = 0.5;
    traffic.meanOffSeconds = 2.0;
    OnOffProcess arrivals(traffic);
    auto timed = attachArrivals(reqs, arrivals, 3);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    auto r = ServingEngine(cluster, model, timed, opts).run();
    EXPECT_EQ(r.completedRequests, 16u);
    EXPECT_GE(r.p95RequestLatency, r.avgRequestLatency);
}

TEST(OpenLoop, EngineIdlesUntilArrivals)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    auto reqs = uniformRequests(4, 20000, 8);
    // Arrivals spaced far apart: total time is dominated by waiting.
    std::vector<TimedRequest> timed;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        timed.push_back({reqs[i], static_cast<double>(i) * 10.0});

    applyOptions(cluster, PimphonyOptions::all());
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    ServingEngine engine(cluster, model, timed, opts);
    auto r = engine.run();
    EXPECT_EQ(r.completedRequests, 4u);
    EXPECT_GE(r.simulatedSeconds, 30.0); // waited for the last arrival
    // Each request's latency is its own decode, not the whole span.
    EXPECT_LT(r.avgRequestLatency, 5.0);
}

TEST(OpenLoop, LatencyPercentilesOrdered)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    auto reqs = uniformRequests(24, 30000, 16);
    PoissonProcess arrivals(100.0);
    auto timed = attachArrivals(reqs, arrivals, 11);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    ServingEngine engine(cluster, model, timed, opts);
    auto r = engine.run();
    EXPECT_EQ(r.completedRequests, 24u);
    EXPECT_GT(r.avgRequestLatency, 0.0);
    EXPECT_GE(r.p95RequestLatency, r.avgRequestLatency);
}

TEST(Prefill, FlopsQuadraticInContext)
{
    auto model = LlmConfig::llm7b(false);
    double f1 = prefillFlops(model, 10000);
    double f2 = prefillFlops(model, 20000);
    // Superlinear growth from the attention term.
    EXPECT_GT(f2, 2.0 * f1);
    EXPECT_LT(f2, 4.5 * f1);
}

TEST(Prefill, NpuMuchFasterThanPnm)
{
    auto model = LlmConfig::llm7b(false);
    double npu = prefillSeconds(model, 60000, XpuConfig::neupimsNpu(), 4);
    double pnm = prefillSeconds(model, 60000, XpuConfig::centPnm(), 8);
    EXPECT_GT(pnm, 10.0 * npu); // 256 vs 3 TFLOPS per engine
    EXPECT_EQ(prefillSeconds(model, 0, XpuConfig::centPnm(), 8), 0.0);
}

TEST(Prefill, ChargedWhenRequested)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    auto reqs = uniformRequests(4, 40000, 8);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;

    ServingEngine without(cluster, model, reqs, opts);
    auto r0 = without.run();
    EXPECT_DOUBLE_EQ(r0.prefillSeconds, 0.0);

    opts.chargePrefill = true;
    ServingEngine with(cluster, model, reqs, opts);
    auto r1 = with.run();
    EXPECT_GT(r1.prefillSeconds, 0.0);
    EXPECT_GT(r1.simulatedSeconds, r0.simulatedSeconds);
    EXPECT_LT(r1.tokensPerSecond, r0.tokensPerSecond);
}

TEST(OpenLoop, PreemptedRequestKeepsArrivalTime)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    cluster.nModules = 2;
    cluster.plan = ParallelPlan{2, 1};
    applyOptions(cluster, PimphonyOptions::all());

    Bytes usable = cluster.usableKvBytes(model);
    Tokens per_req = usable / model.kvBytesPerToken() / 2;
    auto reqs = uniformRequests(2, per_req - 8, 1024);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    ServingEngine engine(cluster, model, reqs, opts);
    auto r = engine.run();
    // Both eventually finish (possibly after preemption) and their
    // latencies span the full serialized execution.
    EXPECT_EQ(r.completedRequests + r.rejectedRequests, 2u);
    if (r.completedRequests == 2) {
        EXPECT_GT(r.p95RequestLatency, r.avgRequestLatency * 0.99);
    }
}

} // namespace
} // namespace pimphony
