/**
 * @file
 * Golden pins of the engine's admission path: the per-tier SLO gate,
 * the tenant ledger and the fractional prefix charge.
 *
 * EngineGolden (engine_determinism_test) pins only the single-class
 * gate. These two runs cover what it does not:
 *
 *  - ClassedBudgetedSloChunked: two tiers with their own gap targets,
 *    two budgeted tenants, SloAdmission and chunked prefill over a
 *    backlog, plus one request too long for the context window. The
 *    per-tier gate defers, the ledger denies borrowers, and the
 *    rejection path runs.
 *  - PrefixCacheBudgeted: declared shared prefixes with the prefix
 *    cache on and two budgeted tenants, so warm admissions reserve
 *    and refund fractional tenant charges.
 *
 * The values were recorded before admission moved out of the engine
 * and re-pinned when prefills became first-come-first-served and when
 * decode FC shares began launching with prefill chunks; they must not
 * change otherwise: latencies at hex-float precision, counts exactly.
 */

#include <gtest/gtest.h>

#include <vector>

#include "system/engine.hh"
#include "system/sched_policy.hh"
#include "workload/request_class.hh"
#include "workload/spec.hh"

namespace pimphony {
namespace {

ClusterConfig
goldenCluster(const LlmConfig &model)
{
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());
    return cluster;
}

EngineResult
runClassedBudgetedSloChunked()
{
    auto model = LlmConfig::llm7b(true);
    WorkloadSpec spec;
    spec.count = 160;
    spec.length.kind = LengthSourceKind::Histogram;
    spec.length.histogram.add(30000, 24, 1.0);
    spec.length.histogram.add(2000, 24, 3.0);
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 40.0;
    // Request i is tier i % 2 and tenant (i / 2) % 2.
    for (unsigned i = 0; i < 4; ++i) {
        RequestClass cls;
        cls.tier = i % 2;
        cls.gapSloSeconds = cls.tier == 0 ? 50e-3 : 500e-3;
        cls.tenant = (i / 2) % 2;
        spec.classes.push_back(cls);
    }
    auto built = buildWorkload(spec, 3);
    // Longer than the context window: rejected at admission.
    built.initial[5].request.contextTokens = 2 * model.contextWindow;

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.sched.kind = SchedPolicyKind::SloAdmission;
    opts.tenantBudgets = {{0, 0.5}, {1, 0.5}};
    ServingEngine engine(goldenCluster(model), model, built.initial, opts);
    return engine.run();
}

EngineResult
runPrefixCacheBudgeted()
{
    auto model = LlmConfig::llm7b(true);
    WorkloadSpec spec;
    spec.count = 96;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{6000, 24}, {12000, 24}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 12.0;
    spec.prefix.share = 0.75;
    spec.prefix.pool = 2;
    spec.prefix.tokens = 4096;
    RequestClass a;
    a.tenant = 0;
    RequestClass b;
    b.tenant = 1;
    spec.classes = {a, b};
    auto built = buildWorkload(spec, 5);

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.prefixCache.enabled = true;
    opts.tenantBudgets = {{0, 0.3}, {1, 0.3}};
    ServingEngine engine(goldenCluster(model), model, built.initial, opts);
    return engine.run();
}

TEST(AdmissionGolden, ClassedBudgetedSloChunked)
{
    auto r = runClassedBudgetedSloChunked();
    EXPECT_EQ(r.completedRequests, 159u);
    EXPECT_EQ(r.rejectedRequests, 1u);
    EXPECT_EQ(r.preemptions, 0u);
    EXPECT_EQ(r.generatedTokens, 3816u);
    EXPECT_EQ(r.simEvents, 9292u);
    EXPECT_EQ(r.sloDeferrals, 583u);
    EXPECT_EQ(r.budgetDeferrals, 46u);
    EXPECT_EQ(r.simulatedSeconds, 0x1.236c34290fc5cp+5);
    EXPECT_EQ(r.avgRequestLatency, 0x1.315cdb64f893ap+4);
    EXPECT_EQ(r.p95RequestLatency, 0x1.07e89dedc7c45p+5);
    EXPECT_EQ(r.avgFirstTokenSeconds, 0x1.d798fcdc9f5e6p+3);
    EXPECT_EQ(r.p95FirstTokenSeconds, 0x1.001a2b3f3c944p+5);
    EXPECT_EQ(r.avgTokenGapSeconds, 0x1.832369893c9bp-3);
    EXPECT_EQ(r.p95TokenGapSeconds, 0x1.016ec7568c0ep-2);
    EXPECT_EQ(r.prefillSeconds, 0x1.0ac8152d0dd52p+5);

    ASSERT_EQ(r.classLatencies.size(), 2u);
    const auto &t0 = r.classLatencies[0];
    EXPECT_EQ(t0.gapSloTargetSeconds, 50e-3);
    EXPECT_EQ(t0.requests, 80u);
    EXPECT_EQ(t0.completedRequests, 80u);
    EXPECT_EQ(t0.p95FirstTokenSeconds, 0x1.c54ad1272ff62p+4);
    EXPECT_EQ(t0.p95TokenGapSeconds, 0x1.fc0d5e2df1f8p-3);
    const auto &t1 = r.classLatencies[1];
    EXPECT_EQ(t1.gapSloTargetSeconds, 500e-3);
    EXPECT_EQ(t1.requests, 80u);
    EXPECT_EQ(t1.completedRequests, 79u);
    EXPECT_EQ(t1.p95FirstTokenSeconds, 0x1.041d810f1830ep+5);
    EXPECT_EQ(t1.p95TokenGapSeconds, 0x1.04804f9de338p-2);

    ASSERT_EQ(r.tenantOccupancy.size(), 2u);
    const auto &a = r.tenantOccupancy[0];
    EXPECT_EQ(a.budgetShare, 0.5);
    EXPECT_EQ(a.avgTokenShare, 0x1.dafbd56991c0cp-3);
    EXPECT_EQ(a.peakTokenShare, 0x1.fep-2);
    EXPECT_EQ(a.admittedRequests, 79u);
    EXPECT_EQ(a.budgetDeferrals, 22u);
    const auto &b = r.tenantOccupancy[1];
    EXPECT_EQ(b.budgetShare, 0.5);
    EXPECT_EQ(b.avgTokenShare, 0x1.1cfcdc42d0196p-2);
    EXPECT_EQ(b.peakTokenShare, 0x1.fep-2);
    EXPECT_EQ(b.admittedRequests, 80u);
    EXPECT_EQ(b.budgetDeferrals, 24u);
}

TEST(AdmissionGolden, PrefixCacheBudgeted)
{
    auto r = runPrefixCacheBudgeted();
    EXPECT_EQ(r.completedRequests, 96u);
    EXPECT_EQ(r.rejectedRequests, 0u);
    EXPECT_EQ(r.preemptions, 0u);
    EXPECT_EQ(r.generatedTokens, 2304u);
    EXPECT_EQ(r.simEvents, 4552u);
    EXPECT_EQ(r.sloDeferrals, 0u);
    EXPECT_EQ(r.budgetDeferrals, 5u);
    EXPECT_EQ(r.prefixHits, 67u);
    EXPECT_EQ(r.prefixMisses, 5u);
    EXPECT_EQ(r.prefixEvictions, 0u);
    EXPECT_EQ(r.prefixCachedTokens, 274432u);
    EXPECT_EQ(r.simulatedSeconds, 0x1.97cc0f01779c5p+3);
    EXPECT_EQ(r.avgRequestLatency, 0x1.747d733a52a0cp+2);
    EXPECT_EQ(r.p95RequestLatency, 0x1.c73a8682c214bp+2);
    EXPECT_EQ(r.avgFirstTokenSeconds, 0x1.702d3d59212c8p+1);
    EXPECT_EQ(r.p95FirstTokenSeconds, 0x1.21ac5cd2ead67p+2);
    EXPECT_EQ(r.avgTokenGapSeconds, 0x1.061fc38d93881p-3);
    EXPECT_EQ(r.p95TokenGapSeconds, 0x1.60a99f0e4018p-3);
    EXPECT_EQ(r.savedPrefillSeconds, 0x1.1fc347708a8a6p+2);
    EXPECT_EQ(r.prefillSeconds, 0x1.695696f6b83f5p+3);

    // The warm admissions' fractional charges drive these shares.
    ASSERT_EQ(r.tenantOccupancy.size(), 2u);
    const auto &a = r.tenantOccupancy[0];
    EXPECT_EQ(a.budgetShare, 0.3);
    EXPECT_EQ(a.avgTokenShare, 0x1.4db7d0032decap-4);
    EXPECT_EQ(a.peakTokenShare, 0x1.d1482c2787bdbp-4);
    EXPECT_EQ(a.admittedRequests, 48u);
    EXPECT_EQ(a.budgetDeferrals, 0u);
    const auto &b = r.tenantOccupancy[1];
    EXPECT_EQ(b.budgetShare, 0.3);
    EXPECT_EQ(b.avgTokenShare, 0x1.b58278aea35ccp-3);
    EXPECT_EQ(b.peakTokenShare, 0x1.3e8d053f595e9p-2);
    EXPECT_EQ(b.admittedRequests, 48u);
    EXPECT_EQ(b.budgetDeferrals, 5u);
}

} // namespace
} // namespace pimphony
