/**
 * @file
 * Tests for the request-class subsystem: per-request latency tiers,
 * tier-aware arbitration with decode-side preemption, per-class SLO
 * admission, and per-tenant admission budgets.
 *
 * The acceptance properties:
 *  (a) under an on/off burst with two tiers, tier-0's p95 decode gap
 *      is no worse than tier-1's and no worse than a single-class
 *      FIFO run of the same trace;
 *  (b) decode-side preemption conserves each sliced item's charge
 *      within 1% (it reuses the QueuedDevice slice machinery);
 *  (c) with per-tenant budgets a saturating tenant cannot push an
 *      active tenant's admitted-token share below its budget, while
 *      an idle tenant's share is borrowable (work conserving);
 *  (d) the subsystem is strictly additive: with every request in the
 *      default class and no budgets, the engine's metrics are
 *      bit-identical to a run without classes (the PR 4 goldens in
 *      tests/engine_determinism_test.cc pin the same property
 *      against the recorded history).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/orchestrator.hh"
#include "sim/device.hh"
#include "sim/event_queue.hh"
#include "system/engine.hh"
#include "system/sched_policy.hh"
#include "workload/arrival.hh"
#include "workload/request_class.hh"
#include "workload/trace.hh"

namespace pimphony {
namespace {

// --- Class plumbing. ---------------------------------------------------

TEST(RequestClass, DefaultsAndAssignment)
{
    RequestClass def;
    EXPECT_TRUE(def.isDefault());
    RequestClass tiered;
    tiered.tier = 1;
    EXPECT_FALSE(tiered.isDefault());
    RequestClass tenanted;
    tenanted.tenant = 3;
    EXPECT_FALSE(tenanted.isDefault());
    EXPECT_NE(tiered, tenanted);
    EXPECT_EQ(tiered, tiered);
    EXPECT_FALSE(requestClassLabel(tiered).empty());

    std::vector<Request> reqs;
    for (RequestId i = 0; i < 6; ++i)
        reqs.push_back({i, 1000, 16});
    for (const auto &r : reqs)
        EXPECT_TRUE(r.cls.isDefault());

    assignRequestClass(reqs, tiered);
    for (const auto &r : reqs)
        EXPECT_EQ(r.cls, tiered);

    RequestClass interactive;
    interactive.tier = 0;
    interactive.gapSloSeconds = 0.05;
    RequestClass batch;
    batch.tier = 1;
    batch.tenant = 1;
    assignRequestClassesRoundRobin(reqs, {interactive, batch});
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(reqs[i].cls, i % 2 ? batch : interactive) << i;

    // Generators stamp their configured class on every request.
    TraceGenerator gen(TraceTask::QMSum, 7);
    gen.setRequestClass(batch);
    for (const auto &r : gen.generate(8))
        EXPECT_EQ(r.cls, batch);
}

TEST(TierPolicy, PlumbingAndBands)
{
    SchedPolicyKind parsed = SchedPolicyKind::Fifo;
    ASSERT_TRUE(parseSchedPolicy("tier-priority", parsed));
    EXPECT_EQ(parsed, SchedPolicyKind::TierPriority);
    EXPECT_EQ(allSchedPolicies().back(), SchedPolicyKind::TierPriority);

    SchedPolicyConfig cfg;
    cfg.kind = SchedPolicyKind::TierPriority;
    cfg.preemptQuantumSeconds = 1e-3;
    cfg.tierPreemptQuantumSeconds = 2e-3;
    auto policy = makeSchedPolicy(cfg);
    ASSERT_NE(policy, nullptr);
    EXPECT_TRUE(policy->reordersXpu());
    EXPECT_FALSE(policy->needsGapSignal());

    // Band order: (tier, kind) ascending with decode before chunks
    // inside one tier; FIFO inside a band.
    auto decode = [](std::uint32_t tier) {
        sim::WorkItem w;
        w.seconds = 1.0;
        w.tier = tier;
        return w;
    };
    auto chunk = [](std::uint32_t tier) {
        sim::WorkItem w;
        w.kind = sim::WorkItem::Kind::PrefillChunk;
        w.seconds = 1.0;
        w.tier = tier;
        return w;
    };
    sim::WorkItem d0 = decode(0), d1 = decode(1);
    sim::WorkItem c0 = chunk(0), c1 = chunk(1);
    sim::WorkItem d0b = decode(0);
    // Tier-0 decode beats everything, including a tier-0 chunk
    // queued earlier.
    EXPECT_EQ(policy->pickNext({&c0, &d1, &d0}), 2u);
    // Tier-0 chunk beats tier-1 decode (strict bands).
    EXPECT_EQ(policy->pickNext({&d1, &c0}), 1u);
    // FIFO inside a band.
    EXPECT_EQ(policy->pickNext({&d0, &d0b}), 0u);
    EXPECT_EQ(policy->pickNext({&c1, &d1}), 1u);

    // Slicing: chunks at the chunk quantum, lower-tier decode at the
    // tier quantum, tier-0 decode never.
    EXPECT_DOUBLE_EQ(policy->sliceSeconds(c0), 1e-3);
    EXPECT_DOUBLE_EQ(policy->sliceSeconds(c1), 1e-3);
    EXPECT_DOUBLE_EQ(policy->sliceSeconds(d1), 2e-3);
    EXPECT_DOUBLE_EQ(policy->sliceSeconds(d0), 0.0);
}

// --- (b) Decode-side preemption: bounded inversion, exact charge. ------

/** Captures the completed WorkItem to observe preemption metadata. */
class CapturingDevice : public sim::QueuedDevice
{
  public:
    using sim::QueuedDevice::QueuedDevice;
    sim::WorkItem lastDecode;

  protected:
    void
    onComplete(const sim::WorkItem &item, double) override
    {
        if (item.kind == sim::WorkItem::Kind::DecodeCycle)
            lastDecode = item;
    }
};

TEST(TierPolicy, DecodePreemptionBoundsInversionAndConservesCharge)
{
    SchedPolicyConfig cfg;
    cfg.kind = SchedPolicyKind::TierPriority;
    cfg.tierPreemptQuantumSeconds = 0.5;
    TierPriorityPolicy policy(cfg);
    sim::EventQueue q;
    CapturingDevice dev("d", &policy);

    // A long tier-1 decode item is in service when a tier-0 decode
    // item arrives: the tier-0 item starts within one tier quantum
    // (the configured inversion bound), and the sliced tier-1 item
    // still receives its full charge.
    sim::WorkItem low;
    low.seconds = 10.0;
    low.tier = 1;
    double low_done = -1.0, high_done = -1.0;
    dev.submit(q, low, 0.0, [&](double t) { low_done = t; });
    q.schedule(0.2, [&](double) {
        sim::WorkItem high;
        high.seconds = 0.3;
        high.tier = 0;
        dev.submit(q, high, 0.2, [&](double t) { high_done = t; });
    });
    q.runAll();

    // low slices [0,0.5]; high waits 0.3 <= tier quantum and runs
    // [0.5,0.8]; low's remaining 9.5 s resume [0.8,10.3].
    EXPECT_DOUBLE_EQ(high_done, 0.8);
    EXPECT_DOUBLE_EQ(low_done, 10.3);
    EXPECT_GT(dev.decodePreemptionSlices(), 0u);
    EXPECT_EQ(dev.tierInversions(), 1u);
    EXPECT_LE(dev.maxTierInversionWaitSeconds(),
              cfg.tierPreemptQuantumSeconds + 1e-12);

    // Charge conservation within 1% (acceptance (b)); the slice
    // arithmetic is exact, so this holds to double precision.
    EXPECT_NEAR(dev.lastDecode.servedSeconds, 10.0, 0.01 * 10.0);
    EXPECT_NEAR(dev.lastDecode.servedSeconds, 10.0, 1e-9);
    EXPECT_GT(dev.lastDecode.slices, 1u);
    EXPECT_DOUBLE_EQ(dev.busySeconds(), 10.3);

    // Tier-0 decode is never sliced.
    EXPECT_EQ(dev.lastDecode.tier, 1u);
}

// --- Engine-level fixtures. --------------------------------------------

EngineResult
runEngine(const ClusterConfig &cluster, const LlmConfig &model,
          const std::vector<TimedRequest> &timed, Tokens chunk,
          const SchedPolicyConfig &sched,
          const std::vector<TenantBudget> &budgets = {})
{
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = chunk;
    opts.sched = sched;
    opts.tenantBudgets = budgets;
    return ServingEngine(cluster, model, timed, opts).run();
}

const EngineResult::ClassLatency &
tierRow(const EngineResult &r, unsigned tier)
{
    for (const auto &cl : r.classLatencies)
        if (cl.tier == tier)
            return cl;
    ADD_FAILURE() << "no classLatencies row for tier " << tier;
    static EngineResult::ClassLatency none;
    return none;
}

const EngineResult::TenantOccupancy &
tenantRow(const EngineResult &r, unsigned tenant)
{
    for (const auto &to : r.tenantOccupancy)
        if (to.tenant == tenant)
            return to;
    ADD_FAILURE() << "no tenantOccupancy row for tenant " << tenant;
    static EngineResult::TenantOccupancy none;
    return none;
}

// --- (a) Tier ordering under an on/off burst. --------------------------

TEST(SloClassesEngine, TierZeroGapBeatsTierOneAndSingleClassFifo)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
    applyOptions(cluster, PimphonyOptions::all());

    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, 30000, 64});
    RequestClass interactive;
    interactive.tier = 0;
    interactive.gapSloSeconds = 0.05;
    RequestClass batch;
    batch.tier = 1;
    batch.gapSloSeconds = 0.5;
    assignRequestClassesRoundRobin(reqs, {interactive, batch});

    OnOffTraffic traffic;
    traffic.onRate = 4.0;
    traffic.offRate = 0.0;
    traffic.meanOnSeconds = 2.0;
    traffic.meanOffSeconds = 4.0;
    auto timed = onOffArrivals(reqs, traffic, 17);

    SchedPolicyConfig sched;
    sched.kind = SchedPolicyKind::TierPriority;
    auto tiers = runEngine(cluster, model, timed, 2048, sched);

    // The single-class reference: same trace, default classes, FIFO.
    std::vector<Request> plain = reqs;
    assignRequestClass(plain, RequestClass{});
    auto plain_timed = onOffArrivals(plain, traffic, 17);
    sched.kind = SchedPolicyKind::Fifo;
    auto fifo = runEngine(cluster, model, plain_timed, 2048, sched);

    ASSERT_EQ(tiers.completedRequests, 32u);
    ASSERT_EQ(fifo.completedRequests, 32u);
    ASSERT_EQ(tiers.classLatencies.size(), 2u);
    const auto &t0 = tierRow(tiers, 0);
    const auto &t1 = tierRow(tiers, 1);
    EXPECT_EQ(t0.requests, 16u);
    EXPECT_EQ(t1.requests, 16u);
    EXPECT_EQ(t0.completedRequests, 16u);
    EXPECT_DOUBLE_EQ(t0.gapSloTargetSeconds, 0.05);

    // Acceptance (a): tier-0's decode tail is no worse than tier-1's
    // and no worse than the single-class FIFO run's.
    ASSERT_GT(t0.p95TokenGapSeconds, 0.0);
    ASSERT_GT(t1.p95TokenGapSeconds, 0.0);
    EXPECT_LE(t0.p95TokenGapSeconds, t1.p95TokenGapSeconds);
    EXPECT_LE(t0.p95TokenGapSeconds, fifo.p95TokenGapSeconds);

    // The single-class run reports no per-class rows.
    EXPECT_TRUE(fifo.classLatencies.empty());

    // Prefill charge conservation: the tier policy relocates chunks
    // and decode slices in time but loses none of the charge.
    double expected = tiers.prefillSeconds *
                      static_cast<double>(cluster.prefillEngines()) /
                      cluster.plan.tp;
    ASSERT_GT(expected, 0.0);
    EXPECT_NEAR(tiers.xpuPrefillBusySeconds / expected, 1.0, 0.01);
    EXPECT_NEAR(tiers.prefillSeconds, fifo.prefillSeconds,
                1e-9 * fifo.prefillSeconds);
}

// --- Per-class SLO admission. ------------------------------------------

TEST(SloClassesEngine, PerClassGateKeepsGuardedTierUnderItsTarget)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    // A warm tier-0 decoder plus bursts of tier-1 long-context
    // prefills that would clobber its token gaps (the per-class
    // variant of the SloAdmission scenario in sched_policy_test).
    RequestClass interactive;
    interactive.tier = 0;
    interactive.gapSloSeconds = 0.07;
    RequestClass batch;
    batch.tier = 1;
    batch.gapSloSeconds = 10.0; // effectively ungated on its own tier

    std::vector<TimedRequest> timed;
    timed.push_back({{0, 30000, 1536, interactive}, 0.0});
    RequestId id = 1;
    for (int burst = 0; burst < 2; ++burst)
        for (int i = 0; i < 8; ++i)
            timed.push_back({{id++, 30000, 64, batch},
                             3.0 + 7.0 * burst + 0.25 * i});

    SchedPolicyConfig sched;
    sched.kind = SchedPolicyKind::SloAdmission;
    sched.sloWindow = 32;
    auto slo = runEngine(cluster, model, timed, 512, sched);

    sched.kind = SchedPolicyKind::Fifo;
    auto fifo = runEngine(cluster, model, timed, 512, sched);

    ASSERT_EQ(slo.completedRequests, 17u);
    ASSERT_EQ(fifo.completedRequests, 17u);
    ASSERT_GT(slo.sloDeferrals, 0u);

    // Tier 0 is judged on its own window against its own target;
    // gated admission keeps its decode tail under that target while
    // FIFO blows through it.
    const auto &slo_t0 = tierRow(slo, 0);
    const auto &fifo_t0 = tierRow(fifo, 0);
    EXPECT_LE(slo_t0.p95TokenGapSeconds, interactive.gapSloSeconds);
    EXPECT_GT(fifo_t0.p95TokenGapSeconds, interactive.gapSloSeconds);
}

TEST(SloClassesEngine, GateDeferredPrefillHoldsTheFifoQueueButNotTiers)
{
    // Request A decodes while prefill B and zero-context request C
    // queue behind it. With a tiny gap target the SLO gate defers B
    // for as long as A decodes; C needs no prefill, so the gate
    // never applies to it. Single-class admission is a FIFO queue:
    // C waits behind B until A completes and the gate reopens. With
    // two tiers the scan skips the deferred B and admits C at once.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    SchedPolicyConfig sched;
    sched.kind = SchedPolicyKind::SloAdmission;
    sched.sloTargetGapSeconds = 1e-6;
    sched.sloMinSamples = 1;

    auto run = [&](const RequestClass &a_cls, const RequestClass &bc_cls,
                   double b_at, double c_at) {
        std::vector<TimedRequest> timed = {
            {{0, 2000, 64, a_cls}, 0.0},
            {{1, 2000, 16, bc_cls}, b_at},
            {{2, 0, 16, bc_cls}, c_at}};
        return runEngine(cluster, model, timed, 2048, sched);
    };
    // Place B and C a quarter of the way into A's decode.
    auto alone = runEngine(cluster, model, {{{0, 2000, 64}, 0.0}}, 2048,
                           sched);
    double a_first = alone.firstTokenLatency.at(0);
    double a_done = alone.completionSeconds.at(0);
    double b_at = a_first + 0.25 * (a_done - a_first);
    double c_at = a_first + 0.3 * (a_done - a_first);

    auto c_first_token = [&](const EngineResult &r) {
        return c_at + r.firstTokenLatency.at(2);
    };

    auto fifo = run(RequestClass{}, RequestClass{}, b_at, c_at);
    ASSERT_EQ(fifo.completedRequests, 3u);
    EXPECT_GT(fifo.sloDeferrals, 0u);
    EXPECT_GT(c_first_token(fifo), fifo.completionSeconds.at(0));

    RequestClass tier0;
    tier0.tier = 0;
    tier0.gapSloSeconds = 1e-6;
    RequestClass tier1;
    tier1.tier = 1;
    tier1.gapSloSeconds = 1e-6;
    auto tiers = run(tier0, tier1, b_at, c_at);
    ASSERT_EQ(tiers.completedRequests, 3u);
    EXPECT_GT(tiers.sloDeferrals, 0u);
    EXPECT_LT(c_first_token(tiers), tiers.completionSeconds.at(0));
    // B itself still waits for A.
    EXPECT_GT(b_at + tiers.firstTokenLatency.at(1),
              tiers.completionSeconds.at(0));
}

// --- (c) Per-tenant budgets. --------------------------------------------

std::vector<TimedRequest>
tenantMix(std::size_t per_tenant, Tokens ctx, Tokens decode,
          bool tenant_b_active)
{
    // Tenant 0 saturates from t=0; tenant 1 (when active) demands the
    // same workload. Tenant 0's requests sort first at equal arrival
    // times, so without budgets it hogs the queue head.
    std::vector<TimedRequest> timed;
    RequestClass a;
    a.tenant = 0;
    RequestClass b;
    b.tenant = 1;
    RequestId id = 0;
    for (std::size_t i = 0; i < per_tenant; ++i)
        timed.push_back({{id++, ctx, decode, a}, 0.0});
    if (tenant_b_active)
        for (std::size_t i = 0; i < per_tenant; ++i)
            timed.push_back({{id++, ctx, decode, b}, 0.0});
    return timed;
}

TEST(SloClassesEngine, BudgetGuaranteesActiveTenantItsShare)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    auto timed = tenantMix(48, 30000, 256, true);
    SchedPolicyConfig sched;
    std::vector<TenantBudget> budgets = {{0, 0.5}, {1, 0.5}};

    auto with = runEngine(cluster, model, timed, 0, sched, budgets);
    auto without = runEngine(cluster, model, timed, 0, sched);

    ASSERT_EQ(with.completedRequests, 96u);
    ASSERT_EQ(without.completedRequests, 96u);

    // Without budgets the head-of-queue tenant hogs admission; with
    // budgets the saturating tenant cannot hold tenant 1 below its
    // guaranteed share while tenant 1 has entitled demand waiting.
    const auto &b_with = tenantRow(with, 1);
    ASSERT_EQ(with.tenantOccupancy.size(), 2u);
    EXPECT_DOUBLE_EQ(b_with.budgetShare, 0.5);
    EXPECT_GT(b_with.admittedRequests, 0u);
    // Tenant 1's peak occupancy reaches (at least close to) its
    // budget, and its time-averaged share is a healthy fraction of
    // it — it can no longer be starved behind tenant 0's backlog.
    EXPECT_GE(b_with.peakTokenShare, 0.40);
    EXPECT_GE(b_with.avgTokenShare, 0.25);
    // The comparison that matters: without budgets tenant 1 waits
    // behind tenant 0's whole backlog (the time-averaged share over
    // the full run hides this — each tenant dominates its own
    // phase); with budgets tenant 1 is admitted from the start, so
    // its mean time-to-first-token collapses and the inter-tenant
    // TTFT gap closes.
    auto meanTtft = [](const EngineResult &r, RequestId lo,
                       RequestId hi) {
        double sum = 0.0;
        int n = 0;
        for (const auto &kv : r.firstTokenLatency)
            if (kv.first >= lo && kv.first < hi) {
                sum += kv.second;
                ++n;
            }
        return n ? sum / n : 0.0;
    };
    double b_ttft_with = meanTtft(with, 48, 96);
    double b_ttft_without = meanTtft(without, 48, 96);
    ASSERT_GT(b_ttft_without, 0.0);
    EXPECT_LT(b_ttft_with, 0.8 * b_ttft_without);
    double gap_with =
        std::abs(meanTtft(with, 0, 48) - b_ttft_with);
    double gap_without =
        std::abs(meanTtft(without, 0, 48) - b_ttft_without);
    EXPECT_LT(gap_with, 0.5 * gap_without);
    // Without budgets the starved tenant eventually hogs the whole
    // capacity once tenant 0 drains (peak ~1.0); the budget holds
    // its peak near the guarantee.
    const auto &b_without = tenantRow(without, 1);
    EXPECT_DOUBLE_EQ(b_without.budgetShare, 0.0);
    EXPECT_GT(b_without.peakTokenShare, b_with.peakTokenShare);
    EXPECT_GT(with.budgetDeferrals, 0u);

    // The metrics the sweep reports exist for both tenants.
    const auto &a_with = tenantRow(with, 0);
    EXPECT_GT(a_with.admittedRequests, 0u);
}

TEST(SloClassesEngine, IdleTenantShareIsBorrowable)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    // Tenant 1 idle: tenant 0 holds only a 0.3 guarantee but may
    // borrow the idle headroom — work conservation means its peak
    // share exceeds its budget and throughput matches the
    // budget-free run exactly.
    auto timed = tenantMix(48, 30000, 256, false);
    SchedPolicyConfig sched;
    std::vector<TenantBudget> budgets = {{0, 0.3}, {1, 0.7}};

    auto with = runEngine(cluster, model, timed, 0, sched, budgets);
    auto without = runEngine(cluster, model, timed, 0, sched);

    ASSERT_EQ(with.completedRequests, 48u);
    const auto &a = tenantRow(with, 0);
    EXPECT_GT(a.peakTokenShare, 0.3);
    // Work conserving: borrowing makes the budgeted run exactly as
    // fast as the unbudgeted one.
    EXPECT_DOUBLE_EQ(with.tokensPerSecond, without.tokensPerSecond);
    EXPECT_DOUBLE_EQ(with.simulatedSeconds, without.simulatedSeconds);
    const auto &b = tenantRow(with, 1);
    EXPECT_EQ(b.admittedRequests, 0u);
    EXPECT_DOUBLE_EQ(b.avgTokenShare, 0.0);
}

// --- (d) Strict additivity of the subsystem. ----------------------------

TEST(SloClassesEngine, DefaultClassNoBudgetsIsBitIdentical)
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

    // Explicitly stamping the default class must change nothing: the
    // subsystem is strictly additive (the PR 4 goldens pinned in
    // engine_determinism_test check the same runs against recorded
    // history).
    auto stamped = timed;
    for (auto &t : stamped)
        t.request.cls = RequestClass{};

    for (SchedPolicyKind kind :
         {SchedPolicyKind::Fifo, SchedPolicyKind::ChunkPreempt,
          SchedPolicyKind::SloAdmission}) {
        SchedPolicyConfig sched;
        sched.kind = kind;
        auto a = runEngine(cluster, model, timed, 2048, sched);
        auto b = runEngine(cluster, model, stamped, 2048, sched);

        EXPECT_EQ(a.tokensPerSecond, b.tokensPerSecond);
        EXPECT_EQ(a.simulatedSeconds, b.simulatedSeconds);
        EXPECT_EQ(a.generatedTokens, b.generatedTokens);
        EXPECT_EQ(a.completedRequests, b.completedRequests);
        EXPECT_EQ(a.avgEffectiveBatch, b.avgEffectiveBatch);
        EXPECT_EQ(a.macUtilization, b.macUtilization);
        EXPECT_EQ(a.capacityUtilization, b.capacityUtilization);
        EXPECT_EQ(a.attentionSeconds, b.attentionSeconds);
        EXPECT_EQ(a.fcSeconds, b.fcSeconds);
        EXPECT_EQ(a.prefillSeconds, b.prefillSeconds);
        EXPECT_EQ(a.avgRequestLatency, b.avgRequestLatency);
        EXPECT_EQ(a.p95RequestLatency, b.p95RequestLatency);
        EXPECT_EQ(a.avgFirstTokenSeconds, b.avgFirstTokenSeconds);
        EXPECT_EQ(a.p95FirstTokenSeconds, b.p95FirstTokenSeconds);
        EXPECT_EQ(a.avgTokenGapSeconds, b.avgTokenGapSeconds);
        EXPECT_EQ(a.p95TokenGapSeconds, b.p95TokenGapSeconds);
        EXPECT_EQ(a.sloDeferrals, b.sloDeferrals);
        EXPECT_EQ(a.chunkSlices, b.chunkSlices);
        EXPECT_EQ(a.decodeOvertakes, b.decodeOvertakes);
        EXPECT_EQ(a.maxDecodeXpuWaitSeconds, b.maxDecodeXpuWaitSeconds);
        EXPECT_EQ(a.xpuPrefillBusySeconds, b.xpuPrefillBusySeconds);
        EXPECT_EQ(a.simEvents, b.simEvents);
        EXPECT_EQ(a.preemptions, b.preemptions);
        EXPECT_EQ(a.rejectedRequests, b.rejectedRequests);

        // The additive surface stays empty and quiet.
        EXPECT_TRUE(a.classLatencies.empty());
        EXPECT_TRUE(a.tenantOccupancy.empty());
        EXPECT_EQ(a.tierInversions, 0u);
        EXPECT_EQ(a.decodePreemptSlices, 0u);
        EXPECT_EQ(a.budgetDeferrals, 0u);
    }
}

// --- Orchestrator wiring. ------------------------------------------------

TEST(SloClassesEngine, TierPolicyAndBudgetsSelectableViaOrchestrator)
{
    OrchestratorConfig cfg;
    cfg.system = SystemKind::XpuPim;
    cfg.model = LlmConfig::llm7b(true);
    cfg.options = PimphonyOptions::all();
    cfg.plan = ParallelPlan{2, 2};
    cfg.prefillChunkTokens = 2048;
    cfg.sched.kind = SchedPolicyKind::TierPriority;
    cfg.tenantBudgets = {{0, 0.5}, {1, 0.5}};
    cfg.nRequests = 6;
    cfg.decodeTokens = 8;
    PimphonyOrchestrator orch(cfg);
    auto r = orch.evaluate(TraceTask::MultifieldQa);
    EXPECT_EQ(r.engine.completedRequests, 6u);
    EXPECT_GT(r.engine.tokensPerSecond, 0.0);
    // Budgets imply tenant occupancy rows even for one tenant.
    EXPECT_FALSE(r.engine.tenantOccupancy.empty());
}

} // namespace
} // namespace pimphony
