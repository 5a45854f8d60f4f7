/**
 * @file
 * Unit tests of the admission module (system/admission) on its own:
 * a LazyChunk allocator, optionally a prefix cache, and no event
 * queue or engine. They pin the module's decisions:
 *
 *  - the SLO gate binds over kSloHeadroom times a tier's target,
 *    with kSloMinSamples gaps, while the tier decodes; it is a tier
 *    threshold, monotone in tier, and a single-class workload
 *    behaves as tier 0;
 *  - a borrower is denied while another tenant has an entitled
 *    request waiting, and allowed once none does;
 *  - a memory block halts a pass while a budget block only skips;
 *  - a fractional prefix charge is refunded exactly;
 *  - declaration picks each tier's target by rank, whatever the
 *    visit order, and an earlier call's target stays, and a class
 *    target that is not finite and >= 0 is fatal.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/kv_allocator.hh"
#include "alloc/prefix_cache.hh"
#include "system/admission.hh"
#include "system/engine.hh"
#include "system/sched_policy.hh"

namespace pimphony {
namespace {

/** An allocator of @p tokens of KV capacity, its model and cluster,
 *  and the result admission counts into. */
struct Rig
{
    explicit Rig(Tokens tokens)
        : model(LlmConfig::llm7b(true)),
          cluster(ClusterConfig::neupimsLike(model)),
          alloc(AllocatorKind::LazyChunk, model.kvBytesPerToken() * tokens,
                model.kvBytesPerToken(), model.contextWindow)
    {
    }

    Admission
    admission(const ServingOptions &opts, PrefixCache *cache = nullptr)
    {
        return Admission(model, cluster, opts, alloc, cache, result);
    }

    LlmConfig model;
    ClusterConfig cluster;
    KvAllocator alloc;
    EngineResult result;
};

TimedRequest
arrival(RequestId id, Tokens context, unsigned tier = 0,
        unsigned tenant = 0, double gap_slo = 0.0)
{
    Request r(id, context, 8);
    r.cls.tier = tier;
    r.cls.tenant = tenant;
    r.cls.gapSloSeconds = gap_slo;
    return {r, 0.0};
}

/** Declare @p trace, prepare and queue every request. */
void
deliver(Admission &adm, const std::vector<TimedRequest> &trace)
{
    adm.declare([&trace](auto &&visit) {
        for (const TimedRequest &timed : trace)
            visit(timed.request, timed.arrivalSeconds);
    });
    adm.prepare();
    for (const TimedRequest &timed : trace) {
        adm.registerArrival(timed.request);
        adm.enqueue(timed);
    }
}

std::vector<RequestId>
admittedIds(const std::vector<Admission::Admitted> &out)
{
    std::vector<RequestId> ids;
    for (const auto &a : out)
        ids.push_back(a.active.request.id);
    return ids;
}

ServingOptions
gatedOptions()
{
    ServingOptions opts;
    opts.prefillChunkTokens = 2048;
    opts.sched.kind = SchedPolicyKind::SloAdmission;
    return opts;
}

TEST(Admission, DeclaredTargetIsTheLowestRanksAndCallsAccumulate)
{
    Rig rig(200000);
    ServingOptions opts = gatedOptions();
    // A default-class scan activates nothing and keeps no entry.
    Admission plain = rig.admission(opts);
    plain.declare([](auto &&visit) {
        visit(arrival(0, 1000).request, 0.0);
        visit(arrival(1, 1000).request, 1.0);
    });
    plain.finalize();
    EXPECT_FALSE(plain.classesActive());
    EXPECT_TRUE(rig.result.classLatencies.empty());
    EXPECT_TRUE(rig.result.tenantOccupancy.empty());

    rig.result = EngineResult{};
    Admission adm = rig.admission(opts);
    auto req = [](unsigned tier, double gap) {
        return arrival(0, 1000, tier, tier % 2, gap).request;
    };
    adm.declare([&](auto &&visit) {
        visit(req(1, 0.4), 5.0);
        visit(req(1, 0.2), 1.0); // lowest rank: wins
        visit(req(1, 0.3), 1.0); // a tie goes to the first visited
        visit(req(0, 0.0), 0.0); // no explicit target: the default
        visit(req(2, 0.7), 3.0);
    });
    adm.declare([&](auto &&visit) {
        visit(req(1, 0.9), 0.0); // tier 1's target is already set
        visit(req(3, 0.5), 9.0);
        visit(req(3, 0.6), 2.0);
    });
    adm.finalize();
    const std::vector<std::pair<unsigned, double>> want = {
        {0, opts.sched.sloTargetGapSeconds}, {1, 0.2}, {2, 0.7}, {3, 0.6}};
    ASSERT_EQ(rig.result.classLatencies.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(rig.result.classLatencies[i].tier, want[i].first);
        EXPECT_EQ(rig.result.classLatencies[i].gapSloTargetSeconds,
                  want[i].second);
    }
    ASSERT_EQ(rig.result.tenantOccupancy.size(), 2u);
}

TEST(AdmissionDeathTest, BadClassSloTargetIsFatalNamingTheRequest)
{
    // NaN or negative used to fall back to the policy default, and
    // +inf to disable the tier's gate, without a word.
    Rig rig(200000);
    for (double bad : {std::nan(""), -1.0,
                       std::numeric_limits<double>::infinity()}) {
        std::vector<TimedRequest> trace{arrival(0, 1000, 1, 0, 0.05),
                                        arrival(3, 1000, 1, 0, bad)};
        EXPECT_DEATH(ServingEngine(rig.cluster, rig.model, trace,
                                   EngineOptions{}),
                     "request 3: RequestClass::gapSloSeconds is "
                     "[-a-z0-9]+; it must be finite and >= 0")
            << bad;
    }
    // 0 still means the policy default.
    std::vector<TimedRequest> trace{arrival(0, 1000, 1, 0, 0.0)};
    ServingEngine engine(rig.cluster, rig.model, trace, EngineOptions{});
    SUCCEED();
}

TEST(Admission, GateIsAMonotoneTierThreshold)
{
    Rig rig(200000);
    ServingOptions opts = gatedOptions();
    Admission adm = rig.admission(opts);
    // Request i is a tier-i prefill with a gap target of 0.1 * (i + 1).
    auto tiered = [](unsigned tier) {
        return arrival(tier, 1000, tier, 0, 0.1 * (tier + 1));
    };
    deliver(adm, {tiered(0), tiered(1), tiered(2)});
    ASSERT_TRUE(adm.gated());

    // Tier 0 under kSloHeadroom times its target; tiers 1 and 2 over
    // theirs. A window binds once it holds kSloMinSamples gaps.
    auto record = [&adm](unsigned tier, double gap, unsigned times) {
        for (unsigned i = 0; i < times; ++i)
            adm.recordGap(tier, gap);
    };
    record(0, 0.05, kSloMinSamples);
    record(1, 0.25, kSloMinSamples);
    record(2, 0.5, kSloMinSamples - 1);
    EXPECT_EQ(adm.gateTier({2}), Admission::kGateOpen);
    record(2, 0.5, 1);
    // An over-target tier binds only while it decodes.
    EXPECT_EQ(adm.gateTier({}), Admission::kGateOpen);
    EXPECT_EQ(adm.gateTier({0}), Admission::kGateOpen);
    EXPECT_EQ(adm.gateTier({2}), 2u);
    EXPECT_EQ(adm.gateTier({2, 1, 0}), 1u);

    // The pass applies the threshold: tiers >= 1 defer (skipped, as
    // classes are active), tier 0 is admitted; one deferral counted.
    std::vector<Admission::Admitted> out;
    adm.admit(0.0, {1, 2}, out);
    EXPECT_EQ(admittedIds(out), std::vector<RequestId>({0}));
    ASSERT_EQ(adm.queue().size(), 2u);
    EXPECT_EQ(adm.queue()[0].request.id, 1u);

    // Tier 1 recovers once its window holds only gaps under its
    // threshold: the threshold moves up to tier 2.
    record(1, 0.1, SchedPolicyConfig::sloWindow);
    adm.admit(0.0, {1, 2}, out);
    EXPECT_EQ(admittedIds(out), std::vector<RequestId>({1}));
    EXPECT_EQ(adm.queue().size(), 1u);
}

TEST(Admission, GateBindsOverHeadroomWithEnoughSamplesWhileDecoding)
{
    // Open: nothing decoding, too few samples, or the windowed p95 at
    // most kSloHeadroom * target. Shut otherwise.
    Rig rig(200000);
    ServingOptions opts = gatedOptions();
    opts.sched.sloTargetGapSeconds = 0.1;
    Admission slow = rig.admission(opts);
    deliver(slow, {arrival(0, 1000)});
    for (unsigned i = 0; i + 1 < kSloMinSamples; ++i)
        slow.recordGap(0, 10.0);
    EXPECT_EQ(slow.gateTier({0}), Admission::kGateOpen);
    slow.recordGap(0, 10.0);
    EXPECT_EQ(slow.gateTier({0}), 0u);
    EXPECT_EQ(slow.gateTier({}), Admission::kGateOpen);

    // headroom * target = 70 ms.
    for (double gap : {0.06, 0.0701}) {
        Admission adm = rig.admission(opts);
        deliver(adm, {arrival(0, 1000)});
        for (unsigned i = 0; i < kSloMinSamples; ++i)
            adm.recordGap(0, gap);
        EXPECT_EQ(adm.gateTier({0}),
                  gap < 0.07 ? Admission::kGateOpen : 0u)
            << gap;
    }

    // Other policies never defer.
    opts.sched.kind = SchedPolicyKind::Fifo;
    Admission fifo = rig.admission(opts);
    deliver(fifo, {arrival(0, 1000)});
    EXPECT_FALSE(fifo.gated());
    EXPECT_EQ(fifo.gateTier({0}), Admission::kGateOpen);
}

TEST(Admission, SingleClassGateIsTierZero)
{
    // A single-class workload and a one-tier classed workload judged
    // at the same target decide identically, gap by gap.
    Rig rig(200000);
    ServingOptions opts = gatedOptions();
    Admission plain = rig.admission(opts);
    deliver(plain, {arrival(0, 1000)});
    Admission classed = rig.admission(opts);
    TimedRequest tagged = arrival(0, 1000);
    // Non-default, still tier 0, and gated at the policy's own target.
    tagged.request.cls.gapSloSeconds = opts.sched.sloTargetGapSeconds;
    deliver(classed, {tagged});
    ASSERT_FALSE(plain.classesActive());
    ASSERT_TRUE(classed.classesActive());

    const double target = opts.sched.sloTargetGapSeconds;
    std::vector<double> gaps(kSloMinSamples, 0.01);
    for (double gap : {2 * target, 3 * target, 0.01, 0.01, 0.01, 0.01})
        gaps.push_back(gap);
    for (double gap : gaps) {
        plain.recordGap(0, gap);
        classed.recordGap(0, gap);
        EXPECT_EQ(plain.gateTier({}), classed.gateTier({}));
        EXPECT_EQ(plain.gateTier({0}), classed.gateTier({0}));
    }
    // Over target: tier 0 binds, but only while something decodes.
    plain.recordGap(0, 4 * target);
    EXPECT_EQ(plain.gateTier({0}), 0u);
    EXPECT_EQ(plain.gateTier({}), Admission::kGateOpen);
}

TEST(Admission, BorrowerWaitsWhileAnotherTenantIsEntitled)
{
    Rig rig(100000);
    ServingOptions opts;
    opts.tenantBudgets = {{0, 0.25}, {1, 0.25}};
    Admission adm = rig.admission(opts);
    // 10k-token requests. Tenant 0's third would borrow past its
    // 25k-token budget; tenant 1 has an entitled request behind it.
    auto req = [](RequestId id, unsigned tenant) {
        return arrival(id, 9992, 0, tenant);
    };
    deliver(adm, {req(0, 0), req(1, 0), req(2, 0), req(3, 1)});
    std::vector<Admission::Admitted> out;
    adm.admit(0.0, {}, out);
    EXPECT_EQ(admittedIds(out), std::vector<RequestId>({0, 1, 3}));
    ASSERT_EQ(adm.queue().size(), 1u);
    EXPECT_EQ(adm.queue()[0].request.id, 2u);

    // No other tenant is entitled now: the borrow goes through.
    adm.admit(0.0, {}, out);
    EXPECT_EQ(admittedIds(out), std::vector<RequestId>({2}));
    EXPECT_EQ(adm.tenantReservedTokens(0), 30000.0);

    adm.finalize();
    const EngineResult &r = rig.result;
    EXPECT_EQ(r.budgetDeferrals, 1u);
    ASSERT_EQ(r.tenantOccupancy.size(), 2u);
    EXPECT_EQ(r.tenantOccupancy[0].budgetDeferrals, 1u);
    EXPECT_EQ(r.tenantOccupancy[0].admittedRequests, 3u);
}

TEST(Admission, MemoryBlockHaltsThePassBudgetBlockSkips)
{
    Rig rig(100000);
    ServingOptions opts;
    opts.tenantBudgets = {{0, 0.1}, {1, 0.9}};
    Admission adm = rig.admission(opts);
    auto tenant1 = [](RequestId id, Tokens context) {
        return arrival(id, context, 0, 1);
    };
    deliver(adm, {tenant1(0, 59992), tenant1(1, 59992), tenant1(2, 992)});
    std::vector<Admission::Admitted> out;
    // Request 1 does not fit next to request 0: the pass stops there,
    // so request 2 waits even though it would fit.
    adm.admit(0.0, {}, out);
    EXPECT_EQ(admittedIds(out), std::vector<RequestId>({0}));
    EXPECT_EQ(adm.queue().size(), 2u);

    // Tenant 0 is over its 10k budget and tenant 1 is entitled: the
    // blocked borrower is skipped and the pass continues past it.
    Rig other(100000);
    Admission budget = other.admission(opts);
    TimedRequest borrower = arrival(10, 19992, 0, 0);
    deliver(budget, {borrower, tenant1(11, 992)});
    budget.admit(0.0, {}, out);
    EXPECT_EQ(admittedIds(out), std::vector<RequestId>({11}));
    ASSERT_EQ(budget.queue().size(), 1u);
    EXPECT_EQ(budget.queue()[0].request.id, 10u);
}

TEST(Admission, FractionalChargeIsRefundedExactly)
{
    Rig rig(100000);
    PrefixCacheOptions cache_opts;
    cache_opts.enabled = true;
    PrefixCache cache(rig.alloc, cache_opts);
    ServingOptions opts;
    opts.prefixCache = cache_opts;
    opts.tenantBudgets = {{0, 0.5}, {1, 0.5}};
    Admission adm = rig.admission(opts, &cache);

    auto shared = [](RequestId id, unsigned tenant) {
        TimedRequest t = arrival(id, 8192, 0, tenant);
        t.request.prefixHash = 0xBEEF;
        t.request.prefixTokens = 4096;
        return t;
    };
    // Request 0 publishes the prefix (scalar prefill: ready at once);
    // requests 1 and 2 hit it; tenant 1's request 3 holds a full
    // charge.
    TimedRequest full = arrival(3, 992, 0, 1);
    deliver(adm, {shared(0, 0), shared(1, 0), shared(2, 0), full});
    std::vector<Admission::Admitted> out;
    adm.admit(0.0, {}, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[1].active.cachedTokens, 4096u);
    EXPECT_EQ(out[3].active.tenantCharge, 1000.0);
    const double before = adm.tenantReservedTokens(1);
    EXPECT_EQ(before, 1000.0);

    // Tenant 1's warm hit is the third consumer: its unique tokens in
    // full plus a third of the shared prefix.
    adm.enqueue(shared(4, 1));
    std::vector<Admission::Admitted> warm;
    adm.admit(0.0, {}, warm);
    ASSERT_EQ(warm.size(), 1u);
    const ActiveRequest &a = warm[0].active;
    EXPECT_EQ(a.tenantCharge, (8200.0 - 4096.0) + 4096.0 / 3.0);
    EXPECT_EQ(adm.tenantReservedTokens(1), before + a.tenantCharge);

    rig.alloc.release(a.request.id);
    adm.release(a);
    EXPECT_EQ(adm.tenantReservedTokens(1), before);
}

} // namespace
} // namespace pimphony
