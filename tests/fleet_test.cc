/**
 * @file
 * Tests for the fleet simulation: conservative-window replica
 * advancement behind a routing front-end.
 *
 * The acceptance properties:
 *  (a) a 1-replica fleet is bit-identical (field by field, over every
 *      deterministic metric: tests/result_eq.hh) to a bare
 *      ServingEngine::run() fed the same arrivals — with zero
 *      dispatch latency directly,
 *      with positive latency after shifting every arrival by it;
 *  (b) an N-replica fleet advanced on T threads is bit-identical to
 *      the same fleet advanced serially, for both routing policies;
 *  (c) the zero-lookahead lockstep fallback is thread-count
 *      independent;
 *  (d) window-protocol edges hold: a replica idling across many
 *      windows stays correct, and an arrival landing exactly on a
 *      window barrier routes at that barrier (inclusive bound);
 *  (e) golden anchors pin a multi-replica prefix-affinity session
 *      fleet, windowed and lockstep, at hex-float precision, with
 *      and without a displacing fault schedule;
 *  (f) aggregate latency p95s are nearest-rank percentiles of every
 *      replica's pooled samples, never above the per-replica max;
 *  (g) prepare() + advanceTo() over any horizons + finalize() equals
 *      run(), and options and protocol misuse fail early.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "result_eq.hh"
#include "system/engine.hh"
#include "system/fault.hh"
#include "system/fleet.hh"
#include "workload/arrival.hh"
#include "workload/spec.hh"
#include "workload/trace.hh"

namespace pimphony {
namespace {

LlmConfig
testModel()
{
    return LlmConfig::llm7b(true);
}

ClusterConfig
testCluster(const LlmConfig &model)
{
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());
    return cluster;
}

EngineOptions
testEngineOptions()
{
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    return opts;
}

std::vector<TimedRequest>
testTrace(std::size_t n, double rate, std::uint64_t seed)
{
    std::vector<Request> reqs;
    for (RequestId i = 0; i < n; ++i)
        reqs.push_back({i, (i % 4 == 0) ? Tokens(20000) : Tokens(2000),
                        16});
    return poissonArrivals(reqs, rate, seed);
}

// --- (a) 1-replica fleet == bare engine. -------------------------------

TEST(FleetEngine, OneReplicaZeroLookaheadMatchesBareEngine)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 24.0, 11);

    auto bare =
        ServingEngine(cluster, model, trace, testEngineOptions()).run();

    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.dispatchLatencySeconds = 0.0;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    ASSERT_EQ(fleet.replicas.size(), 1u);
    EXPECT_EQ(fleet.routedRequests[0], trace.size());
    ASSERT_GT(bare.completedRequests, 0u);
    expectSameResult(fleet.replicas[0], bare);
    // With one replica the aggregate inherits the replica's metrics.
    expectSameResult(fleet.aggregate, bare);
}

TEST(FleetEngine, OneReplicaLookaheadMatchesShiftedBareEngine)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 24.0, 12);
    const double d = 0.005;

    // The dispatch latency delays every arrival by d; a bare engine
    // fed the shifted trace must observe the identical simulation.
    auto shifted = trace;
    for (auto &t : shifted)
        t.arrivalSeconds += d;
    auto bare =
        ServingEngine(cluster, model, shifted, testEngineOptions())
            .run();

    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.dispatchLatencySeconds = d;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    ASSERT_EQ(fleet.replicas.size(), 1u);
    ASSERT_GT(bare.completedRequests, 0u);
    expectSameResult(fleet.replicas[0], bare);
}

TEST(FleetEngine, OneReplicaMatchesBareEngineWithTiersAndBudgets)
{
    // The bare engine takes its requests through the constructor; a
    // fleet replica is declared the trace and fed it through
    // injectArrivals. Both routes must activate the same tier and
    // tenant state, so a chunked SloAdmission run with two tiers and
    // two budgeted tenants is bit-identical either way, per-class
    // request counts and tenant occupancy included.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 24.0, 16);
    for (auto &timed : trace) {
        RequestClass &cls = timed.request.cls;
        cls.tier = timed.request.id % 2;
        cls.gapSloSeconds = cls.tier == 0 ? 0.02 : 0.2;
        cls.tenant = (timed.request.id / 2) % 2;
    }
    EngineOptions opts = testEngineOptions();
    opts.sched.kind = SchedPolicyKind::SloAdmission;
    opts.tenantBudgets = {{0, 0.1}, {1, 0.1}};

    auto bare = ServingEngine(cluster, model, trace, opts).run();

    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.dispatchLatencySeconds = 0.0;
    fopts.engine = opts;
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    ASSERT_EQ(bare.classLatencies.size(), 2u);
    ASSERT_EQ(bare.tenantOccupancy.size(), 2u);
    EXPECT_EQ(bare.classLatencies[0].requests +
                  bare.classLatencies[1].requests,
              trace.size());
    // Both admission skips are exercised, so the comparison is not
    // vacuous.
    EXPECT_GT(bare.sloDeferrals, 0u);
    EXPECT_GT(bare.budgetDeferrals, 0u);
    expectSameResult(fleet.replicas[0], bare);
    expectSameResult(fleet.aggregate, bare);
}

// --- (b) Parallel == serial. -------------------------------------------

TEST(FleetEngine, ParallelAdvanceMatchesSerialBothPolicies)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(64, 48.0, 13);

    for (RoutePolicy policy :
         {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded}) {
        FleetOptions fopts;
        fopts.replicas = 4;
        fopts.policy = policy;
        fopts.dispatchLatencySeconds = 0.004;
        fopts.engine = testEngineOptions();

        fopts.threads = 1;
        auto serial = FleetEngine(cluster, model, trace, fopts).run();
        fopts.threads = 4;
        auto parallel = FleetEngine(cluster, model, trace, fopts).run();

        expectSameFleet(serial, parallel);
        EXPECT_EQ(serial.aggregate.completedRequests, trace.size());
    }
}

// --- (c) Zero-lookahead lockstep is thread-independent. ----------------

TEST(FleetEngine, ZeroLookaheadLockstepIgnoresThreadCount)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(32, 32.0, 14);

    FleetOptions fopts;
    fopts.replicas = 3;
    fopts.policy = RoutePolicy::LeastLoaded;
    fopts.dispatchLatencySeconds = 0.0;
    fopts.engine = testEngineOptions();

    fopts.threads = 1;
    auto serial = FleetEngine(cluster, model, trace, fopts).run();
    fopts.threads = 4;
    auto pooled = FleetEngine(cluster, model, trace, fopts).run();

    expectSameFleet(serial, pooled);
}

// --- (d) Window-protocol edges. ----------------------------------------

TEST(FleetEngine, ReplicaIdleAcrossManyWindowsStaysCorrect)
{
    auto model = testModel();
    auto cluster = testCluster(model);

    // Three requests spaced hundreds of windows apart under
    // round-robin: replica 1 receives one early request and then
    // idles across many barriers while replica 0 keeps working.
    std::vector<Request> reqs = {{0, 2000, 16}, {1, 2000, 16},
                                 {2, 2000, 16}};
    std::vector<TimedRequest> trace = {{reqs[0], 0.01},
                                       {reqs[1], 0.5},
                                       {reqs[2], 1.0}};

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.002;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    // Router-idle barriers between the spaced arrivals are skipped,
    // so the sync-round count is one per routing barrier plus the
    // final drain — not the ~500 barriers of simulated time the
    // last arrival crosses.
    EXPECT_GE(fleet.windows, 4u);
    EXPECT_LE(fleet.windows, 8u);
    EXPECT_EQ(fleet.aggregate.completedRequests, 3u);
    EXPECT_EQ(fleet.routedRequests[0], 2u);
    EXPECT_EQ(fleet.routedRequests[1], 1u);
    EXPECT_EQ(fleet.replicas[0].completedRequests, 2u);
    EXPECT_EQ(fleet.replicas[1].completedRequests, 1u);
}

TEST(FleetEngine, ArrivalExactlyOnWindowBoundaryRoutesInclusive)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    const double w = 0.25; // exactly representable: barriers are exact

    // Arrivals landing exactly on barrier times k * w. The routing
    // bound is inclusive (t <= B_j), so each routes at its own
    // barrier and is delivered at t + w — which a bare engine fed
    // the shifted trace reproduces exactly.
    std::vector<Request> reqs = {{0, 2000, 16}, {1, 2000, 16},
                                 {2, 2000, 16}};
    std::vector<TimedRequest> trace = {{reqs[0], 0.0},
                                       {reqs[1], w},
                                       {reqs[2], 2 * w}};

    auto shifted = trace;
    for (auto &t : shifted)
        t.arrivalSeconds += w;
    auto bare =
        ServingEngine(cluster, model, shifted, testEngineOptions())
            .run();

    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.dispatchLatencySeconds = w;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    EXPECT_EQ(fleet.aggregate.completedRequests, 3u);
    expectSameResult(fleet.replicas[0], bare);
}

// --- Roll-up sanity. ---------------------------------------------------

TEST(FleetEngine, AggregateSumsAndBoundsPerReplicaResults)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(64, 48.0, 15);

    FleetOptions fopts;
    fopts.replicas = 4;
    fopts.policy = RoutePolicy::LeastLoaded;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    std::uint64_t tokens = 0, completed = 0, events = 0, routed = 0;
    double max_sec = 0.0;
    for (const auto &r : fleet.replicas) {
        tokens += r.generatedTokens;
        completed += r.completedRequests;
        events += r.simEvents;
        max_sec = std::max(max_sec, r.simulatedSeconds);
    }
    for (std::uint64_t n : fleet.routedRequests)
        routed += n;
    EXPECT_EQ(routed, trace.size());
    EXPECT_EQ(fleet.aggregate.generatedTokens, tokens);
    EXPECT_EQ(fleet.aggregate.completedRequests, completed);
    EXPECT_EQ(fleet.aggregate.simEvents, events);
    EXPECT_EQ(fleet.aggregate.simulatedSeconds, max_sec);
    ASSERT_GT(max_sec, 0.0);
    EXPECT_EQ(fleet.aggregate.tokensPerSecond,
              static_cast<double>(tokens) / max_sec);
    // Least-loaded routing spreads work: every replica serves some.
    for (std::uint64_t n : fleet.routedRequests)
        EXPECT_GT(n, 0u);
}

TEST(FleetEngine, AggregatePercentilesArePooledNearestRank)
{
    // A fault-free, session-free 3-replica fleet at zero dispatch
    // latency: each replica sees the trace's own arrival times, so
    // the pooled samples can be rebuilt from the per-request maps.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(60, 36.0, 19);

    FleetOptions fopts;
    fopts.replicas = 3;
    fopts.policy = RoutePolicy::LeastLoaded;
    fopts.dispatchLatencySeconds = 0.0;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    std::unordered_map<RequestId, double> arrival;
    for (const TimedRequest &t : trace)
        arrival[t.request.id] = t.arrivalSeconds;
    std::vector<double> ttfts, latencies;
    double max_ttft = 0.0, max_latency = 0.0, max_gap = 0.0;
    for (const EngineResult &r : fleet.replicas) {
        for (const auto &kv : r.firstTokenLatency)
            ttfts.push_back(kv.second);
        for (const auto &kv : r.completionSeconds)
            latencies.push_back(kv.second - arrival.at(kv.first));
        max_ttft = std::max(max_ttft, r.p95FirstTokenSeconds);
        max_latency = std::max(max_latency, r.p95RequestLatency);
        max_gap = std::max(max_gap, r.p95TokenGapSeconds);
        // The replica's stores now live in the aggregate.
        EXPECT_EQ(r.firstTokenRuns.count(), 0u);
        EXPECT_EQ(r.tokenGapRuns.count(), 0u);
    }
    ASSERT_EQ(ttfts.size(), trace.size());
    ASSERT_EQ(latencies.size(), trace.size());
    std::sort(ttfts.begin(), ttfts.end());
    std::sort(latencies.begin(), latencies.end());

    const EngineResult &agg = fleet.aggregate;
    EXPECT_EQ(agg.p95FirstTokenSeconds, nearestRankPercentile(ttfts, 95.0));
    EXPECT_EQ(agg.p95RequestLatency, nearestRankPercentile(latencies, 95.0));
    // Pooled p95s never exceed the old max-over-replicas bound, and
    // on this trace they sit strictly below it.
    EXPECT_LT(agg.p95FirstTokenSeconds, max_ttft);
    EXPECT_LT(agg.p95RequestLatency, max_latency);
    EXPECT_LT(agg.p95TokenGapSeconds, max_gap);
}

TEST(FleetEngine, GapAveragesAreWeightedByGapSamples)
{
    // Two memory-tight replicas under round-robin routing. Requests
    // alternate replicas; two tiers with different decode lengths
    // land on both. Replica 0 gets the long contexts and runs out of
    // KV, so it preempts and recomputes; replica 1 never does. A
    // preempted restart's first token records neither a TTFT nor a
    // gap, and a tier's gap samples are not proportional to its
    // completed requests, so the fleet averages must weight by the
    // exact gap-sample counts.
    auto model = testModel();
    auto cluster = ClusterConfig::centLike(model);
    cluster.nModules = 2;
    cluster.plan = ParallelPlan{2, 1};
    Bytes kv_budget = model.kvBytesPerToken() * 5600;
    cluster.module.capacityBytes =
        (kv_budget + model.weightBytes()) / cluster.nModules + 1;
    applyOptions(cluster, PimphonyOptions::all());

    std::vector<TimedRequest> trace;
    std::uint64_t replica1_gaps = 0;
    for (RequestId i = 0; i < 8; ++i) {
        RequestClass cls;
        cls.tier = (i % 4 < 2) ? 1 : 0;
        Tokens ctx = (i % 2 == 0) ? 1000 : 200;
        Tokens decode = cls.tier == 0 ? (i % 2 == 0 ? 64 : 256)
                                      : (i % 2 == 0 ? 2000 : 1000);
        if (i % 2 == 1)
            replica1_gaps += decode - 1;
        trace.push_back({Request(i, ctx, decode, cls),
                         0.01 * static_cast<double>(i)});
    }

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.0;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    ASSERT_EQ(fleet.aggregate.completedRequests, trace.size());
    const EngineResult &r0 = fleet.replicas[0];
    const EngineResult &r1 = fleet.replicas[1];
    ASSERT_GT(r0.preemptions, 0u);
    ASSERT_EQ(r1.preemptions, 0u);

    // Replica 1 never restarts: one gap per token after each
    // request's first, which is also generated minus TTFTs.
    EXPECT_EQ(r1.tokenGapSamples, replica1_gaps);
    EXPECT_EQ(r1.tokenGapSamples,
              r1.generatedTokens - r1.firstTokenLatency.size());
    // Replica 0's restarts emit unrecorded first tokens, which the
    // generated-minus-TTFTs count wrongly includes.
    EXPECT_LT(r0.tokenGapSamples,
              r0.generatedTokens - r0.firstTokenLatency.size());

    double gap_sum = 0.0, gap_n = 0.0;
    double old_sum = 0.0, old_n = 0.0;
    for (const EngineResult &r : fleet.replicas) {
        std::uint64_t class_gaps = 0;
        for (const auto &cl : r.classLatencies)
            class_gaps += cl.tokenGapSamples;
        EXPECT_EQ(class_gaps, r.tokenGapSamples);
        double n = static_cast<double>(r.tokenGapSamples);
        gap_sum += r.avgTokenGapSeconds * n;
        gap_n += n;
        double old_w = static_cast<double>(r.generatedTokens -
                                           r.firstTokenLatency.size());
        old_sum += r.avgTokenGapSeconds * old_w;
        old_n += old_w;
    }
    EXPECT_EQ(fleet.aggregate.tokenGapSamples,
              r0.tokenGapSamples + r1.tokenGapSamples);
    EXPECT_DOUBLE_EQ(fleet.aggregate.avgTokenGapSeconds, gap_sum / gap_n);
    // The scenario separates the weightings: generated minus TTFTs
    // gives a different fleet average.
    EXPECT_NE(gap_sum / gap_n, old_sum / old_n);

    ASSERT_EQ(fleet.aggregate.classLatencies.size(), 2u);
    for (const auto &agg_cl : fleet.aggregate.classLatencies) {
        double sum = 0.0, n = 0.0, old_sum_c = 0.0, old_n_c = 0.0;
        std::uint64_t samples = 0;
        for (const EngineResult &r : fleet.replicas)
            for (const auto &cl : r.classLatencies) {
                if (cl.tier != agg_cl.tier)
                    continue;
                double w = static_cast<double>(cl.tokenGapSamples);
                sum += cl.avgTokenGapSeconds * w;
                n += w;
                samples += cl.tokenGapSamples;
                double cw = static_cast<double>(cl.completedRequests);
                old_sum_c += cl.avgTokenGapSeconds * cw;
                old_n_c += cw;
            }
        EXPECT_EQ(agg_cl.tokenGapSamples, samples);
        ASSERT_GT(n, 0.0);
        EXPECT_DOUBLE_EQ(agg_cl.avgTokenGapSeconds, sum / n)
            << "tier " << agg_cl.tier;
        // So does weighting a tier by its completed requests.
        EXPECT_NE(sum / n, old_sum_c / old_n_c) << "tier " << agg_cl.tier;
    }
}

// --- (e) Golden anchors. -----------------------------------------------

/**
 * A 4-replica prefix-affinity fleet of 3-turn sessions, three
 * quarters of them opening with one of two pooled 1024-token
 * prefixes, with the prefix cache on: router warmth probes, session
 * pins and closed-loop turn release all shape the run.
 */
BuiltWorkload
sessionAffinityWorkload()
{
    WorkloadSpec spec;
    spec.count = 16;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{2000, 16}, {4000, 16}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 16.0;
    spec.session.turns = 3;
    spec.session.thinkMeanSeconds = 0.2;
    spec.prefix.share = 0.75;
    spec.prefix.pool = 2;
    spec.prefix.tokens = 1024;
    return buildWorkload(spec, 31);
}

/** Drives a constructed fleet to its result. */
using FleetDriver = std::function<FleetResult(FleetEngine &)>;

FleetResult
runSessionAffinityFleet(
    double dispatch_latency, const FaultSchedule &faults = {},
    unsigned threads = 1,
    const FleetDriver &drive = [](FleetEngine &f) { return f.run(); })
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionAffinityWorkload();

    FleetOptions fopts;
    fopts.replicas = 4;
    fopts.policy = RoutePolicy::PrefixAffinity;
    fopts.dispatchLatencySeconds = dispatch_latency;
    fopts.engine = testEngineOptions();
    fopts.engine.chargePrefill = true;
    fopts.engine.prefixCache.enabled = true;
    fopts.faults = faults;
    fopts.threads = threads;
    FleetEngine fleet(cluster, model, built.initial, fopts);
    fleet.setSessions(built.sessions);
    return drive(fleet);
}

TEST(FleetGolden, SessionAffinityWindowedAndLockstep)
{
    // Both runs route identically; the dispatch delay only shifts the
    // makespan, and with it the throughput, and rounds the pooled
    // TTFTs differently. The p95s are nearest-rank over the pooled
    // samples of all four replicas.
    struct Golden
    {
        double dispatchLatency;
        double tokensPerSecond;
        double p95FirstTokenSeconds;
    };
    for (const Golden &g :
         {Golden{0.002, 0x1.d8cd98257ad7ap+7, 0x1.590138bfd7a08p-2},
          Golden{0.0, 0x1.d918278c16482p+7, 0x1.590138bfd7a0cp-2}}) {
        auto f = runSessionAffinityFleet(g.dispatchLatency);
        const std::vector<std::uint64_t> routed{7, 3, 3, 3};
        EXPECT_EQ(f.windows, 17u);
        EXPECT_EQ(f.routedRequests, routed);
        EXPECT_EQ(f.routedSessions, routed);
        EXPECT_EQ(f.aggregate.tokensPerSecond, g.tokensPerSecond);
        EXPECT_EQ(f.aggregate.simEvents, 5960u);
        EXPECT_EQ(f.aggregate.p95TokenGapSeconds, 0x1.12f1d822de106p-3);
        EXPECT_EQ(f.aggregate.p95FirstTokenSeconds, g.p95FirstTokenSeconds);
        EXPECT_EQ(f.aggregate.p95RequestLatency, 0x1.d6fba5b17758ap-1);
        EXPECT_EQ(f.aggregate.completedRequests, 48u);
        EXPECT_GT(f.aggregate.prefixHits, 0u);
    }
}

/**
 * The session fleet above under a displacing schedule: replica 0
 * drains at 1.0 s and is killed 0.2 s later, replica 1 crashes hard
 * at 0.3 s and recovers at 0.9 s after a 0.1 s reload, and replica 2
 * runs at half speed over [0.2, 0.8) s. The drain evacuates queued
 * work, both kills fail in-flight work over, and session releases
 * landing on the dead replica 0 are swept as strays, so every
 * displacement path, the retry backoff and the barrier schedule
 * shape the pinned values.
 */
TEST(FleetGolden, DisplacingFaults)
{
    FaultSchedule faults;
    faults.replicas.resize(4);
    faults.replicas[0].push_back(crashAt(1.0, 0.2));
    faults.replicas[1].push_back(crashAt(0.3));
    faults.replicas[1].push_back(recoverAt(0.9, 0.1));
    faults.replicas[2].push_back(degradeAt(0.2, 2.0, 0.6));

    struct Golden
    {
        double dispatchLatency;
        double availability0;
        double availability1;
        double tokensPerSecond;
        double p95FirstTokenSeconds;
        double p95RequestLatency;
    };
    for (const Golden &g :
         {Golden{0.002, 0x1.f033ddab3f514p-3, 0x1.a92a1f9ba1b83p-1,
                 0x1.8804f9e08ac5ep+7, 0x1.cda5f7597495ap-2,
                 0x1.c86644eede3p-1},
          Golden{0.0, 0x1.f0717332a65d4p-3, 0x1.a91f58a3efafbp-1,
                 0x1.8835a142c3ef2p+7, 0x1.cda5f7597495ap-2,
                 0x1.c86644eede302p-1}}) {
        auto f = runSessionAffinityFleet(g.dispatchLatency, faults);
        EXPECT_EQ(f.windows, 27u);
        EXPECT_EQ(f.routedRequests,
                  (std::vector<std::uint64_t>{7, 7, 5, 5}));
        EXPECT_EQ(f.routedSessions,
                  (std::vector<std::uint64_t>{0, 6, 5, 5}));
        EXPECT_EQ(f.evacuatedRequests, 3u);
        EXPECT_EQ(f.retriedRequests, 8u);
        EXPECT_EQ(f.lostRequests, 0u);
        EXPECT_EQ(f.lostTokens, 41u);
        EXPECT_EQ(f.retryHistogram,
                  (std::vector<std::uint64_t>{0, 8, 0, 0}));
        EXPECT_EQ(f.availability,
                  (std::vector<double>{g.availability0, g.availability1,
                                       1.0, 1.0}));
        EXPECT_EQ(f.reloadSeconds, 0x1.999999999999ap-4);
        EXPECT_EQ(f.goodputTokens, 768u);
        EXPECT_EQ(f.aggregate.tokensPerSecond, g.tokensPerSecond);
        EXPECT_EQ(f.aggregate.simEvents, 6162u);
        EXPECT_EQ(f.aggregate.p95TokenGapSeconds, 0x1.0e3479bc1d38p-3);
        EXPECT_EQ(f.aggregate.p95FirstTokenSeconds,
                  g.p95FirstTokenSeconds);
        EXPECT_EQ(f.aggregate.p95RequestLatency, g.p95RequestLatency);
        EXPECT_EQ(f.aggregate.completedRequests, 48u);
    }
}

// --- (g) The resumable protocol. ---------------------------------------

TEST(ServingEngine, InjectedSortedBatchesMatchConstructorFeed)
{
    // One trace reaches a prepared engine in sorted batches: a
    // time-zero prefix riding on the first batch, a disjoint batch
    // (appended in bulk), then two interleaved batches, the second of
    // which starts before the tail of the pending stream (merged per
    // request). The pending stream ends up in trace order, so the run
    // must equal the constructor-fed one.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 24.0, 19);
    for (std::size_t i = 0; i < 3; ++i)
        trace[i].arrivalSeconds = 0.0;
    auto slice = [&trace](std::size_t begin, std::size_t end,
                          std::size_t stride) {
        std::vector<TimedRequest> batch;
        for (std::size_t i = begin; i < end; i += stride)
            batch.push_back(trace[i]);
        return batch;
    };
    const std::vector<std::vector<TimedRequest>> batches = {
        slice(0, 12, 1), slice(12, 30, 1), slice(30, 48, 2),
        slice(31, 48, 2)};
    ASSERT_LT(batches[3].front().arrivalSeconds,
              batches[2].back().arrivalSeconds);

    auto whole =
        ServingEngine(cluster, model, trace, testEngineOptions()).run();
    ServingEngine engine(cluster, model, std::vector<TimedRequest>{},
                         testEngineOptions());
    engine.declareWorkload(trace);
    engine.prepare();
    for (const auto &batch : batches)
        engine.injectArrivals(batch);
    engine.advanceTo(std::numeric_limits<double>::infinity());
    auto fed = engine.finalize();
    EXPECT_EQ(fed.completedRequests, trace.size());
    expectSameResult(fed, whole);
}

TEST(FleetEngine, AdvanceInStepsMatchesRun)
{
    // The displacing schedule of FleetGolden.DisplacingFaults, so
    // the stepped runs cross drains, kills, a reload and stray
    // sweeps as well as routing barriers.
    FaultSchedule faults;
    faults.replicas.resize(4);
    faults.replicas[0].push_back(crashAt(1.0, 0.2));
    faults.replicas[1].push_back(crashAt(0.3));
    faults.replicas[1].push_back(recoverAt(0.9, 0.1));
    faults.replicas[2].push_back(degradeAt(0.2, 2.0, 0.6));
    double last_arrival =
        sessionAffinityWorkload().initial.back().arrivalSeconds;
    const double inf = std::numeric_limits<double>::infinity();

    for (double d : {0.002, 0.0}) {
        // The hard crash's barrier, computed as the fleet does.
        double on_barrier = d > 0.0 ? std::ceil(0.3 / d) * d : 0.3;
        // Inside a window; exactly on a barrier, twice; between a
        // reload's start and completion; past the last trace arrival;
        // past the makespan but before the drain.
        const std::vector<double> horizons{
            0.003, on_barrier, on_barrier, 0.95, last_arrival + 0.25,
            1000.0};
        for (unsigned threads : {1u, 4u}) {
            auto whole = runSessionAffinityFleet(d, faults, threads);
            auto stepped = runSessionAffinityFleet(
                d, faults, threads, [&](FleetEngine &f) {
                    f.prepare();
                    for (double h : horizons) {
                        f.advanceTo(h);
                        EXPECT_FALSE(f.drained());
                    }
                    f.advanceTo(inf);
                    EXPECT_TRUE(f.drained());
                    f.advanceTo(inf); // a no-op once drained
                    return f.finalize();
                });
            expectSameFleet(whole, stepped);
            EXPECT_GT(stepped.retriedRequests, 0u);
        }
    }
}

TEST(FleetEngineDeathTest, InvalidOptionsAreFatalNamingTheField)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(4, 8.0, 3);
    auto build = [&](const FleetOptions &opts) {
        FleetEngine fleet(cluster, model, trace, opts);
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {nan, inf, -0.001}) {
        FleetOptions latency;
        latency.dispatchLatencySeconds = bad;
        EXPECT_DEATH(build(latency),
                     "dispatchLatencySeconds must be finite and >= 0");
        FleetOptions backoff;
        backoff.retryBackoffSeconds = bad;
        EXPECT_DEATH(build(backoff),
                     "retryBackoffSeconds must be finite and >= 0");
    }
    FleetOptions none;
    none.replicas = 0;
    EXPECT_DEATH(build(none), "replicas must be at least 1");
    // The fault schedule is validated at construction, before run().
    FleetOptions faults;
    faults.replicas = 2;
    faults.faults.replicas.resize(3);
    faults.faults.replicas[2].push_back(crashAt(1.0));
    EXPECT_DEATH(build(faults), "replica 2 of a 2-replica fleet");
}

TEST(FleetEngineDeathTest, ProtocolMisuseIsFatal)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(4, 8.0, 3);
    FleetOptions opts;
    opts.engine = testEngineOptions();
    auto misuse = [&](const std::function<void(FleetEngine &)> &steps) {
        FleetEngine fleet(cluster, model, trace, opts);
        steps(fleet);
    };
    EXPECT_DEATH(misuse([](FleetEngine &f) { f.advanceTo(1.0); }),
                 "advanceTo\\(\\) before prepare");
    EXPECT_DEATH(misuse([](FleetEngine &f) {
                     f.prepare();
                     f.prepare();
                 }),
                 "prepare\\(\\) called twice");
    EXPECT_DEATH(misuse([](FleetEngine &f) {
                     f.prepare();
                     f.advanceTo(1000.0);
                     f.finalize();
                 }),
                 "finalize\\(\\) before advanceTo");
    EXPECT_DEATH(misuse([](FleetEngine &f) {
                     f.run();
                     f.finalize();
                 }),
                 "finalize\\(\\) called twice");
    EXPECT_DEATH(misuse([](FleetEngine &f) {
                     f.prepare();
                     f.setSessions({});
                 }),
                 "setSessions\\(\\) after prepare");
}

} // namespace
} // namespace pimphony
