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
 *      run(), and options and protocol misuse fail early;
 *  (h) every bad value of every numeric field of EngineOptions,
 *      FleetOptions and WorkloadSpec dies where the configuration
 *      enters (the engine, fleet and orchestrator constructors and
 *      buildWorkload), naming the field.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/orchestrator.hh"
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
    PoissonProcess arrivals(rate);
    return attachArrivals(reqs, arrivals, seed);
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
    // The trace is short enough that one replica's gap tail sits
    // above the others': with first-come-first-served prefill a
    // longer backlog gives every replica the same p95 gap (one cycle
    // behind one chunk), which no pooling can undercut.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 36.0, 19);

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
    // request latencies differently. The p95s are nearest-rank over
    // the pooled samples of all four replicas.
    struct Golden
    {
        double dispatchLatency;
        double tokensPerSecond;
        double p95RequestLatency;
    };
    for (const Golden &g :
         {Golden{0.002, 0x1.0cf5558de5532p+8, 0x1.7499a30ec3abap-1},
          Golden{0.0, 0x1.0d2597fe33b3ep+8, 0x1.7499a30ec3ab8p-1}}) {
        auto f = runSessionAffinityFleet(g.dispatchLatency);
        const std::vector<std::uint64_t> routed{3, 4, 5, 4};
        EXPECT_EQ(f.windows, 17u);
        EXPECT_EQ(f.routedRequests, routed);
        EXPECT_EQ(f.routedSessions, routed);
        EXPECT_EQ(f.aggregate.tokensPerSecond, g.tokensPerSecond);
        EXPECT_EQ(f.aggregate.simEvents, 6408u);
        EXPECT_EQ(f.aggregate.p95TokenGapSeconds, 0x1.5adc7a7ae559p-4);
        EXPECT_EQ(f.aggregate.p95FirstTokenSeconds, 0x1.468de0fb5a09p-2);
        EXPECT_EQ(f.aggregate.p95RequestLatency, g.p95RequestLatency);
        EXPECT_EQ(f.aggregate.completedRequests, 48u);
        EXPECT_GT(f.aggregate.prefixHits, 0u);
    }
}

/**
 * The session fleet above under a displacing schedule: replica 0
 * drains at 1.0 s and is killed 0.2 s later, replica 1 crashes hard
 * at 0.3 s and recovers at 0.9 s after a 0.1 s reload, and replica 2
 * runs at half speed over [0.2, 0.8) s. Both kills fail in-flight
 * work over, so the failover path, the retry backoff and the barrier
 * schedule shape the pinned values. Routing by uncached work leaves
 * replica 0 nothing queued at its drain and no stray session
 * releases; FleetFaults.* in fault_test.cc cover those paths.
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
         {Golden{0.002, 0x1.fddc18336ad1cp-3, 0x1.a6c648909a1b5p-1,
                 0x1.9d43e59dad15p+7, 0x1.7639e4a76d698p-2,
                 0x1.f86d467c16eecp-1},
          Golden{0.0, 0x1.fe1d1dbbf3dfp-3, 0x1.a6bae798b5529p-1,
                 0x1.9d789999d82b5p+7, 0x1.7639e4a76d698p-2,
                 0x1.f86d467c16eecp-1}}) {
        auto f = runSessionAffinityFleet(g.dispatchLatency, faults);
        EXPECT_EQ(f.windows, 24u);
        EXPECT_EQ(f.routedRequests,
                  (std::vector<std::uint64_t>{5, 6, 6, 5}));
        EXPECT_EQ(f.routedSessions,
                  (std::vector<std::uint64_t>{0, 5, 6, 5}));
        EXPECT_EQ(f.evacuatedRequests, 0u);
        EXPECT_EQ(f.retriedRequests, 6u);
        EXPECT_EQ(f.lostRequests, 0u);
        EXPECT_EQ(f.lostTokens, 62u);
        EXPECT_EQ(f.retryHistogram,
                  (std::vector<std::uint64_t>{0, 6, 0, 0}));
        EXPECT_EQ(f.availability,
                  (std::vector<double>{g.availability0, g.availability1,
                                       1.0, 1.0}));
        EXPECT_EQ(f.reloadSeconds, 0x1.999999999999ap-4);
        EXPECT_EQ(f.goodputTokens, 768u);
        EXPECT_EQ(f.aggregate.tokensPerSecond, g.tokensPerSecond);
        EXPECT_EQ(f.aggregate.simEvents, 5974u);
        EXPECT_EQ(f.aggregate.p95TokenGapSeconds, 0x1.06cb93b756108p-3);
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

TEST(ServingEngine, UnsortedConstructorTraceMatchesSorted)
{
    // The constructor sorts a shuffled trace (keeping its time-zero
    // prefix in place, ties and all) back into the sorted one and
    // declares it by arrival: tier 1 carries two explicit targets
    // after the prefix, and the earliest arrival's wins although the
    // shuffled trace lists a later one first.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 24.0, 21);
    for (std::size_t i = 0; i < 3; ++i)
        trace[i].arrivalSeconds = 0.0;
    for (auto &timed : trace) {
        RequestClass &cls = timed.request.cls;
        cls.tier = timed.request.id % 2;
        cls.gapSloSeconds = cls.tier == 0 ? 0.02 : 0.2;
        if (cls.tier == 1 && timed.request.id < 3)
            cls.gapSloSeconds = 0.0; // the prefix sets no target
        if (cls.tier == 1 && timed.request.id >= 24)
            cls.gapSloSeconds = 0.4;
        cls.tenant = (timed.request.id / 2) % 2;
    }
    EngineOptions opts = testEngineOptions();
    opts.sched.kind = SchedPolicyKind::SloAdmission;
    opts.tenantBudgets = {{0, 0.3}, {1, 0.3}};
    auto shuffled = trace;
    std::reverse(shuffled.begin() + 3, shuffled.end());

    auto sorted = ServingEngine(cluster, model, trace, opts).run();
    auto unsorted = ServingEngine(cluster, model, shuffled, opts).run();
    ASSERT_EQ(sorted.classLatencies.size(), 2u);
    EXPECT_EQ(sorted.classLatencies[1].gapSloTargetSeconds, 0.2);
    EXPECT_EQ(sorted.completedRequests, trace.size());
    expectSameResult(unsorted, sorted);
}

TEST(ServingEngine, InjectionBeforeTheTailAfterPartialConsumption)
{
    // The constructor's stream holds trace[0, 18) and the odd
    // requests after it. Once trace[0, 17) has arrived (consuming
    // over half the stream, so its prefix is compacted away), the
    // even requests are injected: they land after the stream's head
    // and before its tail, so each is merged in. The run must equal
    // the one of the merged trace.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 24.0, 22);
    std::vector<TimedRequest> stream(trace.begin(), trace.begin() + 18);
    std::vector<TimedRequest> batch;
    for (std::size_t i = 18; i < trace.size(); ++i)
        (i % 2 ? stream : batch).push_back(trace[i]);
    const double consumed_by = trace[16].arrivalSeconds;
    ASSERT_GT(batch.front().arrivalSeconds, trace[17].arrivalSeconds);
    ASSERT_LT(batch.front().arrivalSeconds, stream.back().arrivalSeconds);

    auto whole =
        ServingEngine(cluster, model, trace, testEngineOptions()).run();
    ServingEngine engine(cluster, model, stream, testEngineOptions());
    engine.declareWorkload(batch);
    engine.prepare();
    engine.advanceTo(consumed_by);
    engine.injectArrivals(batch);
    engine.advanceTo(std::numeric_limits<double>::infinity());
    auto fed = engine.finalize();
    EXPECT_EQ(fed.completedRequests, trace.size());
    expectSameResult(fed, whole);
}

TEST(ServingEngine, ConstructorTimeZeroPrefixIsDeliveredAtPrepare)
{
    // prepare() admits the time-zero prefix at once (its prefills
    // start), and the rest of the stream is still pending.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(16, 24.0, 24);
    for (std::size_t i = 0; i < 3; ++i)
        trace[i].arrivalSeconds = 0.0;
    ServingEngine engine(cluster, model, trace, testEngineOptions());
    engine.prepare();
    auto out = engine.evacuate(false, 0.0);
    ASSERT_EQ(out.queued.size(), trace.size() - 3);
    for (std::size_t i = 3; i < trace.size(); ++i)
        EXPECT_EQ(out.queued[i - 3].request.id, trace[i].request.id) << i;
}

TEST(ServingEngine, EvacuateAfterPartialConsumptionReturnsTheRest)
{
    // Part of the constructor's stream has arrived: the evacuation
    // returns the arrived-but-unadmitted queue and then exactly the
    // records not yet consumed, in trace order.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 24.0, 23);
    const std::size_t arrived = 30;
    ServingEngine engine(cluster, model, trace, testEngineOptions());
    engine.prepare();
    engine.advanceTo(trace[arrived - 1].arrivalSeconds);
    auto out = engine.evacuate(false, trace[arrived - 1].arrivalSeconds);
    ASSERT_GE(out.queued.size(), trace.size() - arrived);
    const std::size_t waiting = out.queued.size() - (trace.size() - arrived);
    for (std::size_t i = 0; i < waiting; ++i)
        EXPECT_LE(out.queued[i].arrivalSeconds,
                  trace[arrived - 1].arrivalSeconds);
    for (std::size_t i = arrived; i < trace.size(); ++i) {
        const TimedRequest &got = out.queued[waiting + i - arrived];
        EXPECT_EQ(got.request.id, trace[i].request.id) << i;
        EXPECT_EQ(got.arrivalSeconds, trace[i].arrivalSeconds) << i;
    }
    engine.advanceTo(std::numeric_limits<double>::infinity());
    EXPECT_EQ(engine.finalize().completedRequests + out.queued.size(),
              trace.size());
}

TEST(ServingEngineDeathTest, NaNInUnsortedConstructorTraceIsFatal)
{
    // Unsorted, so a sort would run: the NaN must be rejected at its
    // own index before any comparison could move it.
    auto model = testModel();
    auto cluster = testCluster(model);
    std::vector<TimedRequest> trace = {{{0, 2000, 16}, 3.0},
                                       {{1, 2000, 16}, std::nan("")},
                                       {{2, 2000, 16}, 2.0},
                                       {{3, 2000, 16}, 1.0}};
    EXPECT_DEATH(ServingEngine(cluster, model, trace, testEngineOptions()),
                 "ServingEngine: arrivalSeconds of request 1 at index 1 "
                 "is NaN");
}

TEST(ServingEngineDeathTest, DuplicateRequestIdIsFatal)
{
    // Unchecked, the engine admitted request 7 twice and panicked
    // mid-run. Each declaration point names the id.
    auto model = testModel();
    auto cluster = testCluster(model);
    std::vector<Request> closed = {{7, 2000, 16}, {7, 2000, 16}};
    auto trace = testTrace(12, 8.0, 5);
    trace[9].request.id = 7;
    EXPECT_DEATH(ServingEngine(cluster, model, closed, testEngineOptions()),
                 "ServingEngine: request id 7 is declared twice");
    EXPECT_DEATH(ServingEngine(cluster, model, trace, testEngineOptions()),
                 "ServingEngine: request id 7 is declared twice");
    ServingEngine engine(cluster, model, std::vector<TimedRequest>{},
                         testEngineOptions());
    EXPECT_DEATH(engine.declareWorkload(trace),
                 "ServingEngine::declareWorkload: request id 7 is "
                 "declared twice");
    // A declared trace is checked against the constructor's requests.
    ServingEngine seven(cluster, model, std::vector<Request>{closed[0]},
                        testEngineOptions());
    EXPECT_DEATH(seven.declareWorkload(testTrace(12, 8.0, 5)),
                 "ServingEngine::declareWorkload: request id 7 is "
                 "declared twice");
}

/** The displacing schedule of FleetGolden.DisplacingFaults. */
FaultSchedule
displacingFaults()
{
    FaultSchedule faults;
    faults.replicas.resize(4);
    faults.replicas[0].push_back(crashAt(1.0, 0.2));
    faults.replicas[1].push_back(crashAt(0.3));
    faults.replicas[1].push_back(recoverAt(0.9, 0.1));
    faults.replicas[2].push_back(degradeAt(0.2, 2.0, 0.6));
    return faults;
}

TEST(FleetEngine, GoodputIsTheDecodeOfEveryCompletion)
{
    // Each replica counts goodput at completion and the fleet sums
    // them: under displacing faults, where kills discard partial
    // decodes and failed-over requests complete elsewhere, that must
    // equal the declared decode tokens of every id in a replica's
    // completions.
    auto built = sessionAffinityWorkload();
    for (double d : {0.002, 0.0}) {
        auto f = runSessionAffinityFleet(d, displacingFaults());
        EXPECT_GT(f.lostTokens, 0u);
        expectGoodputIsCompletedDecode(f, built.initial, built.sessions);
    }
}

TEST(FleetEngine, AdvanceInStepsMatchesRun)
{
    // The displacing schedule, so the stepped runs cross a drain,
    // kills and a reload as well as routing barriers.
    const FaultSchedule faults = displacingFaults();
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

TEST(FleetEngine, AdvanceInStepsMatchesRunAcrossQueuedEvacuation)
{
    // Routing by uncached work leaves displacingFaults()' drain of
    // replica 0 nothing queued. Here the replicas are memory-tight
    // (two requests fill the KV capacity) and the trace offers three
    // per replica, so replica 1 holds an admission backlog when it
    // drains at 0.05 s; the stepped runs must evacuate it exactly as
    // run() does.
    auto model = testModel();
    auto cluster = ClusterConfig::centLike(model);
    cluster.nModules = 2;
    cluster.plan = ParallelPlan{2, 1};
    applyOptions(cluster, PimphonyOptions::all());
    Tokens per_req = cluster.usableKvBytes(model) /
                     model.kvBytesPerToken() / 2;
    std::vector<TimedRequest> trace;
    for (RequestId i = 0; i < 12; ++i)
        trace.push_back({Request(i, per_req - 64, 32),
                         0.001 * static_cast<double>(i)});
    const double inf = std::numeric_limits<double>::infinity();

    for (double d : {0.01, 0.0}) {
        FleetOptions fopts;
        fopts.replicas = 4;
        fopts.policy = RoutePolicy::PrefixAffinity;
        fopts.dispatchLatencySeconds = d;
        fopts.engine = testEngineOptions();
        fopts.faults.replicas.resize(4);
        fopts.faults.replicas[1].push_back(crashAt(0.05, 10000.0));
        for (unsigned threads : {1u, 4u}) {
            fopts.threads = threads;
            auto whole = FleetEngine(cluster, model, trace, fopts).run();
            FleetEngine fleet(cluster, model, trace, fopts);
            fleet.prepare();
            // Before the drain; exactly on it, twice; just after.
            for (double h : {0.02, 0.05, 0.05, 0.06}) {
                fleet.advanceTo(h);
                EXPECT_FALSE(fleet.drained());
            }
            fleet.advanceTo(inf);
            EXPECT_TRUE(fleet.drained());
            auto stepped = fleet.finalize();
            expectSameFleet(whole, stepped);
            EXPECT_GT(stepped.evacuatedRequests, 0u);
            EXPECT_EQ(stepped.aggregate.completedRequests, trace.size());
        }
    }
}

TEST(FleetEngine, WritingTheCallersBookAfterSetSessionsChangesNothing)
{
    // The caller writes its book after setSessions(): the write
    // clones the storage, so the four threads that advance the
    // replicas read a table nothing writes.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionAffinityWorkload();
    FleetOptions fopts;
    fopts.replicas = 4;
    fopts.policy = RoutePolicy::PrefixAffinity;
    fopts.dispatchLatencySeconds = 0.002;
    fopts.engine = testEngineOptions();
    fopts.engine.prefixCache.enabled = true;
    fopts.threads = 4;
    auto run = [&](bool write_after) {
        FleetEngine fleet(cluster, model, built.initial, fopts);
        SessionBook book = built.sessions;
        fleet.setSessions(book);
        if (write_after)
            extendOneSession(book, built.initial);
        return fleet.run();
    };
    const FleetResult unedited = run(false);
    expectSameFleet(run(true), unedited);

    // The edit is one a run would see when declared.
    extendOneSession(built.sessions, built.initial);
    EXPECT_EQ(run(false).aggregate.completedRequests,
              unedited.aggregate.completedRequests + 1);
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

TEST(FleetEngineDeathTest, NaNInUnsortedTraceIsFatal)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    std::vector<TimedRequest> trace = {{{0, 2000, 16}, 3.0},
                                       {{1, 2000, 16}, std::nan("")},
                                       {{2, 2000, 16}, 2.0},
                                       {{3, 2000, 16}, 1.0}};
    EXPECT_DEATH(FleetEngine(cluster, model, trace, FleetOptions{}),
                 "sortByArrival: arrivalSeconds of request 1 at index 1 "
                 "is NaN");
}

TEST(FleetEngineDeathTest, DuplicateRequestIdIsFatal)
{
    // Unchecked, a 2-replica fleet ran both copies of request 7 and
    // broke its token ledger.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(12, 8.0, 5);
    trace[9].request.id = 7;
    FleetOptions opts;
    opts.replicas = 2;
    opts.engine = testEngineOptions();
    EXPECT_DEATH(FleetEngine(cluster, model, trace, opts),
                 "FleetEngine: request id 7 is declared twice");
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

// --- (h) One validate() per options struct. ----------------------------

/** A regex matching @p text literally. */
std::string
literal(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (std::strchr("[]().*+?", c))
            out += '\\';
        out += c;
    }
    return out;
}

/** NaN, both infinities and the out-of-range side of @p range. */
std::vector<double>
badValues(FieldRange range)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> out{std::nan(""), inf, -inf};
    switch (range) {
      case FieldRange::Finite:
        break;
      case FieldRange::NonNegative:
        out.push_back(-1e-3);
        break;
      case FieldRange::Positive:
        out.insert(out.end(), {0.0, -1.0});
        break;
      case FieldRange::Fraction:
        out.insert(out.end(), {-0.25, 1.5});
        break;
    }
    return out;
}

/** One real field of an options struct: its name as validate()
 *  reports it, its range, and how to set it. */
template <typename Options>
struct RealField
{
    const char *name;
    FieldRange range;
    std::function<void(Options &, double)> set;
};

/** Expect every bad value of every field in @p fields to die in
 *  @p enter (the configuration's entry point), naming the field. */
template <typename Options>
void
expectEachBadValueNamed(const Options &valid,
                        const std::vector<RealField<Options>> &fields,
                        const std::function<void(const Options &)> &enter)
{
    for (const auto &f : fields) {
        for (double bad : badValues(f.range)) {
            Options options = valid;
            f.set(options, bad);
            EXPECT_DEATH(enter(options), literal(f.name))
                << f.name << " = " << bad;
        }
    }
}

TEST(OptionsDeathTest, EveryBadEngineValueNamesItsField)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto enter = [&](const EngineOptions &o) {
        ServingEngine engine(cluster, model, std::vector<TimedRequest>{}, o);
    };
    using F = RealField<EngineOptions>;
    expectEachBadValueNamed<EngineOptions>(
        testEngineOptions(),
        {
            F{"EngineOptions::sched.sloTargetGapSeconds", FieldRange::Finite,
              [](EngineOptions &o, double v) {
                  o.sched.sloTargetGapSeconds = v;
              }},
            F{"EngineOptions::tenantBudgets[1].share", FieldRange::Fraction,
              [](EngineOptions &o, double v) {
                  o.tenantBudgets = {{0, 0.5}, {1, v}};
              }},
            F{"EngineOptions::prefixCache.maxShare", FieldRange::Fraction,
              [](EngineOptions &o, double v) { o.prefixCache.maxShare = v; }},
        },
        std::function<void(const EngineOptions &)>(enter));

    // Positive where the policy uses the value.
    struct PolicyCase
    {
        SchedPolicyKind kind;
        const char *field;
        std::function<void(SchedPolicyConfig &)> zero;
    };
    const std::vector<PolicyCase> used = {
        {SchedPolicyKind::SloAdmission, "sloTargetGapSeconds",
         [](SchedPolicyConfig &c) { c.sloTargetGapSeconds = 0.0; }},
    };
    for (const auto &c : used) {
        EngineOptions o = testEngineOptions();
        o.sched.kind = c.kind;
        c.zero(o.sched);
        const std::string needs = schedPolicyName(c.kind) +
                                  " needs a positive EngineOptions::sched\\.";
        EXPECT_DEATH(enter(o), needs + c.field) << c.field;
    }
    EngineOptions twice = testEngineOptions();
    twice.tenantBudgets = {{3, 0.25}, {3, 0.25}};
    EXPECT_DEATH(enter(twice), "EngineOptions::tenantBudgets\\[1\\]: "
                               "tenant 3 already has a budget");
    EngineOptions static_cache = testEngineOptions();
    static_cache.allocator = AllocatorKind::Static;
    static_cache.prefixCache.enabled = true;
    EXPECT_DEATH(enter(static_cache),
                 "EngineOptions::prefixCache\\.enabled requires the "
                 "LazyChunk allocator");
}

TEST(OptionsDeathTest, EveryBadFleetValueNamesItsField)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(4, 8.0, 3);
    auto enter = [&](const FleetOptions &o) {
        FleetEngine fleet(cluster, model, trace, o);
    };
    auto one_event = [](FleetOptions &o, std::vector<FaultEvent> events) {
        o.faults.replicas = {std::move(events)};
    };
    FleetOptions valid;
    valid.replicas = 2;
    valid.engine = testEngineOptions();
    using F = RealField<FleetOptions>;
    expectEachBadValueNamed<FleetOptions>(
        valid,
        {
            F{"FleetOptions::dispatchLatencySeconds",
              FieldRange::NonNegative,
              [](FleetOptions &o, double v) {
                  o.dispatchLatencySeconds = v;
              }},
            F{"FleetOptions::retryBackoffSeconds", FieldRange::NonNegative,
              [](FleetOptions &o, double v) { o.retryBackoffSeconds = v; }},
            F{"FleetOptions::faults.replicas[0][0].atSeconds",
              FieldRange::NonNegative,
              [&](FleetOptions &o, double v) { one_event(o, {crashAt(v)}); }},
            F{"FleetOptions::faults.replicas[0][0].drainSeconds",
              FieldRange::NonNegative,
              [&](FleetOptions &o, double v) {
                  one_event(o, {crashAt(1.0, v)});
              }},
            F{"FleetOptions::faults.replicas[0][1].modelReloadSeconds",
              FieldRange::NonNegative,
              [&](FleetOptions &o, double v) {
                  one_event(o, {crashAt(1.0), recoverAt(2.0, v)});
              }},
            F{"FleetOptions::faults.replicas[0][0].slowdownFactor",
              FieldRange::Positive,
              [&](FleetOptions &o, double v) {
                  one_event(o, {degradeAt(1.0, v, 1.0)});
              }},
            F{"FleetOptions::faults.replicas[0][0].durationSeconds",
              FieldRange::Positive,
              [&](FleetOptions &o, double v) {
                  one_event(o, {degradeAt(1.0, 2.0, v)});
              }},
            // The replicas' engine options, checked by the fleet.
            F{"FleetOptions::engine.sched.sloTargetGapSeconds",
              FieldRange::Finite,
              [](FleetOptions &o, double v) {
                  o.engine.sched.sloTargetGapSeconds = v;
              }},
            F{"FleetOptions::engine.tenantBudgets[0].share",
              FieldRange::Fraction,
              [](FleetOptions &o, double v) {
                  o.engine.tenantBudgets = {{0, v}};
              }},
            F{"FleetOptions::engine.prefixCache.maxShare",
              FieldRange::Fraction,
              [](FleetOptions &o, double v) {
                  o.engine.prefixCache.maxShare = v;
              }},
        },
        std::function<void(const FleetOptions &)>(enter));

    FleetOptions none = valid;
    none.replicas = 0;
    EXPECT_DEATH(enter(none), "FleetOptions::replicas must be at least 1 "
                              "\\(got 0\\)");
}

TEST(OptionsDeathTest, FleetRejectsBadEngineOptionsAtConstruction)
{
    // The first replica's prepare() used to find this, naming no
    // fleet field.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(4, 8.0, 3);
    FleetOptions options;
    options.engine = testEngineOptions();
    options.engine.tenantBudgets = {{0, 2.0}};
    EXPECT_DEATH(FleetEngine(cluster, model, trace, options),
                 "FleetOptions::engine\\.tenantBudgets\\[0\\]\\.share must be "
                 "in \\[0, 1\\] \\(got 2");
}

TEST(OptionsDeathTest, OrchestratorRejectsBadConfigAtConstruction)
{
    // The orchestrator checked nothing until evaluate().
    OrchestratorConfig nan_target;
    nan_target.sched.sloTargetGapSeconds = std::nan("");
    EXPECT_DEATH(PimphonyOrchestrator{nan_target},
                 "OrchestratorConfig::sched\\.sloTargetGapSeconds must be "
                 "finite");
    OrchestratorConfig budget;
    budget.tenantBudgets = {{0, 2.0}};
    EXPECT_DEATH(PimphonyOrchestrator{budget},
                 "OrchestratorConfig::tenantBudgets\\[0\\]\\.share");
    OrchestratorConfig cache;
    cache.options.dpa = false;
    cache.prefixCache.enabled = true;
    EXPECT_DEATH(PimphonyOrchestrator{cache},
                 "OrchestratorConfig::prefixCache\\.enabled requires the "
                 "LazyChunk allocator");
    OrchestratorConfig silent;
    silent.decodeTokens = 0;
    EXPECT_DEATH(PimphonyOrchestrator{silent},
                 "OrchestratorConfig::decodeTokens must be at least 1");
    OrchestratorConfig defaults;
    PimphonyOrchestrator fine(defaults);
    EXPECT_EQ(fine.config().maxSteps, EngineOptions{}.maxSteps);
}

TEST(OptionsDeathTest, EveryBadWorkloadValueNamesItsField)
{
    WorkloadSpec valid;
    valid.count = 4;
    auto enter = [](const WorkloadSpec &s) { buildWorkload(s, 1); };
    auto arrival = [](ArrivalKind kind) {
        return [kind](WorkloadSpec &s) {
            s.arrival.kind = kind;
            s.arrival.onOff.offRate = 1.0;
            s.arrival.curve = RateCurve::fromRates({1.0, 2.0}, 1.0);
        };
    };
    using F = RealField<WorkloadSpec>;
    auto field = [](const char *name, FieldRange range,
                    std::function<void(WorkloadSpec &)> kind,
                    std::function<void(WorkloadSpec &, double)> set) {
        return F{name, range, [kind, set](WorkloadSpec &s, double v) {
                     kind(s);
                     set(s, v);
                 }};
    };
    auto any = [](WorkloadSpec &) {};
    expectEachBadValueNamed<WorkloadSpec>(
        valid,
        {
            field("ArrivalSpec::ratePerSecond", FieldRange::Positive,
                  arrival(ArrivalKind::Poisson),
                  [](WorkloadSpec &s, double v) {
                      s.arrival.ratePerSecond = v;
                  }),
            field("ArrivalSpec::ratePerSecond", FieldRange::Positive,
                  arrival(ArrivalKind::Gamma),
                  [](WorkloadSpec &s, double v) {
                      s.arrival.ratePerSecond = v;
                  }),
            field("ArrivalSpec::cv", FieldRange::Positive,
                  arrival(ArrivalKind::Gamma),
                  [](WorkloadSpec &s, double v) { s.arrival.cv = v; }),
            field("ArrivalSpec::onOff.onRate", FieldRange::NonNegative,
                  arrival(ArrivalKind::OnOff),
                  [](WorkloadSpec &s, double v) {
                      s.arrival.onOff.onRate = v;
                  }),
            field("ArrivalSpec::onOff.offRate", FieldRange::NonNegative,
                  arrival(ArrivalKind::OnOff),
                  [](WorkloadSpec &s, double v) {
                      s.arrival.onOff.offRate = v;
                  }),
            field("ArrivalSpec::onOff.meanOnSeconds", FieldRange::Positive,
                  arrival(ArrivalKind::OnOff),
                  [](WorkloadSpec &s, double v) {
                      s.arrival.onOff.meanOnSeconds = v;
                  }),
            field("ArrivalSpec::onOff.meanOffSeconds", FieldRange::Positive,
                  arrival(ArrivalKind::OnOff),
                  [](WorkloadSpec &s, double v) {
                      s.arrival.onOff.meanOffSeconds = v;
                  }),
            field("ArrivalSpec::curve.segments[0].seconds",
                  FieldRange::Positive, arrival(ArrivalKind::RateCurve),
                  [](WorkloadSpec &s, double v) {
                      s.arrival.curve.segments[0].seconds = v;
                  }),
            field("ArrivalSpec::curve.segments[0].ratePerSecond",
                  FieldRange::NonNegative, arrival(ArrivalKind::RateCurve),
                  [](WorkloadSpec &s, double v) {
                      s.arrival.curve.segments[0].ratePerSecond = v;
                  }),
            field("WorkloadSpec::classes[1].gapSloSeconds",
                  FieldRange::NonNegative, any,
                  [](WorkloadSpec &s, double v) {
                      s.classes = {RequestClass{}, RequestClass{1, v, 0}};
                  }),
            field("WorkloadSpec::session.thinkMeanSeconds",
                  FieldRange::NonNegative,
                  [](WorkloadSpec &s) { s.session.turns = 2; },
                  [](WorkloadSpec &s, double v) {
                      s.session.thinkMeanSeconds = v;
                  }),
            field("WorkloadSpec::prefix.share", FieldRange::Fraction,
                  [](WorkloadSpec &s) { s.prefix.tokens = 16; },
                  [](WorkloadSpec &s, double v) { s.prefix.share = v; }),
        },
        std::function<void(const WorkloadSpec &)>(enter));

    // Counts, and sources with nothing to draw.
    struct CountCase
    {
        const char *message;
        std::function<void(WorkloadSpec &)> set;
    };
    const std::vector<CountCase> counts = {
        {"WorkloadSpec::length.decodeTokens must be at least 1",
         [](WorkloadSpec &s) { s.length.decodeTokens = 0; }},
        {"WorkloadSpec::length.pairs\\[0\\].decodeTokens must be at least 1",
         [](WorkloadSpec &s) {
             s.length.kind = LengthSourceKind::Pairs;
             s.length.pairs = {{128, 0}};
         }},
        {"WorkloadSpec::length.pairs: the Pairs length source needs",
         [](WorkloadSpec &s) { s.length.kind = LengthSourceKind::Pairs; }},
        {"WorkloadSpec::length.histogram: the Histogram length source needs",
         [](WorkloadSpec &s) {
             s.length.kind = LengthSourceKind::Histogram;
         }},
        {"WorkloadSpec::session.turns must be at least 1 \\(got 0\\)",
         [](WorkloadSpec &s) { s.session.turns = 0; }},
        {"WorkloadSpec::prefix.pool must be at least 1 \\(got 0\\)",
         [](WorkloadSpec &s) {
             s.prefix = PrefixSpec{0.5, 0, 16};
         }},
    };
    for (const auto &c : counts) {
        WorkloadSpec spec = valid;
        c.set(spec);
        EXPECT_DEATH(enter(spec), c.message);
    }
}

} // namespace
} // namespace pimphony
