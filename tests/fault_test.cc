/**
 * @file
 * Fault-tolerance tests for the fleet: deterministic fault
 * schedules, replica drain/evacuation, retry-with-backoff failover
 * routing, and the fault metrics.
 *
 * The acceptance properties:
 *  (a) additivity — an empty FaultSchedule reports trivial fault
 *      metrics, and a schedule whose faults never displace work
 *      (slowdown-1.0 brown-out) routes and serves bit-identically
 *      to a fleet without faults;
 *  (b) a T-thread fault run is bit-identical to a serial one, for
 *      both routing policies, fault metrics included;
 *  (c) accounting — every generated request is completed, lost, or
 *      rejected, exactly once, and generatedTokens decomposes into
 *      goodputTokens + lostTokens + recomputedTokens under
 *      crash-mid-decode failover and preemption;
 *  (d) drain evacuations, stranded session successors, availability
 *      and reload accounting behave as scripted.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "result_eq.hh"
#include "system/engine.hh"
#include "system/fault.hh"
#include "system/fleet.hh"
#include "system/prefill.hh"
#include "workload/arrival.hh"
#include "workload/session.hh"
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
testTrace(std::size_t n, double rate, std::uint64_t seed,
          Tokens decode = 16)
{
    std::vector<Request> reqs;
    for (RequestId i = 0; i < n; ++i)
        reqs.push_back({i, (i % 4 == 0) ? Tokens(20000) : Tokens(2000),
                        decode});
    PoissonProcess arrivals(rate);
    return attachArrivals(reqs, arrivals, seed);
}

// --- FaultSchedule: generation and validation. -------------------------

TEST(FaultSchedule, BuilderIsAPureFunctionOfSpecAndSeed)
{
    FaultSpec spec;
    spec.replicas = 4;
    spec.horizonSeconds = 1000.0;
    spec.mtbfSeconds = 40.0;
    spec.mttrSeconds = 5.0;
    spec.modelReloadSeconds = 2.0;
    spec.degradeProbability = 0.3;
    spec.drainSeconds = 1.0;

    auto a = buildFaultSchedule(spec, 7);
    auto b = buildFaultSchedule(spec, 7);
    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    ASSERT_GT(a.eventCount(), 0u);
    for (std::size_t r = 0; r < a.replicas.size(); ++r) {
        ASSERT_EQ(a.replicas[r].size(), b.replicas[r].size());
        for (std::size_t i = 0; i < a.replicas[r].size(); ++i) {
            EXPECT_EQ(a.replicas[r][i].kind, b.replicas[r][i].kind);
            EXPECT_EQ(a.replicas[r][i].atSeconds,
                      b.replicas[r][i].atSeconds);
            EXPECT_EQ(a.replicas[r][i].durationSeconds,
                      b.replicas[r][i].durationSeconds);
        }
    }
    // A different seed draws a different history.
    auto c = buildFaultSchedule(spec, 8);
    bool differs = c.eventCount() != a.eventCount();
    for (std::size_t r = 0; !differs && r < a.replicas.size(); ++r)
        differs = a.replicas[r].size() != c.replicas[r].size() ||
                  (!a.replicas[r].empty() &&
                   a.replicas[r][0].atSeconds !=
                       c.replicas[r][0].atSeconds);
    EXPECT_TRUE(differs);
}

TEST(FaultSchedule, PerReplicaStreamsAreFleetSizeIndependent)
{
    FaultSpec small;
    small.replicas = 2;
    small.horizonSeconds = 500.0;
    small.mtbfSeconds = 30.0;
    FaultSpec big = small;
    big.replicas = 6;

    auto a = buildFaultSchedule(small, 11);
    auto b = buildFaultSchedule(big, 11);
    for (std::size_t r = 0; r < small.replicas; ++r) {
        ASSERT_EQ(a.replicas[r].size(), b.replicas[r].size());
        for (std::size_t i = 0; i < a.replicas[r].size(); ++i)
            EXPECT_EQ(a.replicas[r][i].atSeconds,
                      b.replicas[r][i].atSeconds);
    }
}

TEST(FaultSchedule, ValidateRejectsMalformedSchedules)
{
    FaultSchedule extra;
    extra.replicas.resize(3);
    extra.replicas[2].push_back(crashAt(1.0));
    EXPECT_DEATH(extra.validate(2), "replica 2 of a 2-replica fleet");
    // Empty slots beyond the fleet script nothing and validate.
    FaultSchedule padded;
    padded.replicas.resize(3);
    padded.validate(2);

    FaultSchedule unsorted;
    unsorted.replicas.resize(1);
    unsorted.replicas[0].push_back(crashAt(5.0));
    unsorted.replicas[0].push_back(recoverAt(1.0, 0.0));
    EXPECT_DEATH(unsorted.validate(1), "out of order");

    FaultSchedule doublecrash;
    doublecrash.replicas.resize(1);
    doublecrash.replicas[0].push_back(crashAt(1.0));
    doublecrash.replicas[0].push_back(crashAt(2.0));
    EXPECT_DEATH(doublecrash.validate(1), "while still down");

    FaultSchedule orphan;
    orphan.replicas.resize(1);
    orphan.replicas[0].push_back(recoverAt(1.0, 0.0));
    EXPECT_DEATH(orphan.validate(1), "without a preceding crash");
}

// --- (a) Additivity. ---------------------------------------------------

TEST(FleetFaults, EmptyScheduleReportsTrivialFaultMetrics)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 32.0, 21);

    FleetOptions fopts;
    fopts.replicas = 3;
    fopts.policy = RoutePolicy::LeastLoaded;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    auto plain = FleetEngine(cluster, model, trace, fopts).run();

    // Replica slots with no events are still an empty schedule.
    fopts.faults.replicas.resize(3);
    auto faulty = FleetEngine(cluster, model, trace, fopts).run();

    EXPECT_EQ(plain.windows, faulty.windows);
    expectSameFleet(plain, faulty);
    // The fault metrics are trivial on both sides.
    EXPECT_EQ(faulty.availability, std::vector<double>(3, 1.0));
    EXPECT_EQ(faulty.evacuatedRequests, 0u);
    EXPECT_EQ(faulty.retriedRequests, 0u);
    EXPECT_EQ(faulty.lostRequests, 0u);
    EXPECT_EQ(faulty.lostTokens, 0u);
    // One bucket per budget notch, all zero: nothing was displaced.
    EXPECT_EQ(faulty.retryHistogram,
              std::vector<std::uint64_t>(fopts.retryBudget + 1, 0));
    EXPECT_EQ(faulty.reloadSeconds, 0.0);
    EXPECT_EQ(faulty.aggregate.completedRequests, trace.size());
    // Everything completed, so goodput equals the decode total.
    std::uint64_t decode_total = 0;
    for (const auto &timed : trace)
        decode_total += timed.request.decodeTokens;
    EXPECT_EQ(faulty.goodputTokens, decode_total);
}

TEST(FleetFaults, NonDisplacingFaultTakesFaultLoopYetMatchesBitForBit)
{
    // A slowdown-1.0 brown-out after the last arrival exercises the
    // full fault state machine (transition barriers, stray sweeps,
    // service-rate scaling) without displacing any work — IEEE
    // multiplication by 1.0 is exact, so the run must still be
    // bit-identical to the fleet without faults on every result
    // field (the sync-round count differs: transition barriers are
    // real).
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 32.0, 22);
    double after_last = trace.back().arrivalSeconds + 0.5;

    for (RoutePolicy policy :
         {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded}) {
        FleetOptions fopts;
        fopts.replicas = 3;
        fopts.policy = policy;
        fopts.dispatchLatencySeconds = 0.004;
        fopts.engine = testEngineOptions();
        auto plain = FleetEngine(cluster, model, trace, fopts).run();

        fopts.faults.replicas.resize(3);
        fopts.faults.replicas[1].push_back(
            degradeAt(after_last, 1.0, 1.0));
        auto benign = FleetEngine(cluster, model, trace, fopts).run();

        // The degrade's start and end are two real sync rounds; with
        // them set aside, every field matches.
        EXPECT_EQ(benign.windows, plain.windows + 2);
        benign.windows = plain.windows;
        expectSameFleet(plain, benign);
        EXPECT_EQ(benign.availability,
                  std::vector<double>(3, 1.0));
        // The displacement-free run still reports its (empty)
        // retry histogram: one bucket per budget notch, all zero.
        ASSERT_EQ(benign.retryHistogram.size(),
                  std::size_t{fopts.retryBudget} + 1);
        for (std::uint64_t n : benign.retryHistogram)
            EXPECT_EQ(n, 0u);
    }
}

// --- (b) Parallel == serial under faults. ------------------------------

TEST(FleetFaults, ParallelFaultRunMatchesSerialBothPolicies)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(64, 48.0, 23, 64);

    FaultSchedule faults;
    faults.replicas.resize(4);
    faults.replicas[0].push_back(degradeAt(0.05, 3.0, 0.2));
    faults.replicas[1].push_back(crashAt(0.08));
    faults.replicas[1].push_back(recoverAt(0.3, 0.05));
    faults.replicas[2].push_back(crashAt(0.15, 0.1));
    faults.replicas[2].push_back(recoverAt(0.6, 0.02));

    for (RoutePolicy policy :
         {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded}) {
        FleetOptions fopts;
        fopts.replicas = 4;
        fopts.policy = policy;
        fopts.dispatchLatencySeconds = 0.004;
        fopts.engine = testEngineOptions();
        fopts.faults = faults;

        fopts.threads = 1;
        auto serial = FleetEngine(cluster, model, trace, fopts).run();
        fopts.threads = 4;
        auto parallel = FleetEngine(cluster, model, trace, fopts).run();

        EXPECT_EQ(serial.windows, parallel.windows);
        expectSameFleet(serial, parallel);
        // The crashes must have actually displaced work, or the
        // comparison is vacuous.
        EXPECT_GT(serial.evacuatedRequests + serial.retriedRequests,
                  0u);
        EXPECT_EQ(serial.aggregate.completedRequests +
                      serial.lostRequests,
                  trace.size());
    }
}

// --- (c) Accounting identities. ----------------------------------------

TEST(FleetFaults, CrashMidDecodeFailsOverWithExactTokenAccounting)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    // Long decodes so the crash reliably lands mid-decode.
    auto trace = testTrace(24, 64.0, 24, 256);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    fopts.faults.replicas.resize(2);
    fopts.faults.replicas[1].push_back(crashAt(0.5));
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    // Replica 0 absorbs every failover: nothing is lost, every
    // request completes exactly once.
    EXPECT_EQ(fleet.lostRequests, 0u);
    EXPECT_EQ(fleet.aggregate.completedRequests, trace.size());
    std::size_t completions = 0;
    for (const auto &r : fleet.replicas)
        completions += r.completionSeconds.size();
    EXPECT_EQ(completions, trace.size());

    // The crash discarded in-flight decode progress...
    EXPECT_GT(fleet.lostTokens, 0u);
    EXPECT_GT(fleet.retriedRequests, 0u);
    // ...and the token ledger balances exactly: every generated
    // token was delivered (goodput), discarded by the kill, or
    // discarded by a preemption.
    std::uint64_t decode_total = 0;
    for (const auto &timed : trace)
        decode_total += timed.request.decodeTokens;
    EXPECT_EQ(fleet.goodputTokens, decode_total);
    expectTokenLedgerBalances(fleet);
    EXPECT_LT(fleet.availability[1], 1.0);
    EXPECT_EQ(fleet.availability[0], 1.0);
}

TEST(FleetFaults, AggregateKeepsTheFirstEmittedToken)
{
    // Replica 0 crashes mid-decode, late enough that requests queued
    // behind its first-come-first-served 20k-token prefills are
    // decoding: requests it killed after their first token record
    // their TTFT there and none on replica 1, where they complete.
    // The aggregate holds one entry per id, in id order, and a
    // failed-over request keeps replica 0's.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(24, 64.0, 24, 256);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    fopts.faults.replicas.resize(2);
    fopts.faults.replicas[0].push_back(crashAt(1.5));
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();
    ASSERT_GT(fleet.lostTokens, 0u);

    const EngineResult &r0 = fleet.replicas[0];
    const EngineResult &r1 = fleet.replicas[1];
    const RequestTimes &agg = fleet.aggregate.firstTokenLatency;
    std::size_t failed_over = 0;
    for (const auto &kv : r0.firstTokenLatency) {
        EXPECT_EQ(timeOf(agg, kv.first), kv.second) << kv.first;
        EXPECT_EQ(r1.firstTokenLatency.count(kv.first), 0u) << kv.first;
        if (!r0.completionSeconds.count(kv.first)) {
            ++failed_over;
            EXPECT_EQ(r1.completionSeconds.count(kv.first), 1u) << kv.first;
        }
    }
    ASSERT_GT(failed_over, 0u);
    EXPECT_EQ(agg.size(),
              r0.firstTokenLatency.size() + r1.firstTokenLatency.size());
    EXPECT_TRUE(std::is_sorted(agg.begin(), agg.end()));
    EXPECT_EQ(fleet.aggregate.completionSeconds.size(), trace.size());
}

TEST(FleetFaults, TtftIsSampledOnceWhicheverReplicaCrashes)
{
    // A request killed after its first token records no second TTFT
    // on the replica it fails over to, whether the crash hits the
    // lower or the higher replica index: the fleet (and each class)
    // holds one TTFT sample per request that emitted a token.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(24, 64.0, 24, 256);
    for (auto &timed : trace)
        timed.request.cls.tier = timed.request.id % 2;

    for (std::size_t crashed : {0u, 1u}) {
        FleetOptions fopts;
        fopts.replicas = 2;
        fopts.policy = RoutePolicy::RoundRobin;
        fopts.dispatchLatencySeconds = 0.004;
        fopts.engine = testEngineOptions();
        fopts.faults.replicas.resize(2);
        fopts.faults.replicas[crashed].push_back(crashAt(1.5));
        auto fleet = FleetEngine(cluster, model, trace, fopts).run();

        const EngineResult &down = fleet.replicas[crashed];
        std::size_t killed_after_first_token = 0;
        for (const auto &kv : down.firstTokenLatency)
            killed_after_first_token +=
                !down.completionSeconds.count(kv.first);
        ASSERT_GT(killed_after_first_token, 0u) << "crash on " << crashed;

        // Every request completes, so every one emitted a token.
        const EngineResult &agg = fleet.aggregate;
        ASSERT_EQ(agg.completedRequests, trace.size());
        EXPECT_EQ(agg.firstTokenLatency.size(), trace.size());
        EXPECT_EQ(agg.firstTokenRuns.count(), trace.size())
            << "crash on " << crashed;
        std::uint64_t class_samples = 0;
        for (const auto &cl : agg.classLatencies)
            class_samples += cl.ttftSamples;
        EXPECT_EQ(class_samples, trace.size()) << "crash on " << crashed;
    }
}

TEST(FleetFaults, ClassTtftAveragesAreWeightedByTtftSamples)
{
    // Two tiers on both replicas of a 2-replica fleet; the crash on
    // replica 1 kills requests mid-decode, after their first token.
    // Their TTFTs stay recorded on replica 1 although they complete
    // on replica 0, so a tier's TTFT samples outnumber its completed
    // requests there and the fleet's per-class TTFT average must
    // weight by the samples, not by completions.
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(24, 64.0, 24, 256);
    std::map<RequestId, unsigned> tier_of;
    for (auto &timed : trace) {
        timed.request.cls.tier = (timed.request.id / 2) % 2;
        tier_of[timed.request.id] = timed.request.cls.tier;
    }

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    fopts.faults.replicas.resize(2);
    fopts.faults.replicas[1].push_back(crashAt(0.5));
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    ASSERT_GT(fleet.lostTokens, 0u);
    ASSERT_EQ(fleet.aggregate.completedRequests, trace.size());
    bool killed_after_first_token = false;
    for (const auto &cl : fleet.replicas[1].classLatencies)
        killed_after_first_token |= cl.ttftSamples > cl.completedRequests;
    ASSERT_TRUE(killed_after_first_token);

    // Ground truth: every replica's TTFT samples, grouped by tier.
    std::map<unsigned, double> sum;
    std::map<unsigned, std::uint64_t> count;
    for (const EngineResult &r : fleet.replicas)
        for (const auto &kv : r.firstTokenLatency) {
            sum[tier_of.at(kv.first)] += kv.second;
            ++count[tier_of.at(kv.first)];
        }
    ASSERT_EQ(fleet.aggregate.classLatencies.size(), 2u);
    for (const auto &agg : fleet.aggregate.classLatencies) {
        double mean = sum[agg.tier] / static_cast<double>(count[agg.tier]);
        EXPECT_EQ(agg.ttftSamples, count[agg.tier]) << "tier " << agg.tier;
        EXPECT_NEAR(agg.avgFirstTokenSeconds, mean, 1e-12 * mean)
            << "tier " << agg.tier;
        // Weighting by completed requests gives a different average.
        double done_sum = 0.0, done_n = 0.0;
        for (const EngineResult &r : fleet.replicas)
            for (const auto &cl : r.classLatencies)
                if (cl.tier == agg.tier) {
                    double w = static_cast<double>(cl.completedRequests);
                    done_sum += cl.avgFirstTokenSeconds * w;
                    done_n += w;
                }
        EXPECT_GT(std::abs(done_sum / done_n - mean), 1e-9 * mean)
            << "tier " << agg.tier;
    }
}

TEST(FleetFaults, DeadFleetLosesTheRemainderExactly)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(32, 16.0, 25, 128);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    // Both replicas die with no recovery scripted: whatever has not
    // completed by then is lost — and the ledger must account for
    // every single request.
    fopts.faults.replicas.resize(2);
    fopts.faults.replicas[0].push_back(crashAt(0.5));
    fopts.faults.replicas[1].push_back(crashAt(0.3));
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    EXPECT_GT(fleet.lostRequests, 0u);
    EXPECT_EQ(fleet.aggregate.completedRequests + fleet.lostRequests +
                  fleet.aggregate.rejectedRequests,
              trace.size());
    expectTokenLedgerBalances(fleet);
    // Each replica's clock covers its crash, replica 0's too, although
    // it was only prefilling when it struck.
    EXPECT_GE(fleet.replicas[0].simulatedSeconds, 0.5);
    EXPECT_GE(fleet.replicas[1].simulatedSeconds, 0.3);
    EXPECT_LT(fleet.availability[0], 1.0);
    EXPECT_LT(fleet.availability[1], 1.0);
}

TEST(FleetFaults, CrashAndPreemptionBalanceTheTokenLedger)
{
    // Memory-tight replicas: the KV budget only just covers two
    // small-context, long-decode trajectories. The crash on
    // replica 1 kills its in-flight decodes and fails them over to
    // replica 0, whose extra admissions then run it out of memory,
    // so it preempts and recomputes. Both kinds of discarded tokens
    // must be accounted for exactly.
    auto model = testModel();
    const Tokens ctx = 1000, decode = 2000;
    auto cluster = ClusterConfig::centLike(model);
    cluster.nModules = 2;
    cluster.plan = ParallelPlan{2, 1};
    Bytes kv_budget = model.kvBytesPerToken() * (2 * ctx + 2 * 1800);
    cluster.module.capacityBytes =
        (kv_budget + model.weightBytes()) / cluster.nModules + 1;
    applyOptions(cluster, PimphonyOptions::all());

    std::vector<TimedRequest> trace;
    for (RequestId i = 0; i < 6; ++i)
        trace.push_back({Request(i, ctx, decode),
                         0.01 * static_cast<double>(i)});

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    fopts.faults.replicas.resize(2);
    fopts.faults.replicas[1].push_back(crashAt(3.0));
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    EXPECT_GT(fleet.aggregate.preemptions, 0u);
    EXPECT_GT(fleet.aggregate.recomputedTokens, 0u);
    EXPECT_GT(fleet.lostTokens, 0u);
    EXPECT_EQ(fleet.aggregate.completedRequests + fleet.lostRequests,
              trace.size());
    expectGoodputIsCompletedDecode(fleet, trace, SessionBook{});
}

TEST(FleetFaults, RetryBudgetExhaustionDropsAndHistogramsRequests)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(16, 32.0, 26, 128);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    fopts.retryBudget = 0; // first displacement is fatal
    fopts.faults.replicas.resize(2);
    fopts.faults.replicas[1].push_back(crashAt(0.2));
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    // With no retries allowed, every displaced request is lost and
    // lands in the budget-capped histogram bucket.
    EXPECT_GT(fleet.lostRequests, 0u);
    EXPECT_EQ(fleet.retriedRequests, 0u);
    ASSERT_EQ(fleet.retryHistogram.size(), 1u);
    EXPECT_EQ(fleet.retryHistogram[0], fleet.lostRequests);
    EXPECT_EQ(fleet.aggregate.completedRequests + fleet.lostRequests,
              trace.size());
}

// --- (d) Drain, sessions, availability. --------------------------------

TEST(FleetFaults, DrainEvacuatesQueuedWorkAndFinishesInFlight)
{
    // Memory-tight replicas (two requests fill the KV capacity, the
    // third queues unadmitted) so the draining replica holds a real
    // admission backlog to evacuate.
    auto model = testModel();
    auto cluster = ClusterConfig::centLike(model);
    cluster.nModules = 2;
    cluster.plan = ParallelPlan{2, 1};
    applyOptions(cluster, PimphonyOptions::all());
    Tokens cap = cluster.usableKvBytes(model) / model.kvBytesPerToken();
    Tokens per_req = cap / 2;

    std::vector<TimedRequest> trace;
    for (RequestId i = 0; i < 6; ++i)
        trace.push_back({Request(i, per_req - 64, 32),
                         0.001 * static_cast<double>(i)});

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.01;
    fopts.engine = testEngineOptions();
    fopts.faults.replicas.resize(2);
    // Generous grace: in-flight work finishes, only queued work
    // migrates.
    fopts.faults.replicas[1].push_back(crashAt(0.05, 10000.0));
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    EXPECT_GT(fleet.evacuatedRequests, 0u);
    EXPECT_EQ(fleet.lostRequests, 0u);
    EXPECT_EQ(fleet.lostTokens, 0u); // nothing was killed mid-flight
    EXPECT_EQ(fleet.aggregate.completedRequests, trace.size());
    // The drained replica finished what it had admitted.
    EXPECT_GT(fleet.replicas[1].completedRequests, 0u);
    EXPECT_LT(fleet.availability[1], 1.0);
}

TEST(FleetFaults, StrandedSessionSuccessorRePinsAfterCrash)
{
    auto model = testModel();
    auto cluster = testCluster(model);

    // One session whose turn 0 lands on replica 0 (round-robin) and
    // completes quickly; the successor releases after an 8 s think,
    // by which time replica 0 has crashed. The stray sweep must
    // migrate it and the session must re-pin to replica 1.
    Request turn0(0, 2000, 16);
    turn0.session = 1;
    turn0.turn = 0;
    Request filler(1, 2000, 16);
    Request turn1(2, 1000, 16);
    turn1.session = 1;
    turn1.turn = 1;
    std::vector<TimedRequest> trace = {{turn0, 0.0}, {filler, 0.0}};
    SessionBook sessions;
    sessions.emplace(turn0.id, SessionTurn{turn1, 8.0});

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    fopts.faults.replicas.resize(2);
    fopts.faults.replicas[0].push_back(crashAt(3.0));
    FleetEngine fleet_engine(cluster, model, trace, fopts);
    fleet_engine.setSessions(sessions);
    auto fleet = fleet_engine.run();

    EXPECT_EQ(fleet.aggregate.completedRequests, 3u);
    EXPECT_EQ(fleet.lostRequests, 0u);
    EXPECT_GE(fleet.evacuatedRequests, 1u);
    EXPECT_GE(fleet.retriedRequests, 1u);
    // The successor completed on the surviving replica, and the pin
    // followed it.
    EXPECT_EQ(fleet.replicas[1].completionSeconds.count(turn1.id), 1u);
    EXPECT_EQ(fleet.routedSessions[1], 1u);
    EXPECT_LT(fleet.availability[0], 1.0);
}

TEST(EngineCrash, RestoredEngineServesLikeAFreshOne)
{
    // A crash kills a 30k-token request mid-prefill. The chunk on the
    // device runs out, but none of the request's later chunks
    // launch, so a request injected after restoreService() finds an
    // idle xPU and sees exactly a fresh engine's TTFT.
    auto model = testModel();
    auto cluster = testCluster(model);
    const TimedRequest late{{1, 4096, 16}, 0.2};

    ServingEngine crashed(cluster, model, {{{0, 30000, 16}, 0.0}},
                          testEngineOptions());
    crashed.prepare();
    crashed.advanceTo(0.1);
    auto out = crashed.evacuate(true, 0.1);
    ASSERT_EQ(out.inFlight.size(), 1u);
    crashed.restoreService();
    crashed.injectArrivals({late});
    crashed.advanceTo(std::numeric_limits<double>::infinity());
    auto r = crashed.finalize();

    auto fresh =
        ServingEngine(cluster, model, {late}, testEngineOptions()).run();
    ASSERT_EQ(r.completedRequests, 1u);
    EXPECT_EQ(r.firstTokenLatency.count(0), 0u);
    EXPECT_EQ(timeOf(r.firstTokenLatency, 1),
              timeOf(fresh.firstTokenLatency, 1));
    // The killed request's xPU time is what reached a device by the
    // crash, a small share of its full prefill.
    const Tokens chunk = testEngineOptions().prefillChunkTokens;
    auto chunks = prefillChunkSeconds(model, 30000, chunk, cluster.xpu,
                                      cluster.prefillEngines());
    double full = std::accumulate(chunks.begin(), chunks.end(), 0.0) *
                  cluster.prefillEngines() / cluster.plan.tp;
    double killed = r.xpuPrefillBusySeconds - fresh.xpuPrefillBusySeconds;
    EXPECT_GT(killed, 0.0);
    EXPECT_LT(killed, 0.5 * full);
}

TEST(FleetFaults, AvailabilityAndReloadFollowTheScriptedOutage)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    // Long decodes keep the makespan past the recovery point.
    auto trace = testTrace(24, 16.0, 28, 512);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    fopts.faults.replicas.resize(2);
    fopts.faults.replicas[1].push_back(crashAt(1.0));
    fopts.faults.replicas[1].push_back(recoverAt(2.0, 0.5));
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    double makespan = fleet.aggregate.simulatedSeconds;
    ASSERT_GT(makespan, 2.5);
    // Down from the crash at 1.0 until the reload completes at 2.5.
    EXPECT_DOUBLE_EQ(fleet.availability[1], 1.0 - 1.5 / makespan);
    EXPECT_EQ(fleet.availability[0], 1.0);
    EXPECT_EQ(fleet.reloadSeconds, 0.5);
    // The recovered replica serves traffic again.
    EXPECT_EQ(fleet.aggregate.completedRequests + fleet.lostRequests,
              trace.size());
}

} // namespace
} // namespace pimphony
