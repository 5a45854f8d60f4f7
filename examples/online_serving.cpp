/**
 * @file
 * Online (open-loop) serving: requests arrive as a Poisson stream and
 * the system must keep up. Sweeps the arrival rate and reports
 * throughput, average/p95 request latency, and the point where the
 * baseline saturates while PIMphony still tracks the offered load --
 * the operational consequence of the paper's throughput gains.
 *
 * Part two shows SLO-aware serving end to end: with chunked prefill
 * sharing the xPU timelines, the co-scheduling policy decides how
 * bursty long-context prefills and the decode token-gap SLO trade
 * off (select one via OrchestratorConfig::sched /
 * EngineOptions::sched).
 */

#include <cstdio>
#include <unordered_map>

#include "common/logging.hh"
#include "system/engine.hh"
#include "system/sched_policy.hh"
#include "workload/arrival.hh"
#include "workload/spec.hh"

using namespace pimphony;

namespace {

/**
 * SLO-aware policy selection: a bursty on/off arrival process (the
 * hard case for a decode token-gap SLO) under each co-scheduling
 * policy. fifo shows the unmanaged gap tail; decode-priority and
 * chunk-preempt shrink it on the timeline itself; slo-admission
 * instead defers prefills whenever the observed p95 gap exceeds the
 * target, trading first-token latency for the decode SLO.
 */
void
policySelection()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, 30000, 64});
    OnOffTraffic traffic;
    traffic.onRate = 4.0;           // bursts of ~8 requests...
    traffic.meanOnSeconds = 2.0;
    traffic.meanOffSeconds = 4.0;   // ...then silence
    auto timed = onOffArrivals(reqs, traffic, 17);

    const double target_gap = 0.05; // 50 ms decode token-gap SLO

    std::printf("\nSLO-aware co-scheduling, xPU+PIM, 30k-token "
                "contexts, on/off bursts,\nchunked prefill (2048 tok), "
                "decode token-gap target %.0f ms\n\n", target_gap * 1e3);
    std::printf("%-16s %8s %13s %13s %12s %8s\n", "policy", "tokens/s",
                "gap p95 (ms)", "ttft p95 (s)", "fc max (ms)", "defers");
    for (SchedPolicyKind kind : allSchedPolicies()) {
        EngineOptions opts;
        opts.allocator = AllocatorKind::LazyChunk;
        opts.prefillChunkTokens = 2048;
        opts.sched.kind = kind;
        opts.sched.sloTargetGapSeconds = target_gap;
        ServingEngine engine(cluster, model, timed, opts);
        auto r = engine.run();
        std::printf("%-16s %8.1f %13.1f %13.2f %12.1f %8llu%s\n",
                    schedPolicyName(kind).c_str(), r.tokensPerSecond,
                    r.p95TokenGapSeconds * 1e3, r.p95FirstTokenSeconds,
                    r.maxDecodeXpuWaitSeconds * 1e3,
                    static_cast<unsigned long long>(r.sloDeferrals),
                    r.p95TokenGapSeconds <= target_gap ? "  <- meets SLO"
                                                       : "");
    }
    std::printf("\nfifo lets prefill bursts stall decode; "
                "decode-priority caps the stall at one\nchunk, "
                "chunk-preempt at one quantum; slo-admission defers "
                "prefills until the\nobserved gap recovers, at the "
                "cost of the TTFT tail.\n");
}

/**
 * Multi-tenant tiers: the same bursty trace split into an
 * interactive tier (tier 0, tight gap SLO) and a batch tier (tier 1)
 * for two tenants with equal admission budgets. tier-priority gives
 * tier 0 strict precedence on the xPU timelines — overtaking queued
 * tier-1 decode work and slicing in-flight tier-1 items at the
 * tier quantum — and the engine reports per-tier percentiles and
 * per-tenant occupancy.
 */
void
requestClasses()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
    applyOptions(cluster, PimphonyOptions::all());

    RequestClass interactive;           // chat: tier 0, 50 ms gap SLO
    interactive.gapSloSeconds = 0.05;
    RequestClass batch;                 // summarization: tier 1
    batch.tier = 1;
    batch.tenant = 1;
    batch.gapSloSeconds = 0.5;

    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, 30000, 64});
    assignRequestClassesRoundRobin(reqs, {interactive, batch});
    OnOffTraffic traffic;
    traffic.onRate = 4.0;
    traffic.meanOnSeconds = 2.0;
    traffic.meanOffSeconds = 4.0;
    auto timed = onOffArrivals(reqs, traffic, 17);

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.sched.kind = SchedPolicyKind::TierPriority;
    opts.tenantBudgets = {{0, 0.5}, {1, 0.5}};
    auto r = ServingEngine(cluster, model, timed, opts).run();

    std::printf("\nrequest classes under tier-priority (PP=2, equal "
                "tenant budgets):\n\n");
    std::printf("%6s %10s %14s %14s %11s\n", "tier", "requests",
                "gap p95 (ms)", "ttft p95 (s)", "target met");
    for (const auto &cl : r.classLatencies)
        std::printf("%6u %10llu %14.1f %14.2f %11s\n", cl.tier,
                    static_cast<unsigned long long>(cl.requests),
                    cl.p95TokenGapSeconds * 1e3,
                    cl.p95FirstTokenSeconds,
                    cl.p95TokenGapSeconds <= cl.gapSloTargetSeconds
                        ? "yes" : "no");
    std::printf("\n%8s %10s %12s %12s\n", "tenant", "budget",
                "avg share", "peak share");
    for (const auto &to : r.tenantOccupancy)
        std::printf("%8u %9.0f%% %11.1f%% %11.1f%%\n", to.tenant,
                    to.budgetShare * 1e2, to.avgTokenShare * 1e2,
                    to.peakTokenShare * 1e2);
    std::printf("\ndecode-side preemption sliced lower-tier work %llu "
                "times (charge conserved);\ntier inversions observed: "
                "%llu, worst inversion wait %.1f ms\n",
                static_cast<unsigned long long>(r.decodePreemptSlices),
                static_cast<unsigned long long>(r.tierInversions),
                r.maxTierInversionWaitSeconds * 1e3);
}

/**
 * Multi-turn chat sessions through the declarative WorkloadSpec API:
 * turn 0 of each session arrives on a diurnal rate curve, later
 * turns are released closed-loop by the engine (predecessor
 * completion + exponential think time) with the conversation history
 * carried into each turn's context. The per-turn TTFT column shows
 * the cost of that growing history: every turn re-prefills a longer
 * context, so first-token latency climbs turn over turn.
 */
void
multiTurnSessions()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    WorkloadSpec spec;
    spec.count = 8;                        // sessions, not requests
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{4000, 32}, {8000, 32}};
    spec.arrival.kind = ArrivalKind::RateCurve;
    spec.arrival.curve =
        RateCurve::fromRates({2.0, 0.5, 1.0}, 4.0); // req/s per 4 s
    spec.session.turns = 3;
    spec.session.thinkMeanSeconds = 0.5;
    auto built = buildWorkload(spec, 7);

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    ServingEngine engine(cluster, model, built.initial, opts);
    engine.declareSessionTurns(built.sessions);
    auto r = engine.run();

    std::unordered_map<RequestId, unsigned> turn_of;
    for (const auto &tr : built.initial)
        turn_of[tr.request.id] = tr.request.turn;
    for (const auto &kv : built.sessions)
        turn_of[kv.second.request.id] = kv.second.request.turn;

    std::printf("\nmulti-turn sessions (%zu sessions x %u turns, "
                "diurnal arrivals, history carried):\n\n",
                built.initial.size(), spec.session.turns);
    std::printf("%6s %10s %15s\n", "turn", "requests", "avg ttft (s)");
    for (unsigned turn = 0; turn < spec.session.turns; ++turn) {
        double sum = 0.0;
        std::size_t n = 0;
        for (const auto &kv : r.firstTokenLatency)
            if (turn_of.at(kv.first) == turn) {
                sum += kv.second;
                ++n;
            }
        std::printf("%6u %10zu %15.2f\n", turn, n,
                    n ? sum / static_cast<double>(n) : 0.0);
    }
    std::printf("\neach turn re-prefills the full session history, so "
                "TTFT grows with the\nconversation; %llu of %llu turns "
                "completed closed-loop.\n",
                static_cast<unsigned long long>(r.completedRequests),
                static_cast<unsigned long long>(
                    built.initial.size() + built.sessions.size()));
}

} // namespace

int
main()
{
    setLogThreshold(LogLevel::Warn);

    auto model = LlmConfig::llm7b(true);
    auto base_cluster = ClusterConfig::centLike(model);

    TraceGenerator gen(TraceTask::MultifieldQa, 2024);
    auto requests = gen.generate(64, 32);

    std::printf("open-loop serving, %s, %zu multifieldqa requests, "
                "32 tokens each\n\n",
                model.name.c_str(), requests.size());
    std::printf("%12s  %-14s %10s %12s %12s\n", "offered rate", "config",
                "tokens/s", "avg lat (s)", "p95 lat (s)");

    for (double rate : {1.0, 4.0, 16.0}) {
        auto timed = poissonArrivals(requests, rate, 5);
        for (auto options :
             {PimphonyOptions::baseline(), PimphonyOptions::all()}) {
            auto cluster = base_cluster;
            applyOptions(cluster, options);
            EngineOptions opts;
            opts.allocator = options.dpa ? AllocatorKind::LazyChunk
                                         : AllocatorKind::Static;
            ServingEngine engine(cluster, model, timed, opts);
            auto r = engine.run();
            std::printf("%9.1f/s  %-14s %10.1f %12.2f %12.2f\n", rate,
                        options.label().c_str(), r.tokensPerSecond,
                        r.avgRequestLatency, r.p95RequestLatency);
        }
    }
    std::printf("\nat low offered load both configs meet demand and "
                "latency is flat; as the rate\napproaches the "
                "baseline's decode capacity its queue (and p95) "
                "explodes first.\n");

    policySelection();
    requestClasses();
    multiTurnSessions();
    return 0;
}
