/**
 * @file
 * Fleet serving: a cluster of replica serving engines behind a
 * request router, simulated under conservative time-window
 * synchronization (the router's dispatch latency is the lookahead).
 *
 * Part one scales the replica count at a fixed offered load and
 * shows the fleet absorbing traffic one replica saturates on. Part
 * two compares the routing policies on a skewed trace — round-robin
 * alternates blindly while least-loaded steers long contexts away
 * from busy replicas — and prints the per-replica routing histogram
 * so the difference is visible, not just aggregate. Part three
 * injects a fault — one replica crashes mid-run and recovers after a
 * model reload — and prints the availability and goodput delta
 * against the fault-free run of the same fleet.
 */

#include <cstdio>

#include "system/fault.hh"
#include "system/fleet.hh"
#include "workload/arrival.hh"

using namespace pimphony;

namespace {

std::vector<TimedRequest>
makeTrace(std::size_t n, double ratePerSecond, unsigned seed)
{
    std::vector<Request> reqs;
    for (RequestId i = 0; i < n; ++i) {
        // Bimodal contexts: every fourth request is long-context.
        Tokens context = (i % 4 == 0) ? 30000 : 2000;
        reqs.push_back({i, context, 32});
    }
    return poissonArrivals(reqs, ratePerSecond, seed);
}

FleetResult
runFleet(unsigned replicas, RoutePolicy policy,
         const std::vector<TimedRequest> &trace)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    FleetOptions options;
    options.replicas = replicas;
    options.policy = policy;
    options.dispatchLatencySeconds = 0.002; // 2 ms router hop
    options.threads = 0;                    // fleet pool on all cores
    options.engine.allocator = AllocatorKind::LazyChunk;
    options.engine.prefillChunkTokens = 2048;

    FleetEngine fleet(cluster, model, trace, options);
    return fleet.run();
}

/** Replica scaling at fixed offered load. */
void
replicaScaling()
{
    auto trace = makeTrace(96, 24.0, 17);

    std::printf("Fleet scaling, 96 requests at 24 req/s, "
                "round-robin, 2 ms dispatch\n\n");
    std::printf("%9s %10s %9s %12s %9s\n", "replicas", "tokens/s",
                "makespan", "gap p95 (ms)", "windows");
    for (unsigned replicas : {1u, 2u, 4u, 8u}) {
        auto r = runFleet(replicas, RoutePolicy::RoundRobin, trace);
        std::printf("%9u %10.1f %8.1fs %12.1f %9llu\n", replicas,
                    r.aggregate.tokensPerSecond,
                    r.aggregate.simulatedSeconds,
                    r.aggregate.p95TokenGapSeconds * 1e3,
                    static_cast<unsigned long long>(r.windows));
    }
    std::printf("\nOne replica queues the whole trace; replicas "
                "split it at the router, so\nthe makespan collapses "
                "toward the arrival span and the decode gap tail\n"
                "relaxes. Each fleet run advances its replicas in "
                "parallel.\n");
}

/** Routing policies on the same skewed trace. */
void
routingPolicies()
{
    auto trace = makeTrace(64, 24.0, 23);

    std::printf("\nRouting policy, 4 replicas, bimodal contexts "
                "(every 4th is 30k tokens)\n\n");
    std::printf("%-14s %10s %12s   %s\n", "policy", "tokens/s",
                "gap p95 (ms)", "routed per replica");
    for (RoutePolicy policy :
         {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded}) {
        auto r = runFleet(4, policy, trace);
        std::printf("%-14s %10.1f %12.1f   [",
                    routePolicyName(policy).c_str(),
                    r.aggregate.tokensPerSecond,
                    r.aggregate.p95TokenGapSeconds * 1e3);
        for (std::size_t i = 0; i < r.routedRequests.size(); ++i)
            std::printf("%s%llu", i ? " " : "",
                        static_cast<unsigned long long>(
                            r.routedRequests[i]));
        std::printf("]\n");
    }
    std::printf("\nRound-robin sends every 4th (long) request to the "
                "same rotation slot;\nleast-loaded reads queued "
                "tokens at each window barrier and routes around\n"
                "replicas still chewing a 30k-token prefill.\n");
}

/** One crash + recovery against the fault-free baseline. */
void
faultInjection()
{
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 48; ++i)
        reqs.push_back({i, (i % 4 == 0) ? Tokens(20000) : Tokens(2000),
                        256});
    auto trace = poissonArrivals(reqs, 32.0, 29);

    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    FleetOptions options;
    options.replicas = 2;
    options.policy = RoutePolicy::RoundRobin;
    options.dispatchLatencySeconds = 0.002;
    options.engine.allocator = AllocatorKind::LazyChunk;
    options.engine.prefillChunkTokens = 2048;

    auto clean = FleetEngine(cluster, model, trace, options).run();

    // Replica 1 hard-crashes at t = 1 s (queued work evacuates,
    // in-flight decodes are killed and failed over to replica 0)
    // and recovers at t = 2.5 s after half a second of model reload.
    options.faults.replicas.resize(2);
    options.faults.replicas[1].push_back(crashAt(1.0));
    options.faults.replicas[1].push_back(recoverAt(2.5, 0.5));
    auto faulty = FleetEngine(cluster, model, trace, options).run();

    std::printf("\nFault injection, 2 replicas: replica 1 crashes at "
                "1.0s, recovers at 2.5s\n(+0.5s model reload)\n\n");
    std::printf("%-22s %12s %12s\n", "", "fault-free", "faulty");
    std::printf("%-22s %12.4f %12.4f\n", "replica 1 availability",
                clean.availability[1], faulty.availability[1]);
    std::printf("%-22s %12llu %12llu\n", "goodput tokens",
                static_cast<unsigned long long>(clean.goodputTokens),
                static_cast<unsigned long long>(faulty.goodputTokens));
    std::printf("%-22s %12.1f %12.1f\n", "goodput tokens/s",
                clean.goodputTokensPerSecond,
                faulty.goodputTokensPerSecond);
    std::printf("\nfaulty run: %llu evacuated, %llu retried, "
                "%llu requests lost, %llu decode\ntokens discarded by "
                "the kill\n",
                static_cast<unsigned long long>(
                    faulty.evacuatedRequests),
                static_cast<unsigned long long>(
                    faulty.retriedRequests),
                static_cast<unsigned long long>(faulty.lostRequests),
                static_cast<unsigned long long>(faulty.lostTokens));
    std::printf("\nEvery request still completes — the router fails "
                "work over to replica 0 —\nbut the decode tokens "
                "replica 1 had produced when it died are discarded\n"
                "and re-decoded, so goodput/s drops while "
                "generated == goodput + lost\nstays exact. "
                "Availability charges the outage plus the reload.\n");
}

} // namespace

int
main()
{
    replicaScaling();
    routingPolicies();
    faultInjection();
    return 0;
}
