/**
 * @file
 * Fleet simulation: N replica serving engines behind a request
 * router, advanced under conservative time-window synchronization.
 *
 * The router's dispatch latency d is the fleet's lookahead bound: a
 * request the router sees at time t cannot reach a replica before
 * t + d. The fleet exploits this the way conservative parallel
 * discrete-event simulation does — simulated time is cut into
 * windows of width W = d with barriers B_j = j * W. At barrier B_j
 * every trace arrival with t <= B_j is routed (delivered to its
 * replica at t + d <= B_{j+1}), so when the replicas advance through
 * the window (B_j, B_{j+1}] they already hold every event that can
 * occur inside it: no mid-window injection is possible, and each
 * replica runs its own EventQueue independently. Within a window the
 * replicas execute in parallel on a SweepRunner pool; routing and
 * result merging happen serially between windows in replica index
 * order, so a T-thread fleet is bit-identical to a serial one, and a
 * 1-replica fleet is bit-identical to a bare ServingEngine fed the
 * same (dispatch-shifted) arrivals.
 *
 * Zero lookahead (d = 0) removes the window slack, so the fleet
 * degenerates to serial lockstep: replicas advance to each distinct
 * arrival time in index order, the router reads their state at that
 * instant, and the request is injected with no dispatch delay.
 * Parallel advance would be fruitless there (every barrier is a
 * routing point), so the thread pool is bypassed regardless of the
 * configured thread count.
 */

#ifndef PIMPHONY_SYSTEM_FLEET_HH
#define PIMPHONY_SYSTEM_FLEET_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "system/engine.hh"
#include "system/fault.hh"
#include "workload/arrival.hh"
#include "workload/session.hh"

namespace pimphony {

/** How the fleet router picks a replica for each request. */
enum class RoutePolicy {
    /** Strict cycling over replicas in request order. */
    RoundRobin,

    /**
     * The replica with the fewest outstanding tokens (context +
     * remaining decode over waiting, prefilling, and decoding
     * requests), ties to the lowest index. Loads are refreshed from
     * the replicas at each window barrier and updated locally as the
     * barrier's requests are placed, so routing stays deterministic
     * and identical between serial and parallel runs.
     */
    LeastLoaded,

    /**
     * Prefix-affinity routing: the replica whose prefix cache is
     * warmest for the request (ServingEngine::prefixWarmTokens —
     * retained session KV or a cached workload prefix), ties broken
     * by the least-loaded signal and then the lowest index. A
     * request no replica is warm for falls back to the exact
     * LeastLoaded decision; with prefix caching disabled every
     * warmth reads 0, so routing is decision-identical to
     * LeastLoaded. Session pinning still precedes the policy.
     */
    PrefixAffinity,
};

std::string routePolicyName(RoutePolicy policy);

/**
 * Per-replica health as the fleet's fault state machine sees it.
 * Transitions fire at window barriers (preserving the conservative
 * parallel protocol bit for bit):
 *
 *   Up --degrade--> Degraded --degrade end--> Up
 *   Up --crash(drain > 0)--> Draining --drain end--> Down
 *   Up --crash(drain = 0)--> Down
 *   Down --recover--> Reloading --reload done--> Up
 *
 * The router routes only to Up and Degraded replicas; Draining
 * replicas finish their in-flight work but receive nothing new.
 */
enum class ReplicaHealth { Up, Degraded, Draining, Down, Reloading };

std::string replicaHealthName(ReplicaHealth health);

struct FleetOptions
{
    /** Replica serving engines behind the router. */
    unsigned replicas = 1;

    RoutePolicy policy = RoutePolicy::RoundRobin;

    /**
     * Router dispatch latency in seconds: a request routed at t
     * arrives at its replica at t + d. Doubles as the conservative
     * lookahead window width; 0 falls back to serial lockstep.
     */
    double dispatchLatencySeconds = 0.0;

    /**
     * Worker threads for the within-window replica advances
     * (SweepRunner semantics: 1 = exact inline serial path, 0 = one
     * per hardware core). Results are bit-identical across thread
     * counts by construction.
     */
    unsigned threads = 1;

    /** Per-replica engine configuration. */
    EngineOptions engine;

    /**
     * Fault injection (system/fault.hh). Every run takes the same
     * fault-aware window loop; an empty schedule applies no
     * transitions and reports trivial fault metrics.
     */
    FaultSchedule faults;

    /**
     * Re-route attempts a request may consume before it is declared
     * lost: every evacuation (queued work migrated off a draining or
     * crashed replica) and failover (in-flight work killed by a
     * crash) charges one attempt.
     */
    unsigned retryBudget = 3;

    /**
     * Failover backoff base: a request's k-th re-route is re-offered
     * retryBackoffSeconds * 2^(k-1) after the fault that displaced
     * it — deterministic exponential backoff, no jitter, so fault
     * runs stay bit-reproducible.
     */
    double retryBackoffSeconds = 0.5;
};

struct FleetResult
{
    /**
     * Fleet-level roll-up of the per-replica results. Counters
     * (tokens, requests, events, energies, policy metrics) are sums;
     * simulatedSeconds is the fleet makespan (max over replicas) and
     * tokensPerSecond the fleet throughput over it; batch, MAC,
     * capacity and tenant-share means are time-weighted. Latency
     * averages and p95s (per class too) are exact over the replicas'
     * pooled samples: their stores are merged in replica index order
     * and summarized as one engine's, so a p95 is a true nearest-rank
     * percentile. A deterministic function of the per-replica results.
     */
    EngineResult aggregate;

    /** Per-replica results, in replica index order. Each keeps its
     *  scalar summaries but handed its sample stores to aggregate. */
    std::vector<EngineResult> replicas;

    /** Requests routed to each replica, in replica index order. */
    std::vector<std::uint64_t> routedRequests;

    /**
     * Distinct sessions pinned to each replica, in replica index
     * order (all zeros for a session-free trace). A session counts
     * toward the replica its first-routed turn landed on; later
     * turns follow the pin.
     */
    std::vector<std::uint64_t> routedSessions;

    /**
     * Synchronization rounds executed: parallel window advances
     * under positive lookahead, per-arrival-time lockstep barriers
     * under zero lookahead, plus the final drain in both modes.
     * Router-idle barriers (nothing routable at or before them) are
     * skipped — they neither read nor change replica state, so
     * jumping to the next router-active barrier dispatches the
     * identical event sequence — and once the trace is exhausted
     * the remaining work is one independent drain per replica.
     */
    std::uint64_t windows = 0;

    // --- Fault-tolerance metrics. All zeros / trivial (availability
    // --- 1.0, all-zero histogram) without a fault schedule.

    /**
     * Per-replica up-time fraction of the fleet makespan: the share
     * of time the replica was routable (Up or Degraded). 1.0
     * everywhere without faults.
     */
    std::vector<double> availability;

    /**
     * Decode tokens of requests that actually completed (the tokens
     * a user received). aggregate.generatedTokens also counts
     * partial decodes that were discarded, and the ledger balances
     * exactly:
     *
     *   generatedTokens == goodputTokens + lostTokens
     *                      + aggregate.recomputedTokens
     *
     * where lostTokens were discarded by crashes and
     * recomputedTokens by preemptions.
     */
    std::uint64_t goodputTokens = 0;

    /** goodputTokens over the fleet makespan. */
    double goodputTokensPerSecond = 0.0;

    /** Queued requests migrated off draining/crashed replicas. */
    std::uint64_t evacuatedRequests = 0;

    /** Re-route injections performed (evacuations + failovers). */
    std::uint64_t retriedRequests = 0;

    /** Requests dropped after exhausting the retry budget, plus any
     *  stranded by a fleet that never recovered. */
    std::uint64_t lostRequests = 0;

    /** Decode tokens of in-flight progress discarded by crashes. */
    std::uint64_t lostTokens = 0;

    /**
     * retryHistogram[k] = requests re-routed exactly k times
     * (capped at retryBudget; the k = 0 bucket is used only when
     * retryBudget is 0). Always retryBudget + 1 buckets; all zeros
     * when no fault displaced work.
     */
    std::vector<std::uint64_t> retryHistogram;

    /** Total model-reload seconds charged across recoveries. */
    double reloadSeconds = 0.0;
};

/**
 * Router + N replica ServingEngines over one open-loop trace, driven
 * through the resumable engine interface; run() may be called once.
 */
class FleetEngine
{
  public:
    FleetEngine(const ClusterConfig &cluster, const LlmConfig &model,
                std::vector<TimedRequest> trace,
                const FleetOptions &options);

    /**
     * Declare the closed-loop successor turns of the trace's
     * sessions (workload/session.hh) before run(). Calls accumulate
     * exactly as ServingEngine::declareSessionTurns() does
     * (mergeSessionBooks: a predecessor id declared twice is fatal).
     * The fleet keeps one immutable book and every replica shares
     * it, so replica memory grows with the work routed to it, not
     * with the trace. A successor fires only on the replica that
     * completes its predecessor, so a session's turns stay on the
     * replica its turn 0 was routed to. The router additionally
     * pins session identity (Request::session) at first sight: if a
     * session somehow reappears in the open-loop trace, its later
     * requests follow the pin rather than the policy.
     */
    void setSessions(SessionBook sessions);

    FleetResult run();

  private:
    /**
     * Route one request: returns the chosen replica index. Only
     * routable replicas (routable_[i] != 0) are considered; a
     * session pinned to an unroutable replica is un-pinned and
     * re-pinned by policy. Callers guarantee at least one replica
     * is routable. With every replica routable the decisions are
     * identical to the pre-fault router.
     */
    std::size_t pickReplica(const TimedRequest &timed);

    /** A request awaiting re-routing after a fault displaced it. */
    struct PendingRetry
    {
        TimedRequest timed;
        unsigned attempts = 0;
    };

    /**
     * The conservative-window run loop: fault transitions, routing
     * and replica advances at each barrier, then the final drain.
     */
    void runWindows(FleetResult &fleet);

    /** Fleet-level aggregate of @p results (see FleetResult); takes
     *  their sample stores. */
    static EngineResult
    aggregateResults(std::vector<EngineResult> &results);

    /** Policies that read and maintain the queued-token signal. */
    bool usesLoads() const
    {
        return options_.policy == RoutePolicy::LeastLoaded ||
               options_.policy == RoutePolicy::PrefixAffinity;
    }

    ClusterConfig cluster_;
    LlmConfig model_;
    std::vector<TimedRequest> trace_;
    FleetOptions options_;

    /** Router load signal: queued tokens per replica (LeastLoaded
     *  and PrefixAffinity). */
    std::vector<double> loads_;

    /** The replicas; populated for the duration of run(). */
    std::vector<std::unique_ptr<ServingEngine>> engines_;

    /** Health state machine, one entry per replica. */
    std::vector<ReplicaHealth> health_;

    /** 1 while the replica accepts traffic (Up or Degraded). All 1
     *  without faults, so the router is decision-identical. */
    std::vector<char> routable_;

    /** Unroutable intervals per replica, by nominal fault time; an
     *  open interval carries a negative end until it closes. */
    std::vector<std::vector<std::pair<double, double>>> downIntervals_;

    /** Closed-loop successor turns, shared by every replica; null
     *  without sessions. */
    std::shared_ptr<const SessionBook> sessions_;

    /** Session -> replica pin, recorded at first routing. */
    std::unordered_map<SessionId, std::size_t> sessionReplica_;

    std::size_t rrNext_ = 0;
    bool ran_ = false;
};

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_FLEET_HH
