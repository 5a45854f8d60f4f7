/**
 * @file
 * Fleet simulation: N replica serving engines behind a request
 * router, advanced under conservative time-window synchronization.
 *
 * The router's dispatch latency d is the fleet's lookahead bound: a
 * request the router sees at time t cannot reach a replica before
 * t + d. As in conservative parallel discrete-event simulation, time
 * is cut into windows of width d with barriers B_j = j * d. At B_j
 * every arrival with t <= B_j is routed (delivered at
 * t + d <= B_{j+1}), so the replicas advancing through
 * (B_j, B_{j+1}] already hold every event inside it and run their
 * own EventQueues independently, in parallel on a SweepRunner pool.
 * Routing and result merging happen serially at barriers in replica
 * index order, so a T-thread fleet is bit-identical to a serial one,
 * and a 1-replica fleet to a bare ServingEngine fed the same
 * (dispatch-shifted) arrivals. Zero lookahead (d = 0) degenerates to
 * serial lockstep: the barriers are the distinct arrival times, the
 * router reads replica state at each, and the pool has one thread.
 *
 * FleetEngine has ServingEngine's resumable shape: prepare() builds
 * the replicas, advanceTo(t) processes every barrier <= t (fault
 * transitions, stray sweeps, routing) and then advances the replicas
 * to t, advanceTo(+inf) also runs the post-trace drain, and
 * finalize() builds the FleetResult. run() is that composition, and
 * any sequence of horizons ending at +inf reproduces it bit for bit.
 */

#ifndef PIMPHONY_SYSTEM_FLEET_HH
#define PIMPHONY_SYSTEM_FLEET_HH

#include <cstdint>
#include <memory>
#include <string>
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

struct FleetOptions
{
    /** Replica serving engines behind the router. */
    unsigned replicas = 1;

    RoutePolicy policy = RoutePolicy::RoundRobin;

    /**
     * Router dispatch latency in seconds (finite, >= 0): a request
     * routed at t arrives at its replica at t + d. Doubles as the
     * conservative lookahead window width; 0 falls back to serial
     * lockstep.
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

    /** Fault injection (system/fault.hh), validated at construction;
     *  an empty schedule applies no transitions and reports trivial
     *  fault metrics. */
    FaultSchedule faults;

    /**
     * Re-route attempts a request may consume before it is declared
     * lost: every evacuation (queued work migrated off a draining or
     * crashed replica) and failover (in-flight work killed by a
     * crash) charges one attempt.
     */
    unsigned retryBudget = 3;

    /**
     * Failover backoff base (finite, >= 0): a request's k-th
     * re-route is re-offered retryBackoffSeconds * 2^(k-1) after the
     * fault that displaced it — deterministic exponential backoff,
     * no jitter, so fault runs stay bit-reproducible.
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
     * Synchronization rounds executed: router-active barriers
     * (windows under positive lookahead, arrival instants under zero
     * lookahead, fault transitions in both) plus each post-trace
     * drain. Router-idle barriers are skipped, since they neither
     * read nor change replica state, and partial advanceTo()
     * horizons count no round.
     */
    std::uint64_t windows = 0;

    // --- Fault-tolerance metrics. All zeros / trivial (availability
    // --- 1.0, all-zero histogram) without a fault schedule.

    /**
     * Per-replica up-time fraction of the fleet makespan: the share
     * of time the replica was routable (not draining, down or
     * reloading). 1.0 everywhere without faults.
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
 * Router + N replica ServingEngines over one open-loop trace (see the
 * file comment). prepare() and finalize() may be called once each,
 * advanceTo() any number of times between them.
 */
class FleetEngine
{
  public:
    /** fatal() on an invalid option, naming the field. */
    FleetEngine(const ClusterConfig &cluster, const LlmConfig &model,
                std::vector<TimedRequest> trace,
                const FleetOptions &options);

    FleetEngine(const FleetEngine &) = delete; // the run refers into it
    ~FleetEngine();

    /**
     * Declare the closed-loop successor turns of the trace's
     * sessions (workload/session.hh) before prepare(). Calls
     * accumulate exactly as ServingEngine::declareSessionTurns() does
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

    /** prepare() -> advanceTo(+inf) -> finalize(). */
    FleetResult run();

    /** Build the replicas and the router state. Call once. */
    void prepare();

    /**
     * Process every router barrier at or before @p horizon, then
     * advance every replica to @p horizon. Only +infinity runs the
     * post-trace drain and its stray sweeps; later calls do nothing.
     */
    void advanceTo(double horizon);

    /** advanceTo(+infinity) has completed the run. */
    bool drained() const;

    /** The fleet result (see FleetResult). fatal() unless drained(),
     *  and on a second call. */
    FleetResult finalize();

  private:
    /** Heap-held state of one prepared run (defined in fleet.cc). */
    struct Run;

    ClusterConfig cluster_;
    LlmConfig model_;
    std::vector<TimedRequest> trace_;
    FleetOptions options_;

    /** Closed-loop successor turns, shared by every replica; null
     *  without sessions. */
    std::shared_ptr<const SessionBook> sessions_;

    /** Live run (prepare() .. finalize()). */
    std::unique_ptr<Run> run_;
};

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_FLEET_HH
