/**
 * @file
 * Decode-serving engine: continuous batching over a multi-module PIM
 * system with TP/PP parallelism, allocator-driven admission, and
 * per-cycle latency composed from the module models.
 *
 * The engine is event-driven: it schedules per-cohort (micro-batch),
 * per-stage work items on the sim subsystem's event queue. Cohorts
 * traverse the PP stages as FIFO devices and decode asynchronously,
 * so a fast cohort is not padded to the slowest one, PIM attention
 * overlaps xPU FC work across stages, and admission is
 * arrival-driven.
 *
 * Scope note: decode remains the focus (the paper locates the PIM
 * bottlenecks there), but prefill is first-class work rather than a
 * free memory charge. With EngineOptions::prefillChunkTokens > 0,
 * an admitted request enters a Prefilling state: its context is
 * split into chunked work items (system/prefill's planner) that
 * traverse the per-stage xPU timelines on the event queue,
 * interleaving FIFO with — and delaying — decode FC work, the way a
 * continuous-batching scheduler shares its compute engines between
 * phases. The request joins the decode ready pool only when its last
 * chunk completes. chargePrefill without chunking keeps the scalar
 * prefillSeconds() charge at admission; the chunked per-request
 * total matches that scalar exactly.
 */

#ifndef PIMPHONY_SYSTEM_ENGINE_HH
#define PIMPHONY_SYSTEM_ENGINE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "alloc/kv_allocator.hh"
#include "common/stats.hh"
#include "mapping/partition.hh"
#include "system/cluster.hh"
#include "system/sched_policy.hh"
#include "system/serving_options.hh"
#include "workload/arrival.hh"
#include "workload/request_class.hh"
#include "workload/session.hh"
#include "workload/trace.hh"

namespace pimphony {

/**
 * Engine-level knob set: the shared serving options (prefill
 * chunking, co-scheduling policy, tenant budgets — see
 * system/serving_options.hh) plus the engine's own allocator choice
 * and safety cap.
 */
struct EngineOptions : ServingOptions
{
    AllocatorKind allocator = AllocatorKind::Static;

    /** Cap on simulated cohort decode cycles (safety valve). */
    std::uint64_t maxSteps = 200000;
};

struct EngineResult
{
    double tokensPerSecond = 0.0;
    double simulatedSeconds = 0.0;
    std::uint64_t generatedTokens = 0;
    std::uint64_t completedRequests = 0;
    std::uint64_t rejectedRequests = 0;
    std::uint64_t preemptions = 0;

    /**
     * Decode tokens a preemption discarded: the preempted request
     * restarts from scratch, so the tokens it had generated count
     * in generatedTokens but are produced again before it
     * completes.
     */
    std::uint64_t recomputedTokens = 0;

    /** Time-averaged concurrent batch ("effective batch", Fig. 4). */
    double avgEffectiveBatch = 0.0;

    /** MAC-busy channel-cycles / total channel-cycles (Fig. 4/17). */
    double macUtilization = 0.0;

    /** Time-averaged KV bytes in use / capacity (Fig. 19). */
    double capacityUtilization = 0.0;

    /** Aggregate split for Figs. 16/17(c). */
    double attentionSeconds = 0.0;
    double fcSeconds = 0.0;
    EnergyBreakdown attentionEnergy;
    EnergyBreakdown fcEnergy;

    /** Prefill time charged when EngineOptions::chargePrefill is on. */
    double prefillSeconds = 0.0;

    // The averages and p95s below are exact over every sample of the
    // run: summarizeLatencies() fills them from the sample stores at
    // the end of this struct.

    /** Request latency (completion - arrival), open- or closed-loop. */
    double avgRequestLatency = 0.0;
    double p95RequestLatency = 0.0;

    /** Time to first token (first decode completion - arrival). */
    double avgFirstTokenSeconds = 0.0;
    double p95FirstTokenSeconds = 0.0;

    /**
     * Steady-state decode stall: gaps between consecutive token
     * completions of one request (tokens after its first). Prefill
     * chunks sharing the xPU stretch the tail of this distribution.
     */
    double avgTokenGapSeconds = 0.0;
    double p95TokenGapSeconds = 0.0;

    /**
     * Token-gap samples behind the two fields above. A preempted
     * request's restart emits a first token that records neither a
     * TTFT nor a gap, so this is not generatedTokens minus the TTFT
     * count.
     */
    std::uint64_t tokenGapSamples = 0;

    /** Per-request TTFT, keyed by request id (first admission). */
    std::unordered_map<RequestId, double> firstTokenLatency;

    /**
     * Per-request completion time on the serving clock, keyed by
     * request id. One entry per completed request (rejected requests
     * never complete); the session tests read it to check that turn
     * k+1 is released only after turn k completes.
     */
    std::unordered_map<RequestId, double> completionSeconds;

    // --- Co-scheduling policy metrics. ------------------------------

    /** Admission checks deferred by the SLO gate (SloAdmission). */
    std::uint64_t sloDeferrals = 0;

    /** Preemption splits of in-flight prefill chunks (ChunkPreempt). */
    std::uint64_t chunkSlices = 0;

    /** xPU dispatches where decode overtook earlier-queued prefill. */
    std::uint64_t decodeOvertakes = 0;

    /**
     * Worst xPU queueing delay of one decode FC share (seconds):
     * how long a decode cycle stalled waiting for the compute
     * timeline. ChunkPreempt bounds this by its quantum when one
     * decode share is in flight at a time (PP=1).
     */
    double maxDecodeXpuWaitSeconds = 0.0;

    /**
     * Prefill seconds served to completion on the xPU timelines,
     * summed across stages. Every policy must conserve the planner's
     * apportioned charge: this equals prefillSeconds scaled by
     * prefillEngines / tp regardless of how preemption relocates the
     * work.
     */
    double xpuPrefillBusySeconds = 0.0;

    /**
     * Events dispatched by the event core. Deterministic for a
     * given configuration and seed; bench_simperf divides it by wall
     * time for the events-per-second trajectory metric.
     */
    std::uint64_t simEvents = 0;

    // --- Request-class / multi-tenant metrics. Populated only when
    // --- the workload carries non-default classes or budgets are
    // --- configured; the subsystem is strictly additive otherwise.

    /** Latency summary of one tier (classLatencies). */
    struct ClassLatency
    {
        unsigned tier = 0;

        /** Gap SLO target the tier was judged against (0 = none). */
        double gapSloTargetSeconds = 0.0;

        std::uint64_t requests = 0;
        std::uint64_t completedRequests = 0;

        double avgFirstTokenSeconds = 0.0;
        double p95FirstTokenSeconds = 0.0;
        double avgTokenGapSeconds = 0.0;
        double p95TokenGapSeconds = 0.0;

        /** Token-gap samples of the tier. */
        std::uint64_t tokenGapSamples = 0;

        /** TTFT samples of the tier (a request a crash kills after
         *  its first token counts). */
        std::uint64_t ttftSamples = 0;

        SampleRuns firstTokenRuns;
        SampleRuns tokenGapRuns;
    };

    /** Per-tier TTFT / decode-gap percentiles, ascending tier.
     *  Empty when every request carries the default class. */
    std::vector<ClassLatency> classLatencies;

    /** Capacity occupancy of one tenant (tenantOccupancy). */
    struct TenantOccupancy
    {
        unsigned tenant = 0;

        /** Configured guarantee (0 for borrow-only tenants). */
        double budgetShare = 0.0;

        /** Time-averaged reserved-token fraction of capacity. */
        double avgTokenShare = 0.0;

        /** Peak reserved-token fraction of capacity. */
        double peakTokenShare = 0.0;

        std::uint64_t admittedRequests = 0;

        /** Admission attempts deferred by the budget (borrow denied). */
        std::uint64_t budgetDeferrals = 0;
    };

    /** Per-tenant admitted-capacity occupancy, ascending tenant id.
     *  Empty unless budgets are configured or tenants are tagged. */
    std::vector<TenantOccupancy> tenantOccupancy;

    /** Admission attempts deferred by tenant budgets (all tenants). */
    std::uint64_t budgetDeferrals = 0;

    /**
     * Tier inversions observed on the xPU timelines: a decode share
     * dispatched after waiting behind a worse-tier decode share (see
     * sim::QueuedDevice::tierInversions). Tier-aware preemption
     * bounds each inversion's wait by its quantum.
     */
    std::uint64_t tierInversions = 0;

    /** Worst tier-inversion wait (seconds) across the timelines. */
    double maxTierInversionWaitSeconds = 0.0;

    /** Decode-side preemption splits (lower-tier in-flight decode
     *  items sliced by a tier-aware policy; charge conserved). */
    std::uint64_t decodePreemptSlices = 0;

    // --- Prefix-sharing metrics (alloc/prefix_cache.hh). All zero
    // --- when caching is off — the subsystem is strictly additive.

    /** Admissions served from the prefix tree / that probed and
     *  found nothing reusable. */
    std::uint64_t prefixHits = 0;
    std::uint64_t prefixMisses = 0;

    /** Cache entries evicted under capacity pressure. */
    std::uint64_t prefixEvictions = 0;

    /** prefixHits / (prefixHits + prefixMisses); 0 with no probes. */
    double prefixHitRate = 0.0;

    /** Prefill tokens skipped because their KV was cached. */
    std::uint64_t prefixCachedTokens = 0;

    /** Prefill seconds the skipped tokens would have cost (each
     *  admission's cold scalar charge minus its warm charge). */
    double savedPrefillSeconds = 0.0;

    /** Peak chunk custody of the prefix tree (shared bytes) and of
     *  per-request KV outside it (unique bytes); the two always sum
     *  to the allocator's reservation at the sampling instant. */
    Bytes sharedKvPeakBytes = 0;
    Bytes uniqueKvPeakBytes = 0;

    /** A latency per completion, a TTFT per first admission and a
     *  gap per later token, in production order (absorb() merges two
     *  results' stores exactly). */
    SampleRuns requestLatencyRuns;
    SampleRuns firstTokenRuns;
    SampleRuns tokenGapRuns;

    /** Fill every avg*, p95*, tokenGapSamples and ttftSamples field,
     *  per class too, from the stores: the one summarizer, shared by
     *  ServingEngine::finalize() and the fleet aggregate. */
    void summarizeLatencies();
};

class ServingEngine
{
  public:
    /** Closed-loop: every request is available at time zero. */
    ServingEngine(const ClusterConfig &cluster, const LlmConfig &model,
                  std::vector<Request> requests,
                  const EngineOptions &options);

    /** Open-loop: requests become available at their arrival times. */
    ServingEngine(const ClusterConfig &cluster, const LlmConfig &model,
                  std::vector<TimedRequest> requests,
                  const EngineOptions &options);

    ~ServingEngine();

    EngineResult run();

    // --- Resumable sub-simulation interface. run() is the exact
    // --- composition prepare() -> advanceTo(+inf) -> finalize(), bit
    // --- for bit, so a windowed caller (the fleet simulation)
    // --- reproduces a monolithic run whenever it feeds the same
    // --- arrivals. -------------------------------------------------------

    /**
     * Declare the class/tenant shape of a workload: activates the
     * request-class and tenant bookkeeping (per-tier SLO targets,
     * tenant states). The constructor declares its own requests; a
     * caller that delivers requests later through injectArrivals()
     * declares them here. Must run before prepare(); calls
     * accumulate; a purely default-class trace leaves the engine
     * bit-identical to an undeclared one.
     */
    void declareWorkload(const std::vector<TimedRequest> &trace);

    /**
     * Declare the closed-loop successor turns of a multi-turn
     * workload (workload/session.hh): when the request keyed in
     * @p sessions completes at time t, its successor turn is
     * released as a fresh arrival at t + thinkSeconds — the
     * dependency an open-loop trace cannot express. Must run before
     * prepare(). Calls accumulate (mergeSessionBooks: a predecessor
     * id declared twice is fatal).
     *
     * Semantics worth knowing: a rejected or never-completing
     * predecessor keeps the rest of its session unreleased (the user
     * never saw turn k's answer, so turn k+1 is never typed), and
     * unreleased turns are invisible to queuedTokens() — the router
     * load signal sees only work that has actually arrived.
     */
    void declareSessionTurns(const SessionBook &sessions);

    /**
     * The same declaration, adopting @p sessions without copying it:
     * the engine only reads the book and keeps it alive for the
     * run, so many engines (a fleet's replicas) can share one.
     */
    void declareSessionTurns(std::shared_ptr<const SessionBook> sessions);

    /**
     * Build the run state and deliver the constructor-supplied
     * requests through injectArrivals(). After prepare()
     * the engine is a resumable sub-simulation: advance it with
     * advanceTo(), feed it with injectArrivals(), and close it with
     * finalize().
     */
    void prepare();

    /**
     * Dispatch every pending event at or before @p horizon
     * (inclusive) in event order; later events stay queued. Windowed
     * advances with increasing horizons replay exactly the event
     * sequence one runAll() would dispatch.
     */
    void advanceTo(double horizon);

    /** No pending events (the sub-simulation is quiescent). */
    bool drained() const;

    /** Earliest pending event time; +infinity when drained. */
    double nextEventTime() const;

    /**
     * Deliver requests mid-run (router dispatch). Arrivals at or
     * before time zero join the admission queue immediately; later
     * ones are merged into the pending-arrival stream and fire as
     * arrival events. Callers must never inject an arrival earlier
     * than events already dispatched — the fleet's conservative
     * window protocol guarantees this by construction.
     */
    void injectArrivals(const std::vector<TimedRequest> &batch);

    /**
     * Outstanding work queued on this engine, in tokens: context +
     * remaining decode summed over waiting, prefilling, and decoding
     * requests. The load signal least-loaded routers balance on;
     * O(queued requests) per call, intended for window barriers.
     */
    double queuedTokens() const;

    /** Current event-queue clock (0 before prepare()). */
    double now() const;

    /** What ServingEngine::evacuate() pulled off the engine. */
    struct Evacuation
    {
        /**
         * Undelivered pending arrivals and queued-but-unadmitted
         * requests, sorted by arrival time — work the engine never
         * started, migratable to another replica as-is.
         */
        std::vector<TimedRequest> queued;

        /**
         * Admitted requests whose in-flight progress (KV
         * reservation, prefill chunks, partial decode) was
         * discarded, each rewound to a fresh TimedRequest at its
         * original arrival. Empty unless kill_in_flight.
         */
        std::vector<TimedRequest> inFlight;

        /** Decode tokens already generated for inFlight, now wasted. */
        std::uint64_t lostTokens = 0;
    };

    /**
     * Pull work off the engine for migration (replica drain or
     * crash). Always extracts the undelivered/unadmitted queue; with
     * @p kill_in_flight additionally discards all admitted work —
     * ready-pool, in-flight prefills, decoding cohort members — by
     * releasing their reservations and returning them rewound (their
     * generated tokens stay counted in generatedTokens as wasted
     * throughput), and halts the engine: no new cohorts form and
     * late prefill completions are dropped until restoreService().
     * Composes with the resumable protocol: call between advanceTo()
     * horizons; a halted engine still drains its residual events.
     */
    Evacuation evacuate(bool kill_in_flight);

    /**
     * Lift the halt a killing evacuate() imposed (the replica's
     * model reload finished): injected arrivals admit and decode
     * again. No-op if not halted.
     */
    void restoreService();

    /**
     * Stretch device charges submitted from now on by @p factor
     * (> 1 is slower — brown-out modeling; 1 restores full speed).
     * Applies to decode cycles, prefill chunks, and the scalar
     * prefill serialization clock; work already on the timelines is
     * unaffected. A factor of exactly 1 is bit-transparent.
     */
    void setServiceRateScale(double factor);

    /**
     * Close a prepared run: collect the per-stage policy metrics,
     * summarize latency samples, and return the result — the tail
     * run() executes after its event loop drains. Call once, after
     * the final advanceTo().
     */
    EngineResult finalize();

    /**
     * Shareable cached tokens the prefix tree could serve @p r right
     * now (retained session history first, then the declared
     * prefix); 0 when caching is off or nothing is warm. Read-only —
     * the prefix-affinity router's per-replica warmth signal.
     */
    Tokens prefixWarmTokens(const Request &r) const;

    /** Read-only prefix-cache view (null when caching is off). */
    const PrefixCache *prefixCache() const { return prefixCache_.get(); }

    /** Read-only allocator view (conservation checks in tests). */
    const KvAllocator &allocatorView() const { return *allocator_; }

  private:
    struct Active
    {
        Request request;
        Tokens generated = 0;
        double arrival = 0.0;

        /** Completion time of the latest token (< 0: none yet). */
        double lastTokenAt = -1.0;

        // --- Prefix-sharing state (all-zero when caching is off). --

        /** Tokens of this request's KV held by the prefix tree
         *  rather than its own allocation (custody offset: the
         *  allocator account covers context + generated minus
         *  this). */
        Tokens cachedTokens = 0;

        /** Warm-hit tokens whose prefill charge was skipped
         *  (== cachedTokens for consumers; 0 for the publisher,
         *  which prefills its prefix cold). */
        Tokens warmTokens = 0;

        /** Tree entry this request references (0 = none). */
        std::uint64_t cacheKey = 0;

        /** This request is prefilling a new entry cold; its prefill
         *  completion marks the entry ready. */
        bool cachePublisher = false;
    };

    /**
     * Device-time plan for one decode cycle of one cohort
     * (micro-batch): the per-stage service time plus the cycle's
     * aggregate phase seconds, occupancy, and energy.
     */
    struct CyclePlan
    {
        /** Service seconds of one model layer. */
        double layerSeconds = 0.0;

        /** xPU share of one layer's service (XpuPim overlap). */
        double fcLayerSeconds = 0.0;

        /** Layers across all stages (= nLayers when pp <= nLayers). */
        double layersTotal = 0.0;

        /** Whole-cycle (all layers, all stages) phase seconds. */
        double attSeconds = 0.0;
        double fcSeconds = 0.0;

        /** MAC-busy channel-cycles across the tp module group. */
        double busyChannelCycles = 0.0;

        EnergyBreakdown attEnergy;
        EnergyBreakdown fcEnergy;
    };

    /**
     * Running channel-cycle totals for MAC utilization. Each decode
     * cycle adds one (busy, span) pair in simulation order, so the
     * scalar sums round exactly as the former per-cycle vectors
     * summed at finalize did — without growing a vector per cycle.
     */
    struct ChannelAccum
    {
        double busyCycles = 0.0;
        double spanCycles = 0.0;
    };

    /**
     * Per-request admission rule: Rejected = can never be served
     * here, Blocked = waits for memory, BudgetBlocked = the
     * request's tenant is over budget and borrowing was denied
     * (@p allow_borrow false; only with tenant budgets configured),
     * Admitted = reserved.
     */
    enum class AdmitOutcome { Admitted, Rejected, Blocked, BudgetBlocked };

    /** tryAdmitOne's verdict. When Admitted: the request's record,
     *  prefix state stamped, and its scalar prefill charge (set when
     *  chargePrefill or prefillChunkTokens is; the chunked path
     *  apportions it over chunk items instead of a lump). */
    struct Admission
    {
        AdmitOutcome outcome = AdmitOutcome::Blocked;
        Active active;
        double prefillSeconds = 0.0;
    };
    Admission tryAdmitOne(const TimedRequest &timed, bool allow_borrow);

    /** probePrefix's answer: the warm entry (key 0 = none) and its
     *  tokens, the declared-prefix key if that lookup missed, and
     *  whether any key was looked up (a hit or a miss to count). */
    struct PrefixProbe
    {
        std::uint64_t key = 0;
        Tokens share = 0;
        std::uint64_t missedPrefix = 0;
        bool probed = false;
    };

    /**
     * The one prefix probe of admission and routing: retained
     * session history first, then the declared prefix. Read-only;
     * prefix caching must be on.
     */
    PrefixProbe probePrefix(const Request &r) const;

    /**
     * Advance @p a by the one token produced at @p completion_clock:
     * grow-or-preempt (re-queueing to @p requeue with the original
     * arrival), then complete-or-continue. Returns false when the
     * request leaves its cohort.
     */
    bool advanceMember(Active &a, double completion_clock,
                       std::deque<TimedRequest> &requeue);

    /** Device-time plan for one decode cycle of [@p begin, @p end). */
    CyclePlan planCohortCycle(const Active *begin, const Active *end);

    /**
     * Record a cycle's phase seconds, occupancy, and energy
     * (including the idle-background share over @p span_cycles of
     * channel occupancy) into the running result.
     */
    void accountCycle(const CyclePlan &plan, double span_cycles,
                      ChannelAccum &acc);

    void finalizeResult(const ChannelAccum &acc, double batch_time,
                        double capacity_time);

    // --- Run state, heap-held so the run is resumable between
    // --- advanceTo calls. Both types live in engine.cc. -------------

    /** One in-flight decode cohort (micro-batch). */
    struct EventCohort;

    /** Heap-held state of one prepared run. */
    struct EventRun;

    /** Integrate batch/capacity time-averages up to @p t. */
    void evAccountTo(double t);

    /** Decoding requests across the in-flight cohorts. */
    std::size_t evInFlightCount() const;

    /**
     * Move a fair share of the ready pool into @p members:
     * ceil((decoding + pooled) / pp) requests, at least one, taken
     * after a stable tier sort of the pool (classes only).
     */
    void evTakeFairShare(std::vector<Active> &members);

    /** Hoist the per-scan tier in-flight flags (class gate). */
    void evRefreshTiersInFlight();

    /** Per-class SLO admission gate (see classGateDefers notes). */
    bool evClassGateDefers(const RequestClass &cls);

    /** Admission scan over the arrived queue at event time @p now. */
    void evAdmitArrivals(double now);

    /** Submit an admitted request's chunked prefill sequence. */
    void evStartPrefill(Active a, double now);

    /** Submit one decode cycle of @p c on the stage pipeline. */
    void evStartCycle(EventCohort &c, double ready);

    /** Cycle completion: advance members, rebalance, resubmit. */
    void evOnCycleComplete(EventCohort &c, double t);

    /** Form cohorts from the ready pool while slots are free. */
    void evFormNewCohorts(double t);

    /** Arrival event: drain due arrivals, re-arm, form cohorts. */
    void evOnArrival(double t);

    /**
     * Schedule the arrival event for the earliest pending arrival
     * unless one at or before it is already armed (injectArrivals
     * may re-arm earlier than a drained chain would).
     */
    void evArmArrivalEvent();

    /** The one class/tenant declaration scan: @p for_each(visit)
     *  visits every request in first-target-wins order, in place. */
    template <typename ForEach> void declareRequests(ForEach for_each);

    /** Per-request class/tenant bookkeeping of a delivered arrival. */
    void registerInjected(const TimedRequest &timed);

    /**
     * Release the successor turn of @p completed (if any) as an
     * arrival at @p now + its think time. Called from
     * advanceMember's completion branch; no-op for requests without
     * a declared successor.
     */
    void releaseNextTurn(RequestId completed, double now);

    // --- Request-class / tenant-budget machinery. With a
    // --- single-class workload and no budgets it keeps no state and
    // --- the admission scan is the plain FIFO queue. ----------------

    /** Per-tier sample stores and (optional) sliding SLO window. */
    struct TierState
    {
        /** Gap SLO target (class target, else the policy default). */
        double target = 0.0;

        std::uint64_t requests = 0;
        std::uint64_t completed = 0;

        /** TTFT and token-gap samples of the tier's requests. */
        SampleRuns ttfts;
        SampleRuns gaps;

        /** Per-tier windowed p95 (gap-steered policies only). */
        std::unique_ptr<WindowedQuantile> window;
    };

    /** Admission-budget accounting of one tenant. */
    struct TenantState
    {
        double budgetTokens = 0.0;
        double reservedTokens = 0.0;

        /** Integral of reservedTokens/capacity over time. */
        double shareSeconds = 0.0;
        double peakShare = 0.0;
        std::uint64_t admitted = 0;
        std::uint64_t deferrals = 0;
    };

    TenantState &tenantState(unsigned tenant);

    /** Budget verdict for @p tenant wanting @p need more tokens. */
    bool budgetAdmits(unsigned tenant, double need, bool allow_borrow);

    /**
     * Reserve / release tenant budget accounting. By default a
     * request is charged context + decode tokens; @p charge_tokens
     * >= 0 overrides it (prefix sharing charges shared chunks
     * fractionally — see tryAdmitOne), and the charged amount is
     * remembered so release refunds exactly what was reserved.
     */
    void tenantReserve(const Request &request,
                       double charge_tokens = -1.0);
    void tenantRelease(const Request &request);

    /** Advance the per-tenant occupancy integrals by @p dt. */
    void integrateTenantShares(double dt);

    /**
     * Tenants with an under-budget ("entitled") request waiting in
     * @p queue, computed once per admission scan. A borrower is
     * denied while any OTHER tenant appears here (see
     * entitledElsewhere), preserving every active tenant's
     * guarantee. Reservations only grow during a scan, so the set
     * can only shrink mid-scan — a stale entry defers a borrower to
     * the next round but never breaks a guarantee.
     */
    std::set<unsigned>
    entitledTenantsWaiting(const std::deque<TimedRequest> &queue,
                           double now) const;

    /** True when @p entitled holds a tenant other than @p tenant. */
    static bool entitledElsewhere(const std::set<unsigned> &entitled,
                                  unsigned tenant);

    ClusterConfig cluster_;
    LlmConfig model_;
    EngineOptions options_;
    /** Constructor-supplied requests, delivered by prepare(). */
    std::vector<TimedRequest> pending_;
    std::unique_ptr<KvAllocator> allocator_;

    // --- Prefix-sharing state (prefixCache.enabled only). -----------

    /** The CoW prefix tree; declared after allocator_ so its chunk
     *  custody is released before the allocator dies. */
    std::unique_ptr<PrefixCache> prefixCache_;

    /** options_.prefixCache.enabled (hot-path guard). */
    bool prefixActive_ = false;

    /** Fractional tenant charges by request id (refunded exactly). */
    std::unordered_map<RequestId, double> prefixTenantCharge_;

    /** Peak shared/unique custody samples (EngineResult). */
    Bytes prefixSharedPeak_ = 0;
    Bytes prefixUniquePeak_ = 0;

    /** Sample shared/unique custody peaks (prefixActive_ only). */
    void prefixSampleOccupancy();

    /** Drop @p a's prefix-tree reference, if it holds one: the
     *  publisher's hold is structural, a warm hit's is a consumer
     *  ref (the fractional-charge divisor). */
    void releaseCacheRef(const Active &a);

    std::unique_ptr<PimModuleModel> module_;
    std::unique_ptr<XpuModel> xpu_;

    /**
     * Declared successor turns, keyed by the predecessor request id;
     * null when none were declared. Read-only and possibly shared
     * with other engines: an entry fires when its predecessor
     * completes here, which happens at most once, so nothing is
     * erased. Pending release events point into it.
     */
    std::shared_ptr<const SessionBook> sessions_;

    /** Any request carries a non-default class (tiers in play). */
    bool classesActive_ = false;

    /** EngineOptions::tenantBudgets is non-empty. */
    bool budgetsActive_ = false;

    /** Track per-tenant occupancy (budgets or tagged tenants). */
    bool tenantsActive_ = false;

    /** KV capacity in tokens (budget shares are fractions of it). */
    double capacityTokens_ = 0.0;

    /** Per-tier state, keyed ascending (classes active only). */
    std::map<unsigned, TierState> tiers_;

    /** Per-tenant state, keyed ascending (tenants active only). */
    std::map<unsigned, TenantState> tenants_;

    /**
     * Streaming p95 over the sliding SLO window of decode token
     * gaps; allocated in prepare() only when the policy steers
     * on the gap signal. advanceMember feeds it as gaps are
     * produced, so the admission gate reads the windowed percentile
     * in O(1) instead of copying and sorting the window per decode
     * cycle.
     */
    std::unique_ptr<WindowedQuantile> gapWindow_;

    /** Per-cycle scratch for planCohortCycle's attention jobs. */
    std::vector<AttentionJob> jobsScratch_;

    /** Live run (prepare() .. finalize()). */
    std::unique_ptr<EventRun> ev_;

    EngineResult result_;
};

/**
 * Convenience: build, apply options, run.
 */
EngineResult runServing(ClusterConfig cluster, const LlmConfig &model,
                        const std::vector<Request> &requests,
                        const PimphonyOptions &pimphony,
                        std::uint64_t max_steps = 200000);

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_ENGINE_HH
