#include "system/fleet.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace pimphony {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * One edge of the fault state machine at its nominal time: a
 * draining crash expands to DrainStart + Kill, a degrade to a
 * Rescale to its slowdown and one back to 1, a recover to its reload
 * start and completion. ReloadStart changes no state, but it is a
 * router-active barrier: it sweeps strays and counts a window.
 */
struct Transition
{
    enum Kind { kDrainStart, kKill, kRescale, kReloadStart, kReloadDone };
    double at;
    std::size_t replica;
    Kind kind;
    double value;
};

/** @p faults as one transition list, sorted by nominal time; ties
 *  keep replica order (a stable sort of a replica-major build). */
std::vector<Transition>
transitionPlan(const FaultSchedule &faults)
{
    std::vector<Transition> plan;
    for (std::size_t r = 0; r < faults.replicas.size(); ++r) {
        auto add = [&](double at, Transition::Kind kind, double value) {
            plan.push_back({at, r, kind, value});
        };
        for (const FaultEvent &e : faults.replicas[r]) {
            double at = e.atSeconds;
            switch (e.kind) {
              case FaultEvent::Kind::Crash:
                if (e.drainSeconds > 0.0)
                    add(at, Transition::kDrainStart, 0.0);
                add(at + e.drainSeconds, Transition::kKill, 0.0);
                break;
              case FaultEvent::Kind::Degrade:
                add(at, Transition::kRescale, e.slowdownFactor);
                add(at + e.durationSeconds, Transition::kRescale, 1.0);
                break;
              case FaultEvent::Kind::Recover:
                add(at, Transition::kReloadStart, 0.0);
                add(at + e.modelReloadSeconds, Transition::kReloadDone,
                    e.modelReloadSeconds);
                break;
            }
        }
    }
    std::stable_sort(plan.begin(), plan.end(),
                     [](const Transition &a, const Transition &b) {
                         return a.at < b.at;
                     });
    return plan;
}

/** Fold @p r's counters, peaks, sample stores and per-request maps
 *  into @p agg: sums, maxima, and concatenated stores. */
void
foldReplica(EngineResult &agg, EngineResult &r)
{
    agg.generatedTokens += r.generatedTokens;
    agg.completedRequests += r.completedRequests;
    agg.rejectedRequests += r.rejectedRequests;
    agg.preemptions += r.preemptions;
    agg.recomputedTokens += r.recomputedTokens;
    agg.simEvents += r.simEvents;
    agg.sloDeferrals += r.sloDeferrals;
    agg.chunkSlices += r.chunkSlices;
    agg.decodeOvertakes += r.decodeOvertakes;
    agg.decodePreemptSlices += r.decodePreemptSlices;
    agg.tierInversions += r.tierInversions;
    agg.budgetDeferrals += r.budgetDeferrals;
    agg.prefixHits += r.prefixHits;
    agg.prefixMisses += r.prefixMisses;
    agg.prefixEvictions += r.prefixEvictions;
    agg.prefixCachedTokens += r.prefixCachedTokens;
    agg.savedPrefillSeconds += r.savedPrefillSeconds;
    agg.sharedKvPeakBytes =
        std::max(agg.sharedKvPeakBytes, r.sharedKvPeakBytes);
    agg.uniqueKvPeakBytes =
        std::max(agg.uniqueKvPeakBytes, r.uniqueKvPeakBytes);

    agg.attentionSeconds += r.attentionSeconds;
    agg.fcSeconds += r.fcSeconds;
    agg.prefillSeconds += r.prefillSeconds;
    agg.xpuPrefillBusySeconds += r.xpuPrefillBusySeconds;
    agg.attentionEnergy += r.attentionEnergy;
    agg.fcEnergy += r.fcEnergy;

    agg.simulatedSeconds =
        std::max(agg.simulatedSeconds, r.simulatedSeconds);
    agg.maxDecodeXpuWaitSeconds = std::max(agg.maxDecodeXpuWaitSeconds,
                                           r.maxDecodeXpuWaitSeconds);
    agg.maxTierInversionWaitSeconds = std::max(
        agg.maxTierInversionWaitSeconds, r.maxTierInversionWaitSeconds);

    agg.requestLatencyRuns.absorb(std::move(r.requestLatencyRuns));
    agg.firstTokenRuns.absorb(std::move(r.firstTokenRuns));
    agg.tokenGapRuns.absorb(std::move(r.tokenGapRuns));
    for (const auto &kv : r.firstTokenLatency)
        agg.firstTokenLatency[kv.first] = kv.second;
    for (const auto &kv : r.completionSeconds)
        agg.completionSeconds[kv.first] = kv.second;
}

/** Fleet-level aggregate of @p results (see FleetResult); takes
 *  their sample stores. */
EngineResult
aggregateResults(std::vector<EngineResult> &results)
{
    EngineResult agg;

    // Time-weighted accumulators: sums of value * replica seconds and
    // of seconds, folded into the means at the end.
    double batch_sum = 0.0, mac_sum = 0.0, cap_sum = 0.0;
    double sec_sum = 0.0;

    std::map<unsigned, EngineResult::ClassLatency> classes;

    struct TenantAccum
    {
        EngineResult::TenantOccupancy out;
        double share_sum = 0.0, share_w = 0.0;
    };
    std::map<unsigned, TenantAccum> tenants;

    for (EngineResult &r : results) {
        foldReplica(agg, r);
        batch_sum += r.avgEffectiveBatch * r.simulatedSeconds;
        mac_sum += r.macUtilization * r.simulatedSeconds;
        cap_sum += r.capacityUtilization * r.simulatedSeconds;
        sec_sum += r.simulatedSeconds;

        for (auto &cl : r.classLatencies) {
            EngineResult::ClassLatency &out = classes[cl.tier];
            out.tier = cl.tier;
            out.gapSloTargetSeconds =
                std::max(out.gapSloTargetSeconds, cl.gapSloTargetSeconds);
            out.requests += cl.requests;
            out.completedRequests += cl.completedRequests;
            out.firstTokenRuns.absorb(std::move(cl.firstTokenRuns));
            out.tokenGapRuns.absorb(std::move(cl.tokenGapRuns));
        }

        for (const auto &to : r.tenantOccupancy) {
            TenantAccum &ta = tenants[to.tenant];
            ta.out.tenant = to.tenant;
            ta.out.budgetShare =
                std::max(ta.out.budgetShare, to.budgetShare);
            ta.out.admittedRequests += to.admittedRequests;
            ta.out.budgetDeferrals += to.budgetDeferrals;
            ta.out.peakTokenShare =
                std::max(ta.out.peakTokenShare, to.peakTokenShare);
            ta.share_sum += to.avgTokenShare * r.simulatedSeconds;
            ta.share_w += r.simulatedSeconds;
        }
    }

    if (agg.simulatedSeconds > 0.0)
        agg.tokensPerSecond = static_cast<double>(agg.generatedTokens) /
                              agg.simulatedSeconds;
    if (agg.prefixHits + agg.prefixMisses > 0)
        agg.prefixHitRate =
            static_cast<double>(agg.prefixHits) /
            static_cast<double>(agg.prefixHits + agg.prefixMisses);
    if (agg.simulatedSeconds > 0.0)
        // Sum of per-replica concurrent batches, time-averaged over
        // the fleet makespan.
        agg.avgEffectiveBatch = batch_sum / agg.simulatedSeconds;
    if (sec_sum > 0.0) {
        agg.macUtilization = mac_sum / sec_sum;
        agg.capacityUtilization = cap_sum / sec_sum;
    }

    for (auto &kv : classes)
        agg.classLatencies.push_back(std::move(kv.second));
    for (auto &kv : tenants) {
        TenantAccum &ta = kv.second;
        if (ta.share_w > 0.0)
            ta.out.avgTokenShare = ta.share_sum / ta.share_w;
        agg.tenantOccupancy.push_back(ta.out);
    }
    agg.summarizeLatencies();
    return agg;
}

} // namespace

std::string
routePolicyName(RoutePolicy policy)
{
    switch (policy) {
      case RoutePolicy::RoundRobin:     return "round-robin";
      case RoutePolicy::LeastLoaded:    return "least-loaded";
      case RoutePolicy::PrefixAffinity: return "prefix-affinity";
    }
    return "?";
}

/** State of one prepared run, heap-held so it survives between
 *  advanceTo() calls; the member functions are the loop's steps. */
struct FleetEngine::Run
{
    explicit Run(const FleetEngine &fleet);

    const FleetOptions &options;
    const std::vector<TimedRequest> &trace;
    std::vector<std::unique_ptr<ServingEngine>> engines;

    /** One thread (inline, index order) in lockstep, where every
     *  barrier is a routing point. */
    SweepRunner runner;

    /** Router load signal: queued tokens per replica (LeastLoaded
     *  and PrefixAffinity). */
    std::vector<double> loads;

    /** 1 unless the replica is draining, down or reloading. */
    std::vector<char> routable;

    /** Unroutable intervals per replica, by nominal fault time; an
     *  open interval carries a negative end until it closes. */
    std::vector<std::vector<std::pair<double, double>>> downIntervals;

    /** Session -> replica pin, recorded at first routing. */
    std::unordered_map<SessionId, std::size_t> sessionReplica;
    std::size_t rrNext = 0;

    std::vector<Transition> plan;
    std::size_t nextTransition = 0;
    std::size_t nextArrival = 0; // next unrouted trace index
    std::deque<TimedRequest> retries; // nondecreasing arrival order
    std::unordered_map<RequestId, unsigned> attempts;
    std::vector<std::vector<TimedRequest>> batches;
    std::uint64_t barrierIndex = 0; // windowed: next B_j = j * d
    bool drained = false;

    /** Routing tallies, window count and fault counters so far. */
    FleetResult result;

    bool windowed() const { return options.dispatchLatencySeconds > 0.0; }

    bool
    anyRoutable() const
    {
        return std::find(routable.begin(), routable.end(), 1) !=
               routable.end();
    }

    /** Policies that read and maintain the queued-token signal. */
    bool
    usesLoads() const
    {
        return options.policy == RoutePolicy::LeastLoaded ||
               options.policy == RoutePolicy::PrefixAffinity;
    }

    std::size_t pickReplica(const TimedRequest &timed);
    double nextBarrier();
    void barrier(double at);
    void advanceReplicas(double horizon);
    void applyTransitions(double barrier);
    std::size_t evacuate(std::size_t r, bool kill, double at);
    bool sweepStrays(double at);
    void routeDue(double barrier);
    void drain();
};

FleetEngine::Run::Run(const FleetEngine &fleet)
    : options(fleet.options_), trace(fleet.trace_),
      runner(fleet.options_.dispatchLatencySeconds > 0.0
                 ? fleet.options_.threads
                 : 1),
      plan(transitionPlan(fleet.options_.faults))
{
    const std::size_t R = options.replicas;
    engines.reserve(R);
    for (std::size_t i = 0; i < R; ++i) {
        auto eng = std::make_unique<ServingEngine>(
            fleet.cluster_, fleet.model_, std::vector<TimedRequest>{},
            options.engine);
        // Every replica learns the full class/tenant shape of the
        // trace, as a bare engine would from its constructor, and
        // shares the whole session book: a successor turn fires only
        // on the replica that completes its predecessor, so a
        // session's turns chain wherever its turn 0 was routed.
        eng->declareWorkload(trace);
        if (fleet.sessions_)
            eng->declareSessionTurns(fleet.sessions_);
        eng->prepare();
        engines.push_back(std::move(eng));
    }
    loads.assign(R, 0.0);
    routable.assign(R, 1);
    downIntervals.assign(R, {});
    batches.resize(R);
    result.routedRequests.assign(R, 0);
    result.routedSessions.assign(R, 0);
}

/** Route one request to a routable replica (the caller guarantees
 *  one exists) and return its index. */
std::size_t
FleetEngine::Run::pickReplica(const TimedRequest &timed)
{
    const std::size_t R = options.replicas;
    // Session stickiness precedes policy, so a conversation's KV
    // history never splits across replicas. A pin to an unroutable
    // replica is dropped: the session re-pins by policy and its
    // history re-prefills (is charged again) wherever it lands.
    SessionId session = timed.request.session;
    std::size_t pick = R;
    if (session != kNoSession) {
        auto it = sessionReplica.find(session);
        if (it != sessionReplica.end() && routable[it->second])
            pick = it->second;
        else if (it != sessionReplica.end())
            sessionReplica.erase(it);
    }
    if (pick == R && options.policy == RoutePolicy::RoundRobin) {
        // Strict cycling over the routable replicas: callers
        // guarantee at least one, so the skip loop terminates.
        pick = rrNext % R;
        while (!routable[pick])
            pick = (pick + 1) % R;
        rrNext = (pick + 1) % R;
    } else if (pick == R) {
        std::size_t best = R; // sentinel: first routable wins
        if (options.policy == RoutePolicy::PrefixAffinity) {
            // Warmest cache wins; ties fall to the lighter load,
            // then the lower index. All-cold requests drop through
            // to the exact least-loaded decision, so the policy is
            // decision-identical to LeastLoaded when caching is off.
            Tokens warmest = 0;
            for (std::size_t i = 0; i < R; ++i) {
                if (!routable[i])
                    continue;
                Tokens warm = engines[i]->prefixWarmTokens(timed.request);
                if (warm > warmest ||
                    (warm == warmest && warm > 0 && best != R &&
                     loads[i] < loads[best])) {
                    warmest = warm;
                    best = i;
                }
            }
        }
        if (best == R)
            for (std::size_t i = 0; i < R; ++i)
                if (routable[i] && (best == R || loads[i] < loads[best]))
                    best = i;
        pick = best;
    }
    // Keep the load signal honest for pinned requests too.
    if (usesLoads())
        loads[pick] += static_cast<double>(timed.request.contextTokens +
                                           timed.request.decodeTokens);
    if (session != kNoSession)
        sessionReplica.emplace(session, pick);
    return pick;
}

/**
 * The next router-active barrier (+infinity when none is left). The
 * router acts on the next fault transition always, and on arrivals
 * and retries only while someone can take them: during a total
 * outage they wait for a recovery, and with no recovery scripted
 * they are lost here. Windowed, this is the first B_j = j * d at or
 * after that instant: skipping router-idle barriers dispatches the
 * identical event sequence. FP rounding may land one barrier short;
 * it routes nothing and the next one retries. Idempotent until
 * barrier() runs.
 */
double
FleetEngine::Run::nextBarrier()
{
    double t_next = kInf;
    if (nextTransition < plan.size())
        t_next = plan[nextTransition].at;
    if (anyRoutable()) {
        if (nextArrival < trace.size())
            t_next = std::min(t_next, trace[nextArrival].arrivalSeconds);
        if (!retries.empty())
            t_next = std::min(t_next, retries.front().arrivalSeconds);
    }
    if (t_next == kInf) {
        result.lostRequests += trace.size() - nextArrival + retries.size();
        nextArrival = trace.size();
        retries.clear();
        return kInf;
    }
    if (!windowed())
        return t_next;
    const double d = options.dispatchLatencySeconds;
    if (t_next > 0.0)
        barrierIndex = std::max(
            barrierIndex, static_cast<std::uint64_t>(std::ceil(t_next / d)));
    return static_cast<double>(barrierIndex) * d;
}

/** Process one router-active barrier; it counts one window. */
void
FleetEngine::Run::barrier(double at)
{
    // Advance everyone to the barrier first, so the router reads
    // replica state (the load signal) at exactly that instant.
    advanceReplicas(at);
    applyTransitions(at);
    sweepStrays(at);
    if (anyRoutable())
        routeDue(at);
    ++result.windows;
    if (windowed())
        ++barrierIndex;
}

void
FleetEngine::Run::advanceReplicas(double horizon)
{
    runner.forEach(engines.size(), [&](std::size_t i) {
        engines[i]->advanceTo(horizon);
    });
}

/** Fire every fault transition at or before @p barrier. */
void
FleetEngine::Run::applyTransitions(double barrier)
{
    while (nextTransition < plan.size() &&
           plan[nextTransition].at <= barrier) {
        const Transition &tr = plan[nextTransition++];
        const std::size_t r = tr.replica;
        switch (tr.kind) {
          case Transition::kDrainStart:
          case Transition::kKill:
            // A graceful drain migrates queued work now and gives
            // in-flight work the grace period; a kill fails the
            // in-flight work over too. Sessions pinned to the replica
            // re-pin on their next turn.
            if (routable[r]) {
                routable[r] = 0;
                downIntervals[r].push_back({tr.at, -1.0});
            }
            evacuate(r, tr.kind == Transition::kKill, tr.at);
            for (auto it = sessionReplica.begin();
                 it != sessionReplica.end();)
                it = it->second == r ? sessionReplica.erase(it)
                                     : std::next(it);
            break;
          case Transition::kRescale:
            engines[r]->setServiceRateScale(tr.value);
            break;
          case Transition::kReloadStart:
            break;
          case Transition::kReloadDone:
            // Fresh process: full speed, accepting traffic.
            engines[r]->setServiceRateScale(1.0);
            engines[r]->restoreService();
            result.reloadSeconds += tr.value;
            if (!routable[r]) {
                routable[r] = 1;
                downIntervals[r].back().second = tr.at;
            }
            break;
        }
    }
}

/**
 * Pull replica @p r's queued work, and its in-flight work too when
 * @p kill, off for re-routing from @p at; each displacement charges
 * one attempt of the retry budget. Returns the requests displaced.
 */
std::size_t
FleetEngine::Run::evacuate(std::size_t r, bool kill, double at)
{
    ServingEngine::Evacuation ev = engines[r]->evacuate(kill);
    result.evacuatedRequests += ev.queued.size();
    result.lostTokens += ev.lostTokens;
    for (const auto *displaced : {&ev.queued, &ev.inFlight}) {
        for (TimedRequest timed : *displaced) {
            unsigned k = ++attempts[timed.request.id];
            if (k > options.retryBudget) {
                ++result.lostRequests;
                continue;
            }
            ++result.retriedRequests;
            // Deterministic exponential backoff: retry k is re-offered
            // base * 2^(k-1) after the fault, queued behind every
            // retry due no later.
            timed.arrivalSeconds =
                std::max(timed.arrivalSeconds, at) +
                options.retryBackoffSeconds *
                    std::ldexp(1.0, static_cast<int>(k) - 1);
            auto later = [](double t, const TimedRequest &q) {
                return t < q.arrivalSeconds;
            };
            retries.insert(std::upper_bound(retries.begin(), retries.end(),
                                            timed.arrivalSeconds, later),
                           timed);
        }
    }
    return ev.queued.size() + ev.inFlight.size();
}

/**
 * Unroutable replicas may still receive closed-loop session releases
 * (a predecessor completed just before the fault); migrate anything
 * that queued up on them. True if anything did.
 */
bool
FleetEngine::Run::sweepStrays(double at)
{
    bool swept = false;
    for (std::size_t r = 0; r < engines.size(); ++r)
        if (!routable[r] && evacuate(r, false, at) > 0)
            swept = true;
    return swept;
}

/**
 * Route every trace arrival and retry due at @p barrier, merged in
 * arrival order, by loads read at that instant. Deliveries are
 * stamped arrival + d, clamped up to the barrier: a backlog held
 * through an outage may be older than the replicas' horizons, and
 * injectArrivals requires conservative ordering. In-order flow
 * always lands inside the next window, so only displaced work clamps.
 */
void
FleetEngine::Run::routeDue(double barrier)
{
    for (std::size_t i = 0; i < engines.size(); ++i) {
        batches[i].clear();
        if (usesLoads())
            loads[i] = engines[i]->queuedTokens();
    }
    for (;;) {
        bool trace_due = nextArrival < trace.size() &&
                         trace[nextArrival].arrivalSeconds <= barrier;
        bool retry_due =
            !retries.empty() && retries.front().arrivalSeconds <= barrier;
        if (!trace_due && !retry_due)
            break;
        bool take_trace = trace_due &&
                          (!retry_due ||
                           trace[nextArrival].arrivalSeconds <=
                               retries.front().arrivalSeconds);
        TimedRequest timed;
        if (take_trace) {
            timed = trace[nextArrival++];
        } else {
            timed = retries.front();
            retries.pop_front();
        }
        std::size_t r = pickReplica(timed);
        timed.arrivalSeconds = std::max(
            timed.arrivalSeconds + options.dispatchLatencySeconds, barrier);
        batches[r].push_back(timed);
        ++result.routedRequests[r];
    }
    for (std::size_t i = 0; i < engines.size(); ++i)
        if (!batches[i].empty())
            engines[i]->injectArrivals(batches[i]);
}

/**
 * The post-trace drain: one independent drain per replica, repeated
 * while stray session releases swept off unroutable replicas need
 * one more hop. Each drain counts one window.
 */
void
FleetEngine::Run::drain()
{
    for (;;) {
        advanceReplicas(kInf);
        ++result.windows;
        double at = 0.0;
        for (const auto &eng : engines)
            at = std::max(at, eng->now());
        if (!sweepStrays(at))
            break;
        if (retries.empty())
            continue; // swept, but every stray exhausted its budget
        if (!anyRoutable()) {
            result.lostRequests += retries.size();
            retries.clear();
            break;
        }
        routeDue(std::max(at, retries.back().arrivalSeconds));
    }
    drained = true;
}

FleetEngine::FleetEngine(const ClusterConfig &cluster,
                         const LlmConfig &model,
                         std::vector<TimedRequest> trace,
                         const FleetOptions &options)
    : cluster_(cluster), model_(model), trace_(std::move(trace)),
      options_(options)
{
    if (options_.replicas == 0)
        fatal("FleetEngine: FleetOptions::replicas must be at least 1");
    auto require_finite_nonneg = [](const char *field, double v) {
        if (!std::isfinite(v) || v < 0.0)
            fatal("FleetEngine: FleetOptions::%s must be finite and >= 0 "
                  "(got %g)", field, v);
    };
    require_finite_nonneg("dispatchLatencySeconds",
                          options_.dispatchLatencySeconds);
    require_finite_nonneg("retryBackoffSeconds",
                          options_.retryBackoffSeconds);
    options_.faults.validate(options_.replicas);
    sortByArrival(trace_);
}

FleetEngine::~FleetEngine() = default;

void
FleetEngine::setSessions(SessionBook sessions)
{
    if (run_)
        fatal("FleetEngine::setSessions() after prepare()");
    sessions_ = mergeSessionBooks(
        std::move(sessions_),
        std::make_shared<const SessionBook>(std::move(sessions)));
}

FleetResult
FleetEngine::run()
{
    prepare();
    advanceTo(kInf);
    return finalize();
}

void
FleetEngine::prepare()
{
    if (run_)
        fatal("FleetEngine::prepare() called twice");
    run_ = std::make_unique<Run>(*this);
}

void
FleetEngine::advanceTo(double horizon)
{
    if (!run_)
        fatal("FleetEngine::advanceTo() before prepare()");
    if (std::isnan(horizon))
        fatal("FleetEngine::advanceTo(): NaN horizon");
    Run &run = *run_;
    if (run.drained)
        return;
    for (double b = run.nextBarrier(); b != kInf && b <= horizon;
         b = run.nextBarrier())
        run.barrier(b);
    if (horizon == kInf)
        run.drain();
    else
        run.advanceReplicas(horizon);
}

bool
FleetEngine::drained() const
{
    return run_ && run_->drained;
}

FleetResult
FleetEngine::finalize()
{
    if (!drained())
        fatal("FleetEngine::finalize() before advanceTo(+inf)");
    Run &run = *run_;
    if (run.engines.empty()) // released by the first finalize()
        fatal("FleetEngine::finalize() called twice");

    FleetResult fleet = std::move(run.result);
    fleet.replicas.reserve(run.engines.size());
    for (auto &eng : run.engines)
        fleet.replicas.push_back(eng->finalize());
    run.engines.clear();
    fleet.aggregate = aggregateResults(fleet.replicas);
    for (const auto &kv : run.sessionReplica)
        ++fleet.routedSessions[kv.second];

    // [k] = displaced requests re-routed exactly k times, capped.
    fleet.retryHistogram.assign(options_.retryBudget + 1, 0);
    for (const auto &kv : run.attempts)
        ++fleet.retryHistogram[std::min<unsigned>(kv.second,
                                                  options_.retryBudget)];

    // Goodput: decode tokens of requests that completed somewhere
    // (integer sums: iteration order cannot perturb them), unlike
    // generatedTokens, which counts discarded partial decodes too.
    std::unordered_map<RequestId, Tokens> decode_of;
    decode_of.reserve(trace_.size() + (sessions_ ? sessions_->size() : 0));
    for (const TimedRequest &timed : trace_)
        decode_of[timed.request.id] = timed.request.decodeTokens;
    if (sessions_)
        for (const auto &kv : *sessions_)
            decode_of[kv.second.request.id] =
                kv.second.request.decodeTokens;
    for (const EngineResult &r : fleet.replicas)
        for (const auto &kv : r.completionSeconds) {
            auto it = decode_of.find(kv.first);
            if (it != decode_of.end())
                fleet.goodputTokens += it->second;
        }
    double makespan = fleet.aggregate.simulatedSeconds;
    if (makespan > 0.0)
        fleet.goodputTokensPerSecond =
            static_cast<double>(fleet.goodputTokens) / makespan;

    // Availability: the routable share of the makespan, by nominal
    // fault-transition times.
    fleet.availability.assign(run.routable.size(), 1.0);
    for (std::size_t i = 0; makespan > 0.0 && i < run.routable.size(); ++i) {
        double down = 0.0;
        for (const auto &iv : run.downIntervals[i]) {
            double lo = std::min(iv.first, makespan);
            double hi =
                iv.second < 0.0 ? makespan : std::min(iv.second, makespan);
            down += std::max(hi - lo, 0.0);
        }
        fleet.availability[i] =
            std::min(std::max(1.0 - down / makespan, 0.0), 1.0);
    }
    return fleet;
}

} // namespace pimphony
