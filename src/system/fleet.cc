#include "system/fleet.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace pimphony {

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

std::string
replicaHealthName(ReplicaHealth health)
{
    switch (health) {
      case ReplicaHealth::Up:        return "up";
      case ReplicaHealth::Degraded:  return "degraded";
      case ReplicaHealth::Draining:  return "draining";
      case ReplicaHealth::Down:      return "down";
      case ReplicaHealth::Reloading: return "reloading";
    }
    return "?";
}

FleetEngine::FleetEngine(const ClusterConfig &cluster,
                         const LlmConfig &model,
                         std::vector<TimedRequest> trace,
                         const FleetOptions &options)
    : cluster_(cluster), model_(model), trace_(std::move(trace)),
      options_(options)
{
    if (options_.replicas == 0)
        fatal("FleetEngine: at least one replica is required");
    if (options_.dispatchLatencySeconds < 0.0)
        fatal("FleetEngine: negative dispatch latency");
    sortByArrival(trace_);
}

std::size_t
FleetEngine::pickReplica(const TimedRequest &timed)
{
    const std::size_t R = options_.replicas;
    // Session stickiness precedes policy: a session's later requests
    // follow the replica its first one was routed to, so one
    // conversation's KV history never splits across replicas. A pin
    // to a replica that stopped accepting traffic is dropped — the
    // session re-pins below and its history re-prefills wherever it
    // lands (the context tokens are charged again, honestly).
    SessionId session = timed.request.session;
    if (session != kNoSession) {
        auto it = sessionReplica_.find(session);
        if (it != sessionReplica_.end()) {
            if (routable_[it->second]) {
                // Keep the load signal honest for the requests the
                // pin bypasses the policy for.
                if (usesLoads())
                    loads_[it->second] += static_cast<double>(
                        timed.request.contextTokens +
                        timed.request.decodeTokens);
                return it->second;
            }
            sessionReplica_.erase(it);
        }
    }
    std::size_t pick;
    if (options_.policy == RoutePolicy::RoundRobin) {
        // Strict cycling over the routable replicas: callers
        // guarantee at least one, so the skip loop terminates.
        pick = rrNext_ % R;
        while (!routable_[pick])
            pick = (pick + 1) % R;
        rrNext_ = (pick + 1) % R;
    } else {
        std::size_t best = R; // sentinel: first routable wins
        if (options_.policy == RoutePolicy::PrefixAffinity) {
            // Warmest cache wins; ties fall to the lighter load,
            // then the lower index. All-cold requests drop through
            // to the exact least-loaded decision, so the policy is
            // decision-identical to LeastLoaded when caching is off.
            Tokens warmest = 0;
            for (std::size_t i = 0; i < R; ++i) {
                if (!routable_[i])
                    continue;
                Tokens warm =
                    engines_[i]->prefixWarmTokens(timed.request);
                if (warm > warmest ||
                    (warm == warmest && warm > 0 && best != R &&
                     loads_[i] < loads_[best])) {
                    warmest = warm;
                    best = i;
                }
            }
        }
        if (best == R)
            for (std::size_t i = 0; i < R; ++i)
                if (routable_[i] &&
                    (best == R || loads_[i] < loads_[best]))
                    best = i;
        loads_[best] +=
            static_cast<double>(timed.request.contextTokens +
                                timed.request.decodeTokens);
        pick = best;
    }
    if (session != kNoSession)
        sessionReplica_.emplace(session, pick);
    return pick;
}

void
FleetEngine::setSessions(SessionBook sessions)
{
    if (ran_)
        fatal("FleetEngine::setSessions() after run()");
    sessions_ = mergeSessionBooks(
        std::move(sessions_),
        std::make_shared<const SessionBook>(std::move(sessions)));
}

FleetResult
FleetEngine::run()
{
    if (ran_)
        fatal("FleetEngine::run() may be called once");
    ran_ = true;

    const std::size_t R = options_.replicas;
    engines_.reserve(R);
    for (std::size_t i = 0; i < R; ++i) {
        auto eng = std::make_unique<ServingEngine>(
            cluster_, model_, std::vector<TimedRequest>{},
            options_.engine);
        // Every replica learns the full class/tenant shape of the
        // trace up front, exactly as a bare engine would from its
        // constructor, even though it will receive only a routed
        // subset.
        eng->declareWorkload(trace_);
        // Likewise the whole session book, shared rather than
        // copied: a successor turn fires only on the replica that
        // completes its predecessor, so a session's turns chain
        // wherever its turn 0 was routed.
        if (sessions_)
            eng->declareSessionTurns(sessions_);
        eng->prepare();
        engines_.push_back(std::move(eng));
    }

    FleetResult fleet;
    fleet.routedRequests.assign(R, 0);
    fleet.routedSessions.assign(R, 0);
    loads_.assign(R, 0.0);
    health_.assign(R, ReplicaHealth::Up);
    routable_.assign(R, 1);
    downIntervals_.assign(R, {});
    runWindows(fleet);

    fleet.replicas.reserve(R);
    for (auto &eng : engines_)
        fleet.replicas.push_back(eng->finalize());
    engines_.clear();
    fleet.aggregate = aggregateResults(fleet.replicas);
    for (const auto &kv : sessionReplica_)
        ++fleet.routedSessions[kv.second];

    // Goodput: decode tokens of requests that actually completed
    // somewhere (integer sums, so iteration order cannot perturb
    // the result). The throughput basis (generatedTokens) also
    // counts partial decodes a crash (lostTokens) or a preemption
    // (recomputedTokens) discarded.
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

    // Availability: the routable share of the makespan, from the
    // nominal fault-transition times recorded during the run.
    fleet.availability.assign(R, 1.0);
    if (makespan > 0.0) {
        for (std::size_t i = 0; i < R; ++i) {
            double down = 0.0;
            for (const auto &iv : downIntervals_[i]) {
                double lo = std::min(iv.first, makespan);
                double hi = iv.second < 0.0
                                ? makespan
                                : std::min(iv.second, makespan);
                down += std::max(hi - lo, 0.0);
            }
            fleet.availability[i] =
                std::min(std::max(1.0 - down / makespan, 0.0), 1.0);
        }
    }
    return fleet;
}

void
FleetEngine::runWindows(FleetResult &fleet)
{
    const std::size_t R = options_.replicas;
    const double d = options_.dispatchLatencySeconds;
    const bool windowed = d > 0.0;
    const double inf = std::numeric_limits<double>::infinity();

    options_.faults.validate(options_.replicas);

    // Normalize the schedule into one global transition list: each
    // scripted event expands to its state-machine edges (a draining
    // crash becomes DrainStart + Kill, a degrade becomes its start
    // and end, a recover its reload start and completion), sorted by
    // nominal time with ties broken by replica index (stable sort
    // over the replica-major build order).
    enum Kind {
        kDrainStart,
        kKill,
        kDegradeStart,
        kDegradeEnd,
        kReloadStart,
        kReloadDone
    };
    struct Transition
    {
        double at;
        std::size_t replica;
        Kind kind;
        double value;
    };
    std::vector<Transition> plan;
    for (std::size_t r = 0; r < options_.faults.replicas.size(); ++r) {
        for (const FaultEvent &e : options_.faults.replicas[r]) {
            switch (e.kind) {
              case FaultEvent::Kind::Crash:
                if (e.drainSeconds > 0.0) {
                    plan.push_back({e.atSeconds, r, kDrainStart, 0.0});
                    plan.push_back({e.atSeconds + e.drainSeconds, r,
                                    kKill, 0.0});
                } else {
                    plan.push_back({e.atSeconds, r, kKill, 0.0});
                }
                break;
              case FaultEvent::Kind::Degrade:
                plan.push_back({e.atSeconds, r, kDegradeStart,
                                e.slowdownFactor});
                plan.push_back({e.atSeconds + e.durationSeconds, r,
                                kDegradeEnd, 0.0});
                break;
              case FaultEvent::Kind::Recover:
                plan.push_back({e.atSeconds, r, kReloadStart, 0.0});
                plan.push_back({e.atSeconds + e.modelReloadSeconds, r,
                                kReloadDone, e.modelReloadSeconds});
                break;
            }
        }
    }
    std::stable_sort(plan.begin(), plan.end(),
                     [](const Transition &a, const Transition &b) {
                         return a.at < b.at;
                     });
    std::size_t next_tr = 0;

    std::size_t next = 0; // next unrouted trace index
    std::deque<PendingRetry> retries; // nondecreasing arrival order
    std::unordered_map<RequestId, unsigned> attempts;
    std::vector<std::vector<TimedRequest>> batches(R);

    auto any_routable = [&]() {
        for (std::size_t i = 0; i < R; ++i)
            if (routable_[i])
                return true;
        return false;
    };
    auto set_unroutable = [&](std::size_t r, double at) {
        if (!routable_[r])
            return;
        routable_[r] = 0;
        downIntervals_[r].push_back({at, -1.0});
    };
    auto set_routable = [&](std::size_t r, double at) {
        if (routable_[r])
            return;
        routable_[r] = 1;
        downIntervals_[r].back().second = at;
    };
    auto drop_pins = [&](std::size_t r) {
        // Sessions pinned to a dead replica re-pin on their next
        // turn (pickReplica re-pins once the pin is gone).
        for (auto it = sessionReplica_.begin();
             it != sessionReplica_.end();) {
            if (it->second == r)
                it = sessionReplica_.erase(it);
            else
                ++it;
        }
    };
    auto queue_retry = [&](const TimedRequest &timed, double at) {
        unsigned &k = attempts[timed.request.id];
        ++k;
        if (k > options_.retryBudget) {
            ++fleet.lostRequests;
            return;
        }
        ++fleet.retriedRequests;
        // Deterministic exponential backoff from the displacing
        // fault: retry k is re-offered base * 2^(k-1) later.
        double backoff =
            options_.retryBackoffSeconds *
            std::ldexp(1.0, static_cast<int>(k) - 1);
        PendingRetry again{timed, k};
        again.timed.arrivalSeconds =
            std::max(timed.arrivalSeconds, at) + backoff;
        retries.push_back(again);
    };
    auto sort_retries = [&]() {
        std::stable_sort(retries.begin(), retries.end(),
                         [](const PendingRetry &a,
                            const PendingRetry &b) {
                             return a.timed.arrivalSeconds <
                                    b.timed.arrivalSeconds;
                         });
    };
    auto sweep_strays = [&](double at) {
        // Unroutable replicas may still receive closed-loop session
        // releases (a predecessor completed just before the fault);
        // migrate anything that queued up on them.
        bool swept = false;
        for (std::size_t r = 0; r < R; ++r) {
            if (routable_[r])
                continue;
            auto ev = engines_[r]->evacuate(false);
            fleet.evacuatedRequests += ev.queued.size();
            for (const TimedRequest &timed : ev.queued) {
                queue_retry(timed, at);
                swept = true;
            }
        }
        return swept;
    };
    auto apply_transitions = [&](double barrier) {
        while (next_tr < plan.size() && plan[next_tr].at <= barrier) {
            const Transition &tr = plan[next_tr++];
            std::size_t r = tr.replica;
            switch (tr.kind) {
              case kDrainStart: {
                health_[r] = ReplicaHealth::Draining;
                set_unroutable(r, tr.at);
                // Graceful drain: queued work migrates now,
                // in-flight work keeps the grace period.
                auto ev = engines_[r]->evacuate(false);
                fleet.evacuatedRequests += ev.queued.size();
                for (const TimedRequest &timed : ev.queued)
                    queue_retry(timed, tr.at);
                drop_pins(r);
                break;
              }
              case kKill: {
                health_[r] = ReplicaHealth::Down;
                set_unroutable(r, tr.at);
                auto ev = engines_[r]->evacuate(true);
                fleet.evacuatedRequests += ev.queued.size();
                fleet.lostTokens += ev.lostTokens;
                for (const TimedRequest &timed : ev.queued)
                    queue_retry(timed, tr.at);
                for (const TimedRequest &timed : ev.inFlight)
                    queue_retry(timed, tr.at);
                drop_pins(r);
                break;
              }
              case kDegradeStart:
                if (health_[r] == ReplicaHealth::Up)
                    health_[r] = ReplicaHealth::Degraded;
                engines_[r]->setServiceRateScale(tr.value);
                break;
              case kDegradeEnd:
                if (health_[r] == ReplicaHealth::Degraded)
                    health_[r] = ReplicaHealth::Up;
                engines_[r]->setServiceRateScale(1.0);
                break;
              case kReloadStart:
                if (health_[r] == ReplicaHealth::Down)
                    health_[r] = ReplicaHealth::Reloading;
                break;
              case kReloadDone:
                // Fresh process: full speed, accepting traffic.
                engines_[r]->setServiceRateScale(1.0);
                engines_[r]->restoreService();
                health_[r] = ReplicaHealth::Up;
                fleet.reloadSeconds += tr.value;
                set_routable(r, tr.at);
                break;
            }
        }
        sweep_strays(barrier);
        sort_retries();
    };
    auto refresh_loads = [&]() {
        if (!usesLoads())
            return;
        for (std::size_t i = 0; i < R; ++i)
            loads_[i] = engines_[i]->queuedTokens();
    };
    auto route_due = [&](double barrier) {
        // Merge the trace and retry streams in arrival order and
        // route everything due. Deliveries are stamped arrival + d,
        // clamped up to the barrier: a backlog held through an
        // outage may carry arrivals older than the replicas'
        // advanced horizons, and the clamp keeps every injection at
        // or ahead of them — the conservative-ordering contract
        // injectArrivals requires. In-order flow always has
        // arrival + d > barrier (delivery inside the next window),
        // so the clamp only binds for displaced work.
        for (std::size_t i = 0; i < R; ++i)
            batches[i].clear();
        for (;;) {
            bool trace_due = next < trace_.size() &&
                             trace_[next].arrivalSeconds <= barrier;
            bool retry_due =
                !retries.empty() &&
                retries.front().timed.arrivalSeconds <= barrier;
            if (!trace_due && !retry_due)
                break;
            bool take_trace =
                trace_due &&
                (!retry_due ||
                 trace_[next].arrivalSeconds <=
                     retries.front().timed.arrivalSeconds);
            TimedRequest timed;
            if (take_trace) {
                timed = trace_[next++];
            } else {
                timed = retries.front().timed;
                retries.pop_front();
            }
            std::size_t r = pickReplica(timed);
            timed.arrivalSeconds =
                std::max(timed.arrivalSeconds + d, barrier);
            batches[r].push_back(timed);
            ++fleet.routedRequests[r];
        }
        for (std::size_t i = 0; i < R; ++i)
            if (!batches[i].empty())
                engines_[i]->injectArrivals(batches[i]);
    };

    // Lockstep (d <= 0) advances serially in index order: every
    // barrier is a routing point, so the pool only serves windows.
    SweepRunner runner(windowed ? options_.threads : 1);
    auto advance_all = [&](double horizon) {
        if (windowed)
            runner.forEach(R, [&](std::size_t i) {
                engines_[i]->advanceTo(horizon);
            });
        else
            for (auto &eng : engines_)
                eng->advanceTo(horizon);
    };

    std::uint64_t j = 0;
    while (next < trace_.size() || !retries.empty() ||
           next_tr < plan.size()) {
        // The next instant the router must act on: the next fault
        // transition always; trace arrivals and retries only while
        // someone can take them (during a total outage they queue
        // until a recovery transition).
        double t_next = inf;
        if (next_tr < plan.size())
            t_next = plan[next_tr].at;
        if (any_routable()) {
            if (next < trace_.size())
                t_next = std::min(t_next,
                                  trace_[next].arrivalSeconds);
            if (!retries.empty())
                t_next = std::min(
                    t_next, retries.front().timed.arrivalSeconds);
        }
        if (t_next == inf) {
            // The whole fleet is down with no recovery scripted:
            // every remaining request is lost.
            fleet.lostRequests += trace_.size() - next;
            next = trace_.size();
            fleet.lostRequests += retries.size();
            retries.clear();
            break;
        }
        // Windowed: jump to the first barrier B_j = j * d that can
        // act on t_next. Router-idle barriers neither read nor
        // change replica state, so skipping them dispatches the
        // identical event sequence (runUntil horizons compose). FP
        // rounding may land one barrier short; that barrier routes
        // nothing and the next one retries. Lockstep: the barrier
        // is t_next itself.
        double barrier;
        if (windowed) {
            if (t_next > 0.0)
                j = std::max(j, static_cast<std::uint64_t>(
                                    std::ceil(t_next / d)));
            barrier = static_cast<double>(j) * d;
        } else {
            barrier = t_next;
        }
        // Advance everyone to the barrier first, so the router reads
        // replica state (the load signal) at exactly that instant.
        advance_all(barrier);
        apply_transitions(barrier);
        refresh_loads();
        if (any_routable())
            route_due(barrier);
        ++fleet.windows;
        if (windowed)
            ++j;
    }

    // Every request is routed, so the remaining work is one
    // independent drain per replica. Then sweep stranded session
    // releases off unroutable replicas until quiescent (a successor
    // released during the drain may land on a halted replica and
    // need one more hop).
    for (;;) {
        advance_all(inf);
        ++fleet.windows;
        double at = 0.0;
        for (const auto &eng : engines_)
            at = std::max(at, eng->now());
        if (!sweep_strays(at))
            break;
        sort_retries();
        if (retries.empty())
            continue; // swept, but every stray exhausted its budget
        if (!any_routable()) {
            fleet.lostRequests += retries.size();
            retries.clear();
            break;
        }
        refresh_loads();
        route_due(std::max(at, retries.back().timed.arrivalSeconds));
    }

    // Retry histogram over the requests a fault ever displaced:
    // [k] = requests re-routed exactly k times (budget-capped); all
    // zeros when nothing was displaced.
    fleet.retryHistogram.assign(options_.retryBudget + 1, 0);
    for (const auto &kv : attempts)
        ++fleet.retryHistogram[std::min<unsigned>(
            kv.second, options_.retryBudget)];
}

EngineResult
FleetEngine::aggregateResults(std::vector<EngineResult> &results)
{
    EngineResult agg;

    // Time-weighted accumulators: (sum of value * replica seconds,
    // sum of seconds) pairs folded into the mean at the end. Latency
    // averages and p95s come from the pooled sample stores instead.
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
        agg.maxDecodeXpuWaitSeconds = std::max(
            agg.maxDecodeXpuWaitSeconds, r.maxDecodeXpuWaitSeconds);
        agg.maxTierInversionWaitSeconds =
            std::max(agg.maxTierInversionWaitSeconds,
                     r.maxTierInversionWaitSeconds);

        agg.requestLatencyRuns.absorb(std::move(r.requestLatencyRuns));
        agg.firstTokenRuns.absorb(std::move(r.firstTokenRuns));
        agg.tokenGapRuns.absorb(std::move(r.tokenGapRuns));

        batch_sum += r.avgEffectiveBatch * r.simulatedSeconds;
        mac_sum += r.macUtilization * r.simulatedSeconds;
        cap_sum += r.capacityUtilization * r.simulatedSeconds;
        sec_sum += r.simulatedSeconds;

        for (const auto &kv : r.firstTokenLatency)
            agg.firstTokenLatency[kv.first] = kv.second;
        for (const auto &kv : r.completionSeconds)
            agg.completionSeconds[kv.first] = kv.second;

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

} // namespace pimphony
