#include "system/engine.hh"

#include <algorithm>
#include <functional>
#include <list>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "sim/event_queue.hh"
#include "sim/pipeline.hh"
#include "sim/work_item.hh"
#include "system/prefill.hh"
#include "system/stage_device.hh"

namespace pimphony {

/** One in-flight decode cohort (micro-batch) of the event core. */
struct ServingEngine::EventCohort
{
    std::uint32_t id = 0;
    std::uint64_t cycle = 0;
    std::vector<Active> members;
};

/**
 * State of one prepared run, heap-held so the run survives between
 * advanceTo calls; the ev* member functions operate on it.
 */
struct ServingEngine::EventRun
{
    sim::EventQueue queue;
    std::unique_ptr<SchedPolicy> policy;
    std::unique_ptr<StageDeviceSet> stages;

    unsigned pp = 1;
    unsigned tp = 1;
    double spc = 0.0;
    bool chunked = false;

    ChannelAccum acc;
    double batchTime = 0.0;
    double capacityTime = 0.0;
    double lastAccount = 0.0;
    double endTime = 0.0;

    std::list<EventCohort> cohorts; // list keeps addresses stable
    std::deque<TimedRequest> arrived;
    std::vector<Active> readyPool; // admitted, waiting for a cohort
    std::vector<sim::WorkItem> cycleItems;
    std::vector<std::vector<sim::WorkItem>> seqScratch;
    std::uint64_t prefilling = 0; // admitted, chunks in flight

    /** Context + decode tokens of the prefilling requests (the
     *  queuedTokens share submitSequence holders hide). */
    double prefillingTokens = 0.0;

    /**
     * Requests whose prefill chunks are on the timelines, reachable
     * for evacuation (the submitSequence completion lambdas share
     * ownership). Erased as completions land.
     */
    std::vector<std::shared_ptr<Active>> prefillHolders;

    /**
     * Brown-out stretch applied to device charges at submission
     * (decode cycles, prefill chunks, the scalar prefill clock).
     * Exactly 1.0 is bit-transparent: multiplying a double by 1.0
     * is exact, so the fault-free engine is reproduced bit for bit.
     */
    double serviceRateScale = 1.0;

    /**
     * A killing evacuate() halted the engine: no admissions, no new
     * cohorts, stale prefill completions dropped. Cleared by
     * restoreService().
     */
    bool halted = false;

    /**
     * Evacuation generation. In-flight prefill completions capture
     * the epoch at submission and discard themselves when a killing
     * evacuate() has bumped it since — their request was already
     * rewound and failed over.
     */
    std::uint64_t epoch = 0;

    std::uint32_t nextCohortId = 0;
    std::uint64_t cycles = 0;
    bool capped = false;

    /** Scalar-prefill serialization clock (chargePrefill). */
    double prefillReady = 0.0;

    /** Not-yet-arrived requests, nondecreasing arrival order. */
    std::deque<TimedRequest> future;

    /** An arrival event is scheduled (at arrivalArmedAt). */
    bool arrivalArmed = false;
    double arrivalArmedAt = 0.0;

    /** Hoisted per-admission-scan tier in-flight flags. */
    std::set<unsigned> scanTiersInFlight;

    bool finalized = false;
};

ServingEngine::~ServingEngine() = default;

ServingEngine::ServingEngine(const ClusterConfig &cluster,
                             const LlmConfig &model,
                             std::vector<Request> requests,
                             const EngineOptions &options)
    : ServingEngine(cluster, model, immediateArrivals(requests), options)
{
}

ServingEngine::ServingEngine(const ClusterConfig &cluster,
                             const LlmConfig &model,
                             std::vector<TimedRequest> requests,
                             const EngineOptions &options)
    : cluster_(cluster), model_(model), options_(options)
{
    if (cluster_.plan.modules() != cluster_.nModules)
        fatal("parallel plan %s does not cover %u modules",
              cluster_.plan.toString().c_str(), cluster_.nModules);
    Bytes kv_capacity = cluster_.usableKvBytes(model_);
    if (kv_capacity == 0)
        fatal("model weights (%llu B) exceed system capacity",
              static_cast<unsigned long long>(model_.weightBytes()));
    allocator_ = makeAllocator(options_.allocator, kv_capacity,
                               model_.kvBytesPerToken(),
                               model_.contextWindow);
    prefixActive_ = options_.prefixCache.enabled;
    if (prefixActive_) {
        // The tree shares the allocator's chunks; only the paged
        // allocator has chunks to share.
        if (options_.allocator != AllocatorKind::LazyChunk)
            fatal("prefix caching requires the LazyChunk allocator");
        prefixCache_ = std::make_unique<PrefixCache>(
            static_cast<LazyChunkAllocator &>(*allocator_),
            options_.prefixCache);
    }
    module_ = std::make_unique<PimModuleModel>(cluster_.module);
    xpu_ = std::make_unique<XpuModel>(cluster_.xpu);
    sortByArrival(requests);
    result_.firstTokenLatency.reserve(requests.size());
    result_.completionSeconds.reserve(requests.size());
    pending_ = std::move(requests);

    // Request-class / tenant-budget activation. Both stay fully
    // inert — no extra bookkeeping on any path — when every request
    // carries the default class and no budgets are configured, so
    // the pre-tier engine is reproduced bit for bit.
    budgetsActive_ = !options_.tenantBudgets.empty();
    capacityTokens_ = static_cast<double>(allocator_->capacity()) /
                      static_cast<double>(model_.kvBytesPerToken());
    if (budgetsActive_) {
        double total_share = 0.0;
        for (const TenantBudget &b : options_.tenantBudgets) {
            TenantState &ts = tenants_[b.tenant];
            ts.budgetTokens = b.share * capacityTokens_;
            total_share += b.share;
        }
        if (total_share > 1.0 + 1e-9)
            warn("tenant budget shares sum to %.3f > 1; guarantees "
                 "cannot all hold under saturation",
                 total_share);
    }
    declareWorkload(pending_);
}

ServingEngine::TenantState &
ServingEngine::tenantState(unsigned tenant)
{
    return tenants_[tenant];
}

bool
ServingEngine::budgetAdmits(unsigned tenant, double need,
                            bool allow_borrow)
{
    TenantState &ts = tenantState(tenant);
    if (ts.reservedTokens + need <= ts.budgetTokens)
        return true; // within the guarantee
    if (allow_borrow)
        return true; // borrowing from idle headroom (work conserving)
    ++ts.deferrals;
    ++result_.budgetDeferrals;
    return false;
}

void
ServingEngine::tenantReserve(const Request &request, double charge_tokens)
{
    if (!tenantsActive_)
        return;
    double tokens = charge_tokens >= 0.0
                        ? charge_tokens
                        : static_cast<double>(request.contextTokens +
                                              request.decodeTokens);
    // Remember an overridden (fractionally shared) charge so the
    // release refunds exactly what was reserved, no matter how the
    // entry's refcount moves in between.
    if (prefixActive_ && charge_tokens >= 0.0)
        prefixTenantCharge_[request.id] = charge_tokens;
    TenantState &ts = tenantState(request.cls.tenant);
    ts.reservedTokens += tokens;
    ++ts.admitted;
    if (capacityTokens_ > 0.0)
        ts.peakShare = std::max(ts.peakShare,
                                ts.reservedTokens / capacityTokens_);
}

void
ServingEngine::tenantRelease(const Request &request)
{
    if (!tenantsActive_)
        return;
    double tokens = static_cast<double>(request.contextTokens +
                                        request.decodeTokens);
    if (prefixActive_) {
        auto it = prefixTenantCharge_.find(request.id);
        if (it != prefixTenantCharge_.end()) {
            tokens = it->second;
            prefixTenantCharge_.erase(it);
        }
    }
    TenantState &ts = tenantState(request.cls.tenant);
    ts.reservedTokens -= tokens;
    if (ts.reservedTokens < 0.0)
        ts.reservedTokens = 0.0;
}

void
ServingEngine::integrateTenantShares(double dt)
{
    if (!tenantsActive_ || dt <= 0.0 || capacityTokens_ <= 0.0)
        return;
    for (auto &kv : tenants_)
        kv.second.shareSeconds +=
            dt * kv.second.reservedTokens / capacityTokens_;
}

std::set<unsigned>
ServingEngine::entitledTenantsWaiting(
    const std::deque<TimedRequest> &queue, double now) const
{
    std::set<unsigned> out;
    if (!budgetsActive_)
        return out;
    for (const auto &timed : queue) {
        // Mostly arrival-sorted, but preempted requests requeue at
        // the back with their original (past) arrival — keep
        // scanning past future traffic rather than stopping at it.
        if (timed.arrivalSeconds > now)
            continue;
        const RequestClass &cls = timed.request.cls;
        if (out.count(cls.tenant))
            continue;
        auto it = tenants_.find(cls.tenant);
        if (it == tenants_.end())
            continue;
        double need = static_cast<double>(timed.request.contextTokens +
                                          timed.request.decodeTokens);
        if (it->second.reservedTokens + need <= it->second.budgetTokens)
            out.insert(cls.tenant);
    }
    return out;
}

bool
ServingEngine::entitledElsewhere(const std::set<unsigned> &entitled,
                                 unsigned tenant)
{
    for (unsigned u : entitled)
        if (u != tenant)
            return true;
    return false;
}

ServingEngine::PrefixProbe
ServingEngine::probePrefix(const Request &r) const
{
    // Retained session history first, then the declared workload
    // prefix. Read-only (no stats, no LRU touch), so the routing
    // probe never perturbs replica state.
    PrefixProbe p;
    if (options_.prefixCache.sessionReuse && r.session != kNoSession &&
        r.turn > 0) {
        std::uint64_t key = PrefixCache::sessionKey(r.session, r.turn - 1);
        p.probed = true;
        p.share = prefixCache_->peek(key);
        if (p.share > 0) {
            p.key = key;
            return p;
        }
    }
    if (r.prefixHash != 0 && r.prefixTokens > 0 &&
        r.prefixTokens <= r.contextTokens) {
        std::uint64_t key = PrefixCache::prefixKey(r.prefixHash);
        p.probed = true;
        p.share = prefixCache_->peek(key);
        if (p.share > 0)
            p.key = key;
        else
            p.missedPrefix = key;
    }
    return p;
}

ServingEngine::Admission
ServingEngine::tryAdmitOne(const TimedRequest &timed, bool allow_borrow)
{
    Admission out;
    const Request &front = timed.request;
    Tokens final_tokens = front.contextTokens + front.decodeTokens;
    Bytes need = model_.kvBytesPerToken() * final_tokens;
    if (need > allocator_->capacity() ||
        final_tokens > model_.contextWindow) {
        // Can never be served on this configuration.
        ++result_.rejectedRequests;
        out.outcome = AdmitOutcome::Rejected;
        return out;
    }
    // Prefix probe: the best reusable tree entry. A declared prefix
    // nobody has cached yet makes this request its publisher: it
    // prefills cold, but its prefix chunks go into the tree for
    // everyone behind it. The hit is pinned immediately (consumer
    // reference) so the eviction pass below can never take the entry
    // this admission is counting on; every blocked exit hands the
    // reference back.
    std::uint64_t key = 0;
    std::uint64_t publish_key = 0;
    bool probed = false;
    Tokens custody = 0;
    if (prefixActive_) {
        PrefixProbe probe = probePrefix(front);
        probed = probe.probed;
        key = probe.key;
        if (probe.missedPrefix != 0 &&
            !prefixCache_->knows(probe.missedPrefix))
            publish_key = probe.missedPrefix;
        if (key != 0) {
            Tokens s =
                prefixCache_->acquire(key, now(), front.cls.tier);
            custody = std::min<Tokens>(s, front.contextTokens);
            if (custody == 0)
                key = 0; // entry vanished since the peek: go cold
        }
    }
    Tokens cached = custody;
    // Tenant budget: within the guarantee always admissible (memory
    // permitting); beyond it only while borrowing is allowed. A warm
    // hit charges its unique tokens in full but the shared prefix
    // only at 1 / consumers — the chunks serve all of them at once,
    // this admission's reference is already counted, and structural
    // refs (publisher hold, session-chained children) never dilute
    // the charge. The PR 5 work-conserving guarantee holds because
    // checks and reservations use the same reduced charge.
    double charge_tokens = static_cast<double>(final_tokens);
    if (cached > 0)
        charge_tokens =
            static_cast<double>(final_tokens - cached) +
            static_cast<double>(cached) /
                static_cast<double>(prefixCache_->consumersOf(key));
    if (budgetsActive_ &&
        !budgetAdmits(front.cls.tenant, charge_tokens, allow_borrow)) {
        if (key != 0)
            prefixCache_->releaseConsumer(key);
        out.outcome = AdmitOutcome::BudgetBlocked;
        return out;
    }
    // Headroom: only admit when the full decode trajectory fits
    // next to the current reservations (avoids preemption storms).
    // Warm admissions need headroom only for their unique share;
    // under pressure the cache sheds idle entries first — never the
    // pinned one, which is reference-held.
    Bytes need_unique = model_.kvBytesPerToken() * (final_tokens - cached);
    if (allocator_->reservedBytes() + need_unique >
        allocator_->capacity()) {
        if (!prefixActive_ || !prefixCache_->evictFor(need_unique)) {
            if (key != 0)
                prefixCache_->releaseConsumer(key);
            return out; // Blocked
        }
    }
    // Commit: count the hit or miss, seed the tree as the prefix's
    // publisher if nobody cached it yet, then reserve the unique
    // share.
    bool publisher = false;
    if (key != 0)
        prefixCache_->noteHit();
    else if (probed)
        prefixCache_->noteMiss();
    if (publish_key != 0 &&
        prefixCache_->publish(publish_key, 0, 0, front.prefixTokens,
                              front.prefixTokens, now(),
                              front.cls.tier, /*hold=*/true,
                              /*ready=*/false)) {
        publisher = true;
        key = publish_key;
        custody = front.prefixTokens;
    }
    if (!allocator_->tryAdmit(front.id,
                              front.contextTokens - custody)) {
        if (key != 0) {
            if (publisher)
                prefixCache_->release(key);
            else
                prefixCache_->releaseConsumer(key);
        }
        return out; // Blocked
    }
    // Scalar prefill is a serialized time charge, not chunk items:
    // the prefix KV is modelled present once the charge is taken, so
    // the entry opens at admission. The chunked path opens it from
    // the prefill-completion callback instead.
    if (publisher && options_.prefillChunkTokens == 0)
        prefixCache_->markReady(key, now());
    tenantReserve(front, cached > 0 ? charge_tokens : -1.0);
    // Reused tokens are counted whether or not prefill time is
    // charged, so sweeps with charging off still report the hit's
    // substance (savedPrefillSeconds stays zero there: no time
    // charge means nothing to save).
    Tokens warm = publisher ? 0 : custody;
    result_.prefixCachedTokens += warm;
    if (options_.chargePrefill || options_.prefillChunkTokens > 0) {
        double cold = prefillSeconds(model_, front.contextTokens,
                                     cluster_.xpu,
                                     cluster_.prefillEngines());
        out.prefillSeconds =
            warm > 0 ? prefillSecondsFrom(model_, warm,
                                          front.contextTokens,
                                          cluster_.xpu,
                                          cluster_.prefillEngines())
                     : cold;
        result_.savedPrefillSeconds += cold - out.prefillSeconds;
        result_.prefillSeconds += out.prefillSeconds;
    }
    if (prefixActive_)
        prefixSampleOccupancy();
    // The prefix fields stay zero when caching is off.
    out.outcome = AdmitOutcome::Admitted;
    out.active = Active{front, 0, timed.arrivalSeconds, -1.0,
                        custody, warm, key, publisher};
    return out;
}

Tokens
ServingEngine::prefixWarmTokens(const Request &r) const
{
    // Routing probe: how many of this request's context tokens this
    // replica's tree could serve right now.
    if (!prefixActive_)
        return 0;
    return std::min<Tokens>(probePrefix(r).share, r.contextTokens);
}

void
ServingEngine::releaseCacheRef(const Active &a)
{
    if (!prefixActive_ || a.cacheKey == 0)
        return;
    if (a.cachePublisher)
        prefixCache_->release(a.cacheKey);
    else
        prefixCache_->releaseConsumer(a.cacheKey);
}

void
ServingEngine::prefixSampleOccupancy()
{
    // Shared (tree custody) vs unique (per-request) split of the
    // allocator's reservation — allocated == shared + unique holds
    // structurally because the tree reserves its chunks through the
    // same allocator.
    Bytes shared = prefixCache_->heldBytes();
    Bytes unique = allocator_->reservedBytes() - shared;
    prefixSharedPeak_ = std::max(prefixSharedPeak_, shared);
    prefixUniquePeak_ = std::max(prefixUniquePeak_, unique);
}

bool
ServingEngine::advanceMember(Active &a, double completion_clock,
                             std::deque<TimedRequest> &requeue)
{
    // The allocator holds this request's KV minus whatever the prefix
    // cache holds on its behalf (cachedTokens == 0 when caching is
    // off, making the subtraction a no-op).
    Tokens total = a.request.contextTokens + a.generated + 1;
    if (!allocator_->grow(a.request.id, total - a.cachedTokens)) {
        // Out of memory: preempt (vLLM-style recompute); the
        // request re-queues with its original arrival time.
        allocator_->release(a.request.id);
        tenantRelease(a.request);
        releaseCacheRef(a);
        ++result_.preemptions;
        result_.recomputedTokens += a.generated;
        requeue.push_back({a.request, a.arrival});
        return false;
    }
    ++a.generated;
    ++result_.generatedTokens;
    if (a.generated == 1) {
        double ttft = completion_clock - a.arrival;
        // First admission wins: a preempted-and-recomputed request
        // keeps the TTFT of its first emitted token.
        if (result_.firstTokenLatency.emplace(a.request.id, ttft).second) {
            result_.firstTokenRuns.add(ttft);
            if (classesActive_)
                tiers_[a.request.cls.tier].ttfts.add(ttft);
        }
    } else if (a.lastTokenAt >= 0.0) {
        double gap = completion_clock - a.lastTokenAt;
        result_.tokenGapRuns.add(gap);
        if (gapWindow_)
            gapWindow_->add(gap);
        if (classesActive_) {
            TierState &ts = tiers_[a.request.cls.tier];
            ts.gaps.add(gap);
            if (ts.window)
                ts.window->add(gap);
        }
    }
    a.lastTokenAt = completion_clock;
    if (a.generated >= a.request.decodeTokens) {
        if (prefixActive_ && options_.prefixCache.sessionReuse &&
            a.request.session != kNoSession && sessions_ &&
            sessions_->count(a.request.id)) {
            // A declared successor exists: hand the full KV (context
            // plus everything generated) to the tree under this
            // turn's session key so turn k+1 prefills only its delta.
            // The consumer chunks are released and the cache
            // re-admits the same count — net-zero occupancy — and a
            // warm turn chains onto its own parent entry.
            Tokens total_kv = a.request.contextTokens + a.generated;
            Tokens own = total_kv - a.cachedTokens;
            Tokens parent_share =
                a.cacheKey != 0
                    ? std::min<Tokens>(prefixCache_->peek(a.cacheKey),
                                       total_kv)
                    : 0;
            allocator_->release(a.request.id);
            prefixCache_->publish(
                PrefixCache::sessionKey(a.request.session,
                                        a.request.turn),
                a.cacheKey, parent_share, total_kv, own,
                completion_clock, a.request.cls.tier, /*hold=*/false,
                /*ready=*/true);
        } else {
            allocator_->release(a.request.id);
        }
        releaseCacheRef(a);
        tenantRelease(a.request);
        ++result_.completedRequests;
        if (classesActive_)
            ++tiers_[a.request.cls.tier].completed;
        result_.requestLatencyRuns.add(completion_clock - a.arrival);
        // At most one completion per request per engine: what lets
        // releaseNextTurn() leave the session book unedited.
        auto done = result_.completionSeconds.emplace(a.request.id,
                                                      completion_clock);
        if (!done.second)
            panic("request %u completed twice", a.request.id);
        if (sessions_)
            releaseNextTurn(a.request.id, completion_clock);
        return false;
    }
    return true;
}

ServingEngine::CyclePlan
ServingEngine::planCohortCycle(const Active *begin, const Active *end)
{
    const unsigned tp = cluster_.plan.tp;
    const unsigned pp = cluster_.plan.pp;
    const std::uint32_t batch =
        static_cast<std::uint32_t>(end - begin);
    const unsigned kvh = model_.kvHeads();
    const unsigned jobs_per_req = std::max(1u, ceilDiv(kvh, tp));
    // When the TP group outnumbers the KV heads, the modules sharing
    // a head split its token range (sequence parallelism); the extra
    // partial reduction folds into the EPU path.
    const unsigned seq_split = tp > kvh ? tp / kvh : 1;

    std::vector<AttentionJob> &jobs = jobsScratch_;
    jobs.clear();
    jobs.reserve(batch * jobs_per_req);
    for (const Active *it = begin; it != end; ++it) {
        const Active &a = *it;
        Tokens t = a.request.contextTokens + a.generated;
        Tokens t_mod = seq_split > 1 ? ceilDiv<Tokens>(t, seq_split) : t;
        for (unsigned h = 0; h < jobs_per_req; ++h)
            jobs.push_back({a.request.id, h, t_mod});
    }

    PhaseResult att = module_->attentionLayer(jobs, model_);
    double fc_sec;
    PhaseResult fc;
    if (cluster_.kind == SystemKind::PimOnly) {
        fc = module_->fcLayer(batch, model_, tp);
        fc_sec = fc.seconds;
    } else {
        double layer_params = static_cast<double>(model_.paramCount()) /
                              model_.nLayers;
        double flops = 2.0 * layer_params / tp *
                       static_cast<double>(batch);
        Bytes w = static_cast<Bytes>(
            static_cast<double>(model_.weightBytes()) /
            model_.nLayers / tp);
        fc_sec = xpu_->gemmSeconds(flops, w, batch);
        // Simple NPU energy: 0.4 pJ/FLOP.
        fc.energy.elseE = flops * 0.4;
    }

    double sync = 2.0 * allReduceSeconds(
        static_cast<Bytes>(batch) * model_.dModel * 2, tp,
        cluster_.linkBandwidth, cluster_.linkAlpha);

    double layer_sec = cluster_.kind == SystemKind::PimOnly
        ? att.seconds + fc_sec + sync
        : std::max(att.seconds, fc_sec) + sync;

    CyclePlan plan;
    plan.layerSeconds = layer_sec;
    plan.fcLayerSeconds =
        cluster_.kind == SystemKind::XpuPim ? fc_sec : 0.0;

    // Per full cycle the cohort crosses all pp stages.
    double layers_total = stageLayersTotal(model_.nLayers, pp);
    plan.layersTotal = layers_total;
    plan.attSeconds = att.seconds * layers_total;
    plan.fcSeconds = fc_sec * layers_total;
    plan.busyChannelCycles =
        (att.busyChannelCycles + fc.busyChannelCycles) * layers_total *
        tp;
    plan.attEnergy = att.energy.scaled(layers_total * tp);
    plan.fcEnergy = fc.energy.scaled(layers_total * tp);
    return plan;
}

void
ServingEngine::accountCycle(const CyclePlan &plan, double span_cycles,
                            ChannelAccum &acc)
{
    acc.busyCycles += plan.busyChannelCycles;
    acc.spanCycles += span_cycles;

    double spc = cluster_.module.timing.secondsPerCycle();
    double busy_span_cycles =
        (plan.attSeconds + (cluster_.kind == SystemKind::PimOnly
                                ? plan.fcSeconds
                                : 0.0)) /
        spc * cluster_.module.nChannels * cluster_.plan.tp;
    double idle = span_cycles - busy_span_cycles;
    EnergyBreakdown att_energy = plan.attEnergy;
    EnergyBreakdown fc_energy = plan.fcEnergy;
    if (idle > 0) {
        // Attribute idle background proportionally to phase time.
        double tot = plan.attSeconds + plan.fcSeconds;
        double att_share = tot > 0 ? plan.attSeconds / tot : 1.0;
        EnergyBreakdown bg = backgroundEnergy(
            static_cast<Cycle>(idle), 1, EnergyParams{});
        att_energy += bg.scaled(att_share);
        fc_energy += bg.scaled(1.0 - att_share);
    }

    result_.attentionSeconds += plan.attSeconds;
    result_.fcSeconds += plan.fcSeconds;
    result_.attentionEnergy += att_energy;
    result_.fcEnergy += fc_energy;
}

EngineResult
ServingEngine::run()
{
    prepare();
    ev_->queue.runAll();
    return finalize();
}

void
ServingEngine::evAccountTo(double t)
{
    EventRun &ev = *ev_;
    if (t <= ev.lastAccount)
        return;
    double dt = t - ev.lastAccount;
    // Effective batch counts decoding requests only; pooled requests
    // hold memory but are not batched on any device.
    ev.batchTime += dt * static_cast<double>(evInFlightCount());
    ev.capacityTime += dt * allocator_->capacityUtilization();
    integrateTenantShares(dt);
    ev.lastAccount = t;
    ev.endTime = std::max(ev.endTime, t);
}

std::size_t
ServingEngine::evInFlightCount() const
{
    std::size_t n = 0;
    for (const auto &c : ev_->cohorts)
        n += c.members.size();
    return n;
}

void
ServingEngine::evTakeFairShare(std::vector<Active> &members)
{
    // Tier-segregated refills: order the pool by tier (stable, so
    // survivors keep precedence inside a tier) and the take forms
    // the most tier-pure cohort the pool allows — higher tiers
    // decode in cohorts the tier-aware arbiters can favor.
    EventRun &ev = *ev_;
    if (classesActive_)
        std::stable_sort(ev.readyPool.begin(), ev.readyPool.end(),
                         [](const Active &a, const Active &b) {
                             return a.request.cls.tier <
                                    b.request.cls.tier;
                         });
    std::size_t total = evInFlightCount() + ev.readyPool.size();
    std::size_t take = std::min<std::size_t>(
        std::max<std::size_t>(1, ceilDiv<std::size_t>(total, ev.pp)),
        ev.readyPool.size());
    auto end = ev.readyPool.begin() + static_cast<std::ptrdiff_t>(take);
    members.assign(std::make_move_iterator(ev.readyPool.begin()),
                   std::make_move_iterator(end));
    ev.readyPool.erase(ev.readyPool.begin(), end);
}

void
ServingEngine::evRefreshTiersInFlight()
{
    ev_->scanTiersInFlight.clear();
    for (const auto &c : ev_->cohorts)
        for (const auto &m : c.members)
            ev_->scanTiersInFlight.insert(m.request.cls.tier);
}

bool
ServingEngine::evClassGateDefers(const RequestClass &cls)
{
    // A prefill of tier T defers while any tier T' <= T (equal or
    // higher priority) exceeds its own target on its own window, so
    // admitting lower-priority work can never break a higher tier's
    // SLO, while a high-priority prefill is not held hostage by a
    // struggling lower tier. A tier's gate may only bind while its
    // own gaps can still be produced (decode in flight), or a stale
    // window would deadlock that tier's admissions.
    EventRun &ev = *ev_;
    // No per-tier windows (a single-class workload, or a policy that
    // ignores the gap signal): the gate reads the one global window,
    // the nearest-rank p95 of the most recent decode gaps (absent,
    // hence empty, unless the policy steers on it).
    if (!ev.policy->needsGapSignal() || tiers_.empty())
        return !ev.policy->admitPrefill(
            gapWindow_ ? gapWindow_->value() : 0.0,
            gapWindow_ ? gapWindow_->size() : 0, evInFlightCount() > 0);
    for (auto &kv : tiers_) {
        if (kv.first > cls.tier)
            break; // ascending map: only tiers <= T guard T
        const TierState &ts = kv.second;
        if (!ts.window)
            continue;
        if (!ev.policy->admitPrefillAt(
                ts.window->value(), ts.window->size(),
                ev.scanTiersInFlight.count(kv.first) > 0, ts.target))
            return true;
    }
    return false;
}

void
ServingEngine::evStartPrefill(Active a, double now)
{
    // Chunked prefill: the admitted request enters a Prefilling
    // state (memory held, not decoding) while its chunks traverse
    // the per-stage xPU timelines; it joins the decode ready pool at
    // the last chunk's last-stage completion. Per-chunk seconds
    // apportion the scalar charge tryAdmitOne already accounted, so
    // chunked and scalar prefill cost the same total device time.
    EventRun &ev = *ev_;
    // A warm prefix skips its cached share: the chunk plan covers
    // only [warmTokens, context), apportioning the reduced scalar
    // charge. warmTokens == 0 takes the cold plan bit for bit.
    auto chunk_secs =
        (prefixActive_ && a.warmTokens > 0)
            ? prefillChunkSecondsFrom(model_, a.warmTokens,
                                      a.request.contextTokens,
                                      options_.prefillChunkTokens,
                                      cluster_.xpu,
                                      cluster_.prefillEngines())
            : prefillChunkSeconds(model_, a.request.contextTokens,
                                  options_.prefillChunkTokens,
                                  cluster_.xpu,
                                  cluster_.prefillEngines());
    if (chunk_secs.empty()) {
        // Fully cached context: nothing left to prefill. A publisher
        // with an empty plan (zero-context request) opens its entry
        // immediately.
        if (prefixActive_ && a.cachePublisher && a.cacheKey != 0)
            prefixCache_->markReady(a.cacheKey, now);
        ev.readyPool.push_back(std::move(a));
        return;
    }
    // prefillSeconds() spreads the work over prefillEngines();
    // a stage owns tp of them for stageLayers/nLayers of the
    // model, so scale per-stage occupancy to keep each request's
    // per-stage total at scalar * engines / (tp * pp-equivalent).
    double engine_scale =
        static_cast<double>(cluster_.prefillEngines()) / ev.tp;
    double layers_total = stageLayersTotal(model_.nLayers, ev.pp);
    ev.seqScratch.resize(chunk_secs.size());
    for (std::size_t k = 0; k < chunk_secs.size(); ++k) {
        std::vector<sim::WorkItem> &row = ev.seqScratch[k];
        row.assign(ev.pp, sim::WorkItem{});
        for (unsigned s = 0; s < ev.pp; ++s) {
            row[s].kind = sim::WorkItem::Kind::PrefillChunk;
            row[s].request = a.request.id;
            row[s].chunk = static_cast<std::uint32_t>(k);
            row[s].tier = a.request.cls.tier;
            row[s].seconds = chunk_secs[k] * engine_scale *
                             stageLayers(model_.nLayers, ev.pp, s) /
                             layers_total * ev.serviceRateScale;
        }
    }
    ++ev.prefilling;
    double holder_tokens = static_cast<double>(
        a.request.contextTokens + a.request.decodeTokens);
    ev.prefillingTokens += holder_tokens;
    auto holder = std::make_shared<Active>(std::move(a));
    ev.prefillHolders.push_back(holder);
    std::uint64_t epoch = ev.epoch;
    ev.stages->pipeline().submitSequence(
        ev.queue, ev.seqScratch, now,
        [this, holder, holder_tokens, epoch](double t) {
            EventRun &run = *ev_;
            if (epoch != run.epoch)
                return; // evacuated mid-prefill; already failed over
            run.prefillHolders.erase(
                std::find(run.prefillHolders.begin(),
                          run.prefillHolders.end(), holder));
            --run.prefilling;
            run.prefillingTokens -= holder_tokens;
            evAccountTo(t);
            // Publisher's prefix KV is now materialized: open the
            // tree entry for the requests queued behind it.
            if (prefixActive_ && holder->cachePublisher &&
                holder->cacheKey != 0)
                prefixCache_->markReady(holder->cacheKey, t);
            run.readyPool.push_back(std::move(*holder));
            evFormNewCohorts(t);
        });
}

void
ServingEngine::evAdmitArrivals(double now)
{
    // The one admission path: a scan of the arrived queue under the
    // per-request rules of tryAdmitOne. Admitted requests reach the
    // ready pool once decode-ready (immediately, or after prefill
    // chunks). A gate-deferred prefill or a budget-blocked tenant is
    // skipped, so a gated tier or an over-budget tenant cannot
    // head-of-line block the other classes; FIFO order is kept
    // inside each (class, tenant) population. A memory block halts
    // the scan (only releases clear it). With no classes and no
    // budgets nothing is skipped: a deferred prefill blocks the FIFO
    // queue until the SLO signal recovers, re-checked at every cycle
    // completion.
    EventRun &ev = *ev_;
    if (ev.halted)
        return; // crashed replica: admissions wait for the sweep
    if (classesActive_ && ev.policy->needsGapSignal())
        evRefreshTiersInFlight();
    const bool fifo = !classesActive_ && !budgetsActive_;
    std::set<unsigned> entitled = entitledTenantsWaiting(ev.arrived, now);
    bool gate_deferred = false;
    for (std::size_t i = 0; i < ev.arrived.size();) {
        const TimedRequest &timed = ev.arrived[i];
        if (ev.chunked && timed.request.contextTokens > 0 &&
            evClassGateDefers(timed.request.cls)) {
            // At most one deferral per admission check.
            if (!gate_deferred) {
                ++result_.sloDeferrals;
                gate_deferred = true;
            }
            if (fifo)
                break; // nothing may pass it in a FIFO queue
            ++i;
            continue;
        }
        bool allow_borrow =
            !budgetsActive_ ||
            !entitledElsewhere(entitled, timed.request.cls.tenant);
        Admission adm = tryAdmitOne(timed, allow_borrow);
        if (adm.outcome == AdmitOutcome::Blocked)
            break;
        if (adm.outcome == AdmitOutcome::BudgetBlocked) {
            ++i;
            continue;
        }
        ev.arrived.erase(ev.arrived.begin() +
                         static_cast<std::ptrdiff_t>(i));
        if (adm.outcome != AdmitOutcome::Admitted)
            continue; // Rejected: already counted
        if (ev.chunked) {
            evStartPrefill(std::move(adm.active), now);
        } else {
            ev.prefillReady = std::max(ev.prefillReady, now) +
                              adm.prefillSeconds * ev.serviceRateScale;
            ev.readyPool.push_back(std::move(adm.active));
        }
    }
}

void
ServingEngine::evStartCycle(EventCohort &c, double ready)
{
    EventRun &ev = *ev_;
    CyclePlan plan = planCohortCycle(
        c.members.data(), c.members.data() + c.members.size());
    // Brown-out: stretch the cycle's device time (and its channel
    // span, so MAC utilization sees the slowdown) without changing
    // the intrinsic work. scale == 1.0 multiplies exactly.
    double layer_sec = plan.layerSeconds * ev.serviceRateScale;
    double fc_layer_sec = plan.fcLayerSeconds * ev.serviceRateScale;
    double span_cycles = layer_sec * plan.layersTotal / ev.spc *
                         cluster_.module.nChannels * ev.tp;
    accountCycle(plan, span_cycles, ev.acc);

    // A cohort's decode items carry the best (lowest) tier of
    // its members, so a mixed cohort is arbitrated at the
    // priority of its most latency-sensitive member.
    std::uint32_t cohort_tier = 0;
    if (classesActive_ && !c.members.empty()) {
        cohort_tier = c.members.front().request.cls.tier;
        for (const Active &m : c.members)
            cohort_tier = std::min(cohort_tier, m.request.cls.tier);
    }

    ev.cycleItems.assign(ev.pp, sim::WorkItem{});
    for (unsigned s = 0; s < ev.pp; ++s) {
        unsigned layers = stageLayers(model_.nLayers, ev.pp, s);
        ev.cycleItems[s].cohort = c.id;
        ev.cycleItems[s].cycle = c.cycle;
        ev.cycleItems[s].tier = cohort_tier;
        ev.cycleItems[s].seconds = layer_sec * layers;
        ev.cycleItems[s].fcSeconds = fc_layer_sec * layers;
    }
    ++c.cycle;
    EventCohort *cohort = &c;
    ev.stages->pipeline().submitChain(
        ev.queue, ev.cycleItems, ready, [this, cohort](double t) {
            evOnCycleComplete(*cohort, t);
        });
}

void
ServingEngine::evOnCycleComplete(EventCohort &c, double t)
{
    EventRun &ev = *ev_;
    evAccountTo(t);

    // Advance every cohort member by one token, compacting the
    // survivors in place (order preserved, no allocation).
    std::size_t keep = 0;
    for (std::size_t i = 0; i < c.members.size(); ++i) {
        if (advanceMember(c.members[i], t, ev.arrived)) {
            if (keep != i)
                c.members[keep] = std::move(c.members[i]);
            ++keep;
        }
    }
    c.members.resize(keep);

    ++ev.cycles;
    if (ev.cycles >= options_.maxSteps)
        ev.capped = true;

    // Continuous batching with balanced cohorts: survivors and
    // admissible pending requests meet in the ready pool
    // (survivors first, so mid-decode requests keep priority),
    // and the cohort refills up to a fair share of the decoding
    // requests (ceil(total / pp)). The cap keeps cohorts balanced
    // while leaving the other cohorts' in-flight cycles untouched.
    if (!ev.capped) {
        evAdmitArrivals(t);
        ev.readyPool.insert(ev.readyPool.begin(),
                            std::make_move_iterator(c.members.begin()),
                            std::make_move_iterator(c.members.end()));
        c.members.clear();
        evTakeFairShare(c.members);
    }
    if (!c.members.empty() && !ev.capped) {
        evStartCycle(c, std::max(t, ev.prefillReady));
    } else {
        EventCohort *self = &c;
        ev.cohorts.remove_if(
            [self](const EventCohort &x) { return &x == self; });
    }
    evFormNewCohorts(t);
}

void
ServingEngine::evFormNewCohorts(double t)
{
    EventRun &ev = *ev_;
    for (;;) {
        if (ev.capped || ev.halted)
            return;
        if (ev.cohorts.size() >= ev.pp)
            return; // pipeline slots full; rebalance at cycle ends
        evAdmitArrivals(t);
        if (ev.readyPool.empty()) {
            // Deadlock guard: nothing in flight (decoding or
            // prefilling), nothing admissible, and no event can
            // change that -> the front request can never be
            // served; reject it.
            if (ev.cohorts.empty() && ev.prefilling == 0 &&
                ev.queue.empty() && !ev.arrived.empty()) {
                ++result_.rejectedRequests;
                ev.arrived.pop_front();
                continue;
            }
            return;
        }
        ev.cohorts.push_back(EventCohort{ev.nextCohortId++, 0, {}});
        evTakeFairShare(ev.cohorts.back().members);
        evStartCycle(ev.cohorts.back(), std::max(t, ev.prefillReady));
    }
}

void
ServingEngine::evOnArrival(double t)
{
    EventRun &ev = *ev_;
    ev.arrivalArmed = false;
    evAccountTo(t);
    while (!ev.future.empty() && ev.future.front().arrivalSeconds <= t) {
        ev.arrived.push_back(ev.future.front());
        ev.future.pop_front();
    }
    evArmArrivalEvent();
    evFormNewCohorts(t);
}

void
ServingEngine::evArmArrivalEvent()
{
    // Only the head arrival is scheduled — each arrival event chains
    // the next one, so the event heap stays O(1) in the trace
    // length. injectArrivals re-arms when it delivers an arrival
    // earlier than the armed one.
    EventRun &ev = *ev_;
    if (ev.future.empty())
        return;
    double at = ev.future.front().arrivalSeconds;
    if (ev.arrivalArmed && ev.arrivalArmedAt <= at)
        return;
    ev.queue.schedule(at, [this](double t) { evOnArrival(t); });
    ev.arrivalArmed = true;
    ev.arrivalArmedAt = at;
}

void
ServingEngine::prepare()
{
    if (ev_)
        fatal("ServingEngine::prepare() called twice");
    ev_ = std::make_unique<EventRun>();
    EventRun &ev = *ev_;
    ev.pp = cluster_.plan.pp;
    ev.tp = cluster_.plan.tp;
    ev.spc = cluster_.module.timing.secondsPerCycle();
    ev.chunked = options_.prefillChunkTokens > 0;

    // Co-scheduling policy: arbitration of the xPU timelines (FIFO
    // policies keep the plain reservation arithmetic) plus the
    // SLO admission gate consulted by evAdmitArrivals.
    ev.policy = makeSchedPolicy(options_.sched);
    // Policies steering on the gap signal read a streaming windowed
    // p95 (fed by advanceMember) instead of copying and sorting the
    // window every decode cycle. With request classes attached the
    // gate is per tier: each tier gets its own window, judged
    // against its own target (advanceMember routes gaps by tier).
    if (ev.policy->needsGapSignal() && options_.sched.sloWindow > 0) {
        if (classesActive_) {
            for (auto &kv : tiers_)
                kv.second.window = std::make_unique<WindowedQuantile>(
                    options_.sched.sloWindow, 95.0);
        } else {
            gapWindow_ = std::make_unique<WindowedQuantile>(
                options_.sched.sloWindow, 95.0);
        }
    }
    // Every stage carries an xPU timeline: in XpuPim mode it serves
    // decode FC shares and prefill chunks; in PimOnly mode only the
    // prefill chunks (the PNM compute engines) land there.
    ev.stages = std::make_unique<StageDeviceSet>(
        ev.pp, *module_, xpu_.get(),
        ev.policy->reordersXpu() ? ev.policy.get() : nullptr);
    ev.readyPool.reserve(pending_.size());

    // Constructor-supplied requests take the mid-run intake path:
    // time-zero requests are available immediately, later ones
    // become arrival events.
    injectArrivals(pending_);
    pending_ = {};
}

void
ServingEngine::advanceTo(double horizon)
{
    if (!ev_)
        fatal("ServingEngine::advanceTo() before prepare()");
    ev_->queue.runUntil(horizon);
}

bool
ServingEngine::drained() const
{
    return !ev_ || ev_->queue.empty();
}

double
ServingEngine::nextEventTime() const
{
    return drained() ? std::numeric_limits<double>::infinity()
                     : ev_->queue.nextTime();
}

template <typename ForEach>
void
ServingEngine::declareRequests(ForEach for_each)
{
    // The one class/tenant activation scan: flip the class/tenant
    // machinery on and fix per-tier SLO targets before prepare()
    // allocates the per-tier windows. Per-tier request counts stay
    // zero — registerInjected counts what this engine actually
    // receives.
    for_each([this](const Request &r) {
        if (!r.cls.isDefault())
            classesActive_ = true;
        if (r.cls.tenant != 0)
            tenantsActive_ = true;
    });
    tenantsActive_ = tenantsActive_ || budgetsActive_;
    if (classesActive_) {
        for_each([this](const Request &r) {
            TierState &ts = tiers_[r.cls.tier];
            // First explicit per-class target wins; tiers without
            // one are judged against the policy-wide default.
            if (ts.target == 0.0 && r.cls.gapSloSeconds > 0.0)
                ts.target = r.cls.gapSloSeconds;
        });
        for (auto &kv : tiers_)
            if (kv.second.target == 0.0)
                kv.second.target = options_.sched.sloTargetGapSeconds;
    }
    if (tenantsActive_)
        for_each([this](const Request &r) {
            (void)tenantState(r.cls.tenant);
        });
}

void
ServingEngine::declareWorkload(const std::vector<TimedRequest> &trace)
{
    if (ev_)
        fatal("ServingEngine::declareWorkload() after prepare()");
    requireSortedByArrival(trace, "ServingEngine::declareWorkload");
    declareRequests([&trace](auto &&visit) {
        for (const TimedRequest &timed : trace)
            visit(timed.request);
    });
}

void
ServingEngine::declareSessionTurns(const SessionBook &sessions)
{
    declareSessionTurns(std::make_shared<const SessionBook>(sessions));
}

void
ServingEngine::declareSessionTurns(
    std::shared_ptr<const SessionBook> sessions)
{
    if (ev_)
        fatal("ServingEngine::declareSessionTurns() after prepare()");
    if (!sessions)
        fatal("ServingEngine::declareSessionTurns(): null session book");
    for (const auto &kv : *sessions)
        if (!(kv.second.thinkSeconds >= 0.0)) // NaN too
            fatal("session think times must be nonnegative");
    // Successor turns join the class/tenant declaration exactly as a
    // declared open-loop trace would. Only the first-target-wins rule
    // depends on order, so only an active class scan walks the book
    // in ascending key order, independent of its bucket layout.
    std::vector<const SessionBook::value_type *> ordered;
    declareRequests([&](auto &&visit) {
        if (!classesActive_) {
            for (const auto &kv : *sessions)
                visit(kv.second.request);
            return;
        }
        if (ordered.empty()) {
            for (const auto &kv : *sessions)
                ordered.push_back(&kv);
            std::sort(ordered.begin(), ordered.end(),
                      [](auto *a, auto *b) { return a->first < b->first; });
        }
        for (const auto *kv : ordered)
            visit(kv->second.request);
    });
    sessions_ = mergeSessionBooks(std::move(sessions_), std::move(sessions));
}

void
ServingEngine::releaseNextTurn(RequestId completed, double now)
{
    auto it = sessions_->find(completed);
    if (it == sessions_->end())
        return;
    const SessionTurn *turn = &it->second;
    double at = now + turn->thinkSeconds;
    registerInjected({turn->request, at});
    // The release gets its own event rather than joining the
    // pending-arrival chain: a release often lands earlier than the
    // armed head arrival, and re-arming would leave a stale no-op
    // event behind whose count depends on how much of the trace the
    // caller has delivered — breaking the bare-vs-windowed simEvents
    // parity the fleet contract asserts. One event per release keeps
    // both runs identical. The release time is at or after the
    // current event time, so the conservative-ordering contract
    // holds by construction — including inside a fleet window, where
    // the successor lands on the replica that completed its
    // predecessor (natural session stickiness) without crossing the
    // window barrier protocol. The event fires at exactly @c at and
    // captures only a pointer into the book (which outlives the
    // run), so the callback fits SimFn's inline buffer.
    ev_->queue.schedule(at, [this, turn](double t) {
        EventRun &run = *ev_;
        evAccountTo(t);
        run.arrived.push_back({turn->request, t});
        evFormNewCohorts(t);
    });
}

void
ServingEngine::registerInjected(const TimedRequest &timed)
{
    // The per-request share of declareWorkload's bookkeeping: count
    // the request into its tier and touch its tenant. Inert on the
    // default-class, no-budget path.
    const RequestClass &cls = timed.request.cls;
    if (classesActive_) {
        TierState &ts = tiers_[cls.tier];
        ++ts.requests;
        if (ts.target == 0.0)
            ts.target = cls.gapSloSeconds > 0.0
                            ? cls.gapSloSeconds
                            : options_.sched.sloTargetGapSeconds;
        // A tier first seen mid-run still gets its SLO window when
        // the policy steers on the gap signal (declared tiers got
        // theirs in prepare).
        if (!ts.window && ev_ && ev_->policy->needsGapSignal() &&
            options_.sched.sloWindow > 0)
            ts.window = std::make_unique<WindowedQuantile>(
                options_.sched.sloWindow, 95.0);
    }
    if (tenantsActive_)
        (void)tenantState(cls.tenant);
}

void
ServingEngine::injectArrivals(const std::vector<TimedRequest> &batch)
{
    if (!ev_)
        fatal("ServingEngine::injectArrivals() before prepare()");
    if (ev_->finalized)
        fatal("ServingEngine::injectArrivals() after finalize()");
    requireSortedByArrival(batch, "ServingEngine::injectArrivals");
    EventRun &ev = *ev_;
    for (const TimedRequest &timed : batch)
        registerInjected(timed);
    // The sorted batch's time-zero prefix is available at once; the
    // rest appends to the nondecreasing pending-arrival stream when
    // it starts at or after the stream's tail.
    auto later = std::partition_point(
        batch.begin(), batch.end(),
        [](const TimedRequest &t) { return t.arrivalSeconds <= 0.0; });
    const bool immediate = later != batch.begin();
    ev.arrived.insert(ev.arrived.end(), batch.begin(), later);
    if (later == batch.end() || ev.future.empty() ||
        later->arrivalSeconds >= ev.future.back().arrivalSeconds) {
        ev.future.insert(ev.future.end(), later, batch.end());
    } else {
        for (; later != batch.end(); ++later) {
            // upper_bound keeps FIFO order among equal arrival times
            // (later injections queue behind earlier ones).
            auto pos = std::upper_bound(
                ev.future.begin(), ev.future.end(),
                later->arrivalSeconds,
                [](double t, const TimedRequest &r) {
                    return t < r.arrivalSeconds;
                });
            ev.future.insert(pos, *later);
        }
    }
    evArmArrivalEvent();
    // Time-zero deliveries skip the arrival-event path, so form
    // cohorts for them now.
    if (immediate)
        evFormNewCohorts(ev.queue.now());
}

double
ServingEngine::queuedTokens() const
{
    auto request_tokens = [](const Request &r) {
        return static_cast<double>(r.contextTokens + r.decodeTokens);
    };
    double sum = 0.0;
    for (const auto &timed : pending_)
        sum += request_tokens(timed.request);
    if (!ev_)
        return sum;
    const EventRun &ev = *ev_;
    for (const auto &timed : ev.future)
        sum += request_tokens(timed.request);
    for (const auto &timed : ev.arrived)
        sum += request_tokens(timed.request);
    for (const auto &a : ev.readyPool)
        sum += request_tokens(a.request) - static_cast<double>(a.generated);
    for (const auto &c : ev.cohorts)
        for (const auto &a : c.members)
            sum += request_tokens(a.request) -
                   static_cast<double>(a.generated);
    return sum + ev.prefillingTokens;
}

double
ServingEngine::now() const
{
    return ev_ ? ev_->queue.now() : 0.0;
}

ServingEngine::Evacuation
ServingEngine::evacuate(bool kill_in_flight)
{
    if (!ev_)
        fatal("ServingEngine::evacuate() before prepare()");
    EventRun &ev = *ev_;
    if (ev.finalized)
        fatal("ServingEngine::evacuate() after finalize()");

    Evacuation out;
    // The undelivered/unadmitted queue migrates as-is. arrived may
    // hold preemption requeues with past arrivals, so the merged
    // batch is re-sorted rather than assumed ordered.
    out.queued.reserve(ev.arrived.size() + ev.future.size());
    for (const TimedRequest &timed : ev.arrived)
        out.queued.push_back(timed);
    ev.arrived.clear();
    for (const TimedRequest &timed : ev.future)
        out.queued.push_back(timed);
    ev.future.clear();
    sortByArrival(out.queued);
    if (!kill_in_flight)
        return out;

    // Hard crash: every admitted request loses its progress. KV
    // reservations are released, partial decode tokens are counted
    // as wasted, and the request is rewound to a fresh arrival for
    // the failover router. Residual timeline events for the killed
    // work drain as no-ops: cycle completions find empty cohorts and
    // prefill completions see a stale epoch.
    ev.halted = true;
    ++ev.epoch;
    auto drop = [&](Active &a) {
        allocator_->release(a.request.id);
        tenantRelease(a.request);
        releaseCacheRef(a);
        out.lostTokens += a.generated;
        out.inFlight.push_back({a.request, a.arrival});
    };
    for (Active &a : ev.readyPool)
        drop(a);
    ev.readyPool.clear();
    for (EventCohort &c : ev.cohorts) {
        for (Active &m : c.members)
            drop(m);
        c.members.clear();
    }
    for (const auto &holder : ev.prefillHolders)
        drop(*holder);
    ev.prefillHolders.clear();
    ev.prefilling = 0;
    ev.prefillingTokens = 0.0;
    // The crash loses the replica's KV wholesale — retained prefixes
    // included. The tree restarts cold after restoreService().
    if (prefixActive_)
        prefixCache_->clear();
    sortByArrival(out.inFlight);
    return out;
}

void
ServingEngine::restoreService()
{
    if (!ev_)
        fatal("ServingEngine::restoreService() before prepare()");
    // Just lift the halt: queues are empty (the evacuation took
    // them), so service resumes with the next injected arrival.
    ev_->halted = false;
}

void
ServingEngine::setServiceRateScale(double factor)
{
    if (!ev_)
        fatal("ServingEngine::setServiceRateScale() before prepare()");
    if (!(factor > 0.0))
        fatal("ServingEngine::setServiceRateScale(%.17g): factor "
              "must be positive",
              factor);
    ev_->serviceRateScale = factor;
}

EngineResult
ServingEngine::finalize()
{
    if (!ev_)
        fatal("ServingEngine::finalize() before prepare()");
    EventRun &ev = *ev_;
    if (ev.finalized)
        fatal("ServingEngine::finalize() called twice");
    ev.finalized = true;

    if (ev.capped)
        warn("engine stopped at the cycle cap (%llu)",
             static_cast<unsigned long long>(options_.maxSteps));

    // Per-policy observability off the stage timelines.
    for (unsigned s = 0; s < ev.stages->count(); ++s) {
        XpuStageDevice *x = ev.stages->stage(s).xpu();
        if (!x)
            continue;
        result_.chunkSlices += x->preemptionSlices() -
                               x->decodePreemptionSlices();
        result_.decodePreemptSlices += x->decodePreemptionSlices();
        result_.decodeOvertakes += x->overtakes();
        result_.tierInversions += x->tierInversions();
        result_.maxTierInversionWaitSeconds =
            std::max(result_.maxTierInversionWaitSeconds,
                     x->maxTierInversionWaitSeconds());
        result_.maxDecodeXpuWaitSeconds =
            std::max(result_.maxDecodeXpuWaitSeconds,
                     x->maxDecodeWaitSeconds());
        result_.xpuPrefillBusySeconds += x->prefillBusySeconds();
    }

    result_.simulatedSeconds = ev.endTime;
    result_.simEvents = ev.queue.dispatched();
    if (prefixActive_) {
        const PrefixCacheStats &pc = prefixCache_->stats();
        result_.prefixHits = pc.hits;
        result_.prefixMisses = pc.misses;
        result_.prefixEvictions = pc.evictions;
        result_.prefixHitRate =
            safeRatio(static_cast<double>(pc.hits),
                      static_cast<double>(pc.hits + pc.misses));
        result_.sharedKvPeakBytes = prefixSharedPeak_;
        result_.uniqueKvPeakBytes = prefixUniquePeak_;
    }
    finalizeResult(ev.acc, ev.batchTime, ev.capacityTime);
    // Moved, not copied: the per-request maps are the largest part
    // of the result, and a second finalize() is fatal above.
    return std::move(result_);
}

void
ServingEngine::finalizeResult(const ChannelAccum &acc, double batch_time,
                              double capacity_time)
{
    if (result_.simulatedSeconds > 0.0) {
        result_.tokensPerSecond =
            static_cast<double>(result_.generatedTokens) /
            result_.simulatedSeconds;
        result_.avgEffectiveBatch =
            batch_time / result_.simulatedSeconds;
        result_.capacityUtilization =
            capacity_time / result_.simulatedSeconds;
    }
    result_.macUtilization = safeRatio(acc.busyCycles, acc.spanCycles);

    // Per-class stores and per-tenant summaries (classes / budgets
    // only; both vectors stay empty on the strictly-additive default
    // path).
    if (classesActive_) {
        result_.classLatencies.reserve(tiers_.size());
        for (auto &kv : tiers_) {
            EngineResult::ClassLatency cl;
            cl.tier = kv.first;
            cl.gapSloTargetSeconds = kv.second.target;
            cl.requests = kv.second.requests;
            cl.completedRequests = kv.second.completed;
            cl.firstTokenRuns = std::move(kv.second.ttfts);
            cl.tokenGapRuns = std::move(kv.second.gaps);
            result_.classLatencies.push_back(std::move(cl));
        }
    }
    if (tenantsActive_) {
        result_.tenantOccupancy.reserve(tenants_.size());
        for (auto &kv : tenants_) {
            EngineResult::TenantOccupancy to;
            to.tenant = kv.first;
            to.budgetShare = capacityTokens_ > 0.0
                                 ? kv.second.budgetTokens /
                                       capacityTokens_
                                 : 0.0;
            to.avgTokenShare = result_.simulatedSeconds > 0.0
                                   ? kv.second.shareSeconds /
                                         result_.simulatedSeconds
                                   : 0.0;
            to.peakTokenShare = kv.second.peakShare;
            to.admittedRequests = kv.second.admitted;
            to.budgetDeferrals = kv.second.deferrals;
            result_.tenantOccupancy.push_back(to);
        }
    }
    result_.summarizeLatencies();
}

void
EngineResult::summarizeLatencies()
{
    // Exact summaries of the run-length sample stores: the average
    // is the production-order running sum, the p95 the nearest-rank
    // order statistic of the whole stream.
    avgRequestLatency = requestLatencyRuns.mean();
    p95RequestLatency = requestLatencyRuns.percentile(95.0);
    avgFirstTokenSeconds = firstTokenRuns.mean();
    p95FirstTokenSeconds = firstTokenRuns.percentile(95.0);
    avgTokenGapSeconds = tokenGapRuns.mean();
    p95TokenGapSeconds = tokenGapRuns.percentile(95.0);
    tokenGapSamples = tokenGapRuns.count();
    for (ClassLatency &cl : classLatencies) {
        cl.avgFirstTokenSeconds = cl.firstTokenRuns.mean();
        cl.p95FirstTokenSeconds = cl.firstTokenRuns.percentile(95.0);
        cl.avgTokenGapSeconds = cl.tokenGapRuns.mean();
        cl.p95TokenGapSeconds = cl.tokenGapRuns.percentile(95.0);
        cl.tokenGapSamples = cl.tokenGapRuns.count();
        cl.ttftSamples = cl.firstTokenRuns.count();
    }
}

EngineResult
runServing(ClusterConfig cluster, const LlmConfig &model,
           const std::vector<Request> &requests,
           const PimphonyOptions &pimphony, std::uint64_t max_steps)
{
    applyOptions(cluster, pimphony);
    EngineOptions options;
    options.allocator =
        pimphony.dpa ? AllocatorKind::LazyChunk : AllocatorKind::Static;
    options.maxSteps = max_steps;
    ServingEngine engine(cluster, model, requests, options);
    return engine.run();
}

} // namespace pimphony
