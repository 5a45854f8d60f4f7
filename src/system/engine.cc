#include "system/engine.hh"

#include <algorithm>
#include <list>
#include <unordered_set>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "sim/event_queue.hh"
#include "sim/pipeline.hh"
#include "sim/work_item.hh"
#include "system/admission.hh"
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
    TierPriorityArbiter tierArbiter;
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

    /**
     * Requests that left this engine after emitting a token
     * (preempted, or killed by evacuate()), or arrived having emitted
     * one elsewhere (skipFirstToken()): a restart here records no
     * second TTFT. Usually empty.
     */
    std::unordered_set<RequestId> restarted;

    std::uint32_t nextCohortId = 0;
    std::uint64_t cycles = 0;
    bool capped = false;

    /** Scalar-prefill serialization clock (chargePrefill). */
    double prefillReady = 0.0;

    /**
     * Not-yet-arrived requests in nondecreasing arrival order: a
     * vector read from a head cursor. prepare() adopts the
     * constructor's sorted trace as it is; the consumed prefix is
     * dropped once the head passes half the vector, so the stream
     * never holds more than twice its unconsumed records.
     */
    struct ArrivalStream
    {
        std::vector<TimedRequest> items;
        std::size_t head = 0;

        bool empty() const { return head == items.size(); }
        const TimedRequest &front() const { return items[head]; }
        auto begin() const { return items.begin() + head; }
        auto end() const { return items.end(); }

        /** Consume the @p n records at the head. */
        void
        pop(std::size_t n)
        {
            head += n;
            if (2 * head > items.size()) {
                items.erase(items.begin(), items.begin() + head);
                head = 0;
            }
        }
    };
    ArrivalStream future;

    /** An arrival event is scheduled (at arrivalArmedAt). */
    bool arrivalArmed = false;
    double arrivalArmedAt = 0.0;

    /** Admission pass scratch (decoding tiers, admissions). */
    std::vector<unsigned> decodingTiers;
    std::vector<Admission::Admitted> admitted;

    bool finalized = false;
};

void
EngineOptions::validate(const std::string &path) const
{
    sched.validate(path + "sched.");
    for (std::size_t i = 0; i < tenantBudgets.size(); ++i) {
        const std::string budget =
            path + "tenantBudgets[" + std::to_string(i) + "]";
        // Finite first, so a NaN share is named as one.
        requireField(budget + ".share", tenantBudgets[i].share,
                     FieldRange::Finite);
        requireField(budget + ".share", tenantBudgets[i].share,
                     FieldRange::Fraction);
        for (std::size_t j = 0; j < i; ++j)
            if (tenantBudgets[j].tenant == tenantBudgets[i].tenant)
                fatal("%s: tenant %u already has a budget", budget.c_str(),
                      tenantBudgets[i].tenant);
    }
    prefixCache.validate(path + "prefixCache.");
    // The tree shares the allocator's chunks; only the paged
    // allocator has chunks to share.
    if (prefixCache.enabled && allocator != AllocatorKind::LazyChunk)
        fatal("%sprefixCache.enabled requires the LazyChunk allocator",
              path.c_str());
}

ServingEngine::~ServingEngine() = default;

ServingEngine::ServingEngine(const ClusterConfig &cluster,
                             const LlmConfig &model,
                             std::vector<Request> requests,
                             const EngineOptions &options)
    : ServingEngine(cluster, model,
                    [&requests] {
                        ImmediateProcess closed;
                        return attachArrivals(requests, closed, 0);
                    }(),
                    options)
{
}

ServingEngine::ServingEngine(const ClusterConfig &cluster,
                             const LlmConfig &model,
                             std::vector<TimedRequest> requests,
                             const EngineOptions &options)
    : cluster_(cluster), model_(model), options_(options)
{
    options_.validate();
    if (cluster_.plan.modules() != cluster_.nModules)
        fatal("parallel plan %s does not cover %u modules",
              cluster_.plan.toString().c_str(), cluster_.nModules);
    Bytes kv_capacity = cluster_.usableKvBytes(model_);
    if (kv_capacity == 0)
        fatal("model weights (%llu B) exceed system capacity",
              static_cast<unsigned long long>(model_.weightBytes()));
    allocator_ = std::make_unique<KvAllocator>(
        options_.allocator, kv_capacity, model_.kvBytesPerToken(),
        model_.contextWindow);
    if (options_.prefixCache.enabled)
        prefixCache_ =
            std::make_unique<PrefixCache>(*allocator_, options_.prefixCache);
    admission_ = std::make_unique<Admission>(
        model_, cluster_, options_, *allocator_, prefixCache_.get(), result_);
    module_ = std::make_unique<PimModuleModel>(cluster_.module);
    xpu_ = std::make_unique<XpuModel>(cluster_.xpu);
    // One pass rejects a NaN arrival before anything compares
    // arrivals, notes whether the trace is sorted and declares each
    // request. Declaration ranks requests by arrival, so it does not
    // depend on the order it visits them in.
    bool sorted = true;
    admission_->declare([&requests, &sorted](auto &&visit) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            if (!arrivalInOrder(requests, i, "ServingEngine"))
                sorted = false;
            visit(requests[i].request, requests[i].arrivalSeconds);
        }
    });
    if (!sorted)
        sortByArrival(requests);
    requireDistinctIds(requests, SessionBook{}, "ServingEngine");
    result_.firstTokenLatency.reserve(requests.size());
    result_.completionSeconds.reserve(requests.size());
    pending_ = std::move(requests);
}

Tokens
ServingEngine::prefixWarmTokens(const Request &r) const
{
    return admission_->warmTokens(r);
}

bool
ServingEngine::advanceMember(Active &a, double completion_clock)
{
    // The allocator holds this request's KV minus whatever the prefix
    // cache holds on its behalf (cachedTokens == 0 when caching is
    // off, making the subtraction a no-op).
    Tokens total = a.request.contextTokens + a.generated + 1;
    if (!allocator_->grow(a.request.id, total - a.cachedTokens)) {
        // Out of memory: preempt (vLLM-style recompute); the
        // request re-queues with its original arrival time.
        allocator_->release(a.request.id);
        admission_->release(a);
        ++result_.preemptions;
        result_.recomputedTokens += a.generated;
        if (a.generated >= 1)
            ev_->restarted.insert(a.request.id);
        admission_->enqueue({a.request, a.arrival});
        return false;
    }
    ++a.generated;
    ++result_.generatedTokens;
    const unsigned tier = a.request.cls.tier;
    if (a.generated == 1) {
        double ttft = completion_clock - a.arrival;
        // First admission wins: a preempted-and-recomputed request
        // keeps the TTFT of its first emitted token.
        if (!ev_->restarted.count(a.request.id)) {
            result_.firstTokenLatency.add(a.request.id, ttft);
            result_.firstTokenRuns.add(ttft);
            admission_->recordFirstToken(tier, ttft);
        }
    } else if (a.lastTokenAt >= 0.0) {
        double gap = completion_clock - a.lastTokenAt;
        result_.tokenGapRuns.add(gap);
        admission_->recordGap(tier, gap);
    }
    a.lastTokenAt = completion_clock;
    if (a.generated >= a.request.decodeTokens) {
        const SessionTurn *next = nullptr;
        auto it = sessions_.find(a.request.id);
        if (it != sessions_.end())
            next = &it->second;
        if (prefixCache_ && a.request.session != kNoSession && next) {
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
        admission_->release(a);
        ++result_.completedRequests;
        result_.goodputTokens += a.request.decodeTokens;
        admission_->recordCompletion(tier);
        result_.requestLatencyRuns.add(completion_clock - a.arrival);
        // At most one completion per request per engine (checked
        // when finalize() seals the table): what lets
        // releaseNextTurn() leave the session book unedited.
        result_.completionSeconds.add(a.request.id, completion_clock);
        if (next)
            releaseNextTurn(*next, completion_clock);
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
    double fused_fc_sec = 0.0;
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
        fused_fc_sec = std::min(xpu_->fusedGemmSeconds(flops), fc_sec);
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
    plan.fusedFcLayerSeconds = fused_fc_sec;

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
    admission_->integrate(dt);
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
    if (admission_->classesActive())
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
    // charge. warmTokens == 0 is the cold plan bit for bit.
    auto chunk_secs = prefillChunkSecondsFrom(
        model_, a.warmTokens, a.request.contextTokens,
        options_.prefillChunkTokens, cluster_.xpu, cluster_.prefillEngines());
    if (chunk_secs.empty()) {
        // Fully cached context: nothing left to prefill. A publisher
        // with an empty plan (zero-context request) opens its entry
        // immediately.
        if (prefixCache_ && a.cachePublisher && a.cacheKey != 0)
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
            // A killed prefill's chunk ran out on the device until t,
            // like a killed cohort's cycle.
            evAccountTo(t);
            if (epoch != run.epoch)
                return; // evacuated mid-prefill; already failed over
            run.prefillHolders.erase(
                std::find(run.prefillHolders.begin(),
                          run.prefillHolders.end(), holder));
            --run.prefilling;
            run.prefillingTokens -= holder_tokens;
            // Publisher's prefix KV is now materialized: open the
            // tree entry for the requests queued behind it.
            if (prefixCache_ && holder->cachePublisher &&
                holder->cacheKey != 0)
                prefixCache_->markReady(holder->cacheKey, t);
            run.readyPool.push_back(std::move(*holder));
            evFormNewCohorts(t);
        });
}

void
ServingEngine::evAdmitArrivals(double now)
{
    // Admitted requests reach the ready pool once decode-ready: at
    // once, or after their prefill chunks. The SLO gate binds a tier
    // only while it decodes, so a gated pass gets the decoding tiers.
    EventRun &ev = *ev_;
    if (ev.halted)
        return; // crashed replica: admissions wait for the sweep
    ev.decodingTiers.clear();
    if (admission_->gated())
        for (const auto &c : ev.cohorts)
            for (const auto &m : c.members)
                ev.decodingTiers.push_back(m.request.cls.tier);
    admission_->admit(now, ev.decodingTiers, ev.admitted);
    for (Admission::Admitted &adm : ev.admitted) {
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
    double fused_layer_sec = plan.fusedFcLayerSeconds * ev.serviceRateScale;
    double span_cycles = layer_sec * plan.layersTotal / ev.spc *
                         cluster_.module.nChannels * ev.tp;
    accountCycle(plan, span_cycles, ev.acc);

    // A cohort's decode items carry the best (lowest) tier of
    // its members, so a mixed cohort is arbitrated at the
    // priority of its most latency-sensitive member.
    std::uint32_t cohort_tier = 0;
    if (admission_->classesActive() && !c.members.empty()) {
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
        ev.cycleItems[s].fusedFcSeconds = fused_layer_sec * layers;
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
        if (advanceMember(c.members[i], t)) {
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
                ev.queue.empty() && !admission_->queue().empty()) {
                admission_->rejectFront();
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
    evDeliverDue(t);
    evArmArrivalEvent();
    evFormNewCohorts(t);
}

bool
ServingEngine::evDeliverDue(double t)
{
    EventRun::ArrivalStream &future = ev_->future;
    std::size_t n = 0;
    for (auto it = future.begin();
         it != future.end() && it->arrivalSeconds <= t; ++it, ++n)
        admission_->enqueue(*it);
    future.pop(n);
    return n > 0;
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

    // Co-scheduling policy: the SLO admission gate, and arbitration
    // of the xPU timelines under tier-priority (the other policies
    // keep the plain reservation arithmetic).
    admission_->prepare();
    // Every stage carries an xPU timeline: in XpuPim mode it serves
    // decode FC shares and prefill chunks; in PimOnly mode only the
    // prefill chunks (the PNM compute engines) land there.
    ev.stages = std::make_unique<StageDeviceSet>(
        ev.pp, options_.sched.kind == SchedPolicyKind::TierPriority
                   ? &ev.tierArbiter
                   : nullptr);
    ev.readyPool.reserve(pending_.size());

    // The constructor's sorted trace becomes the pending-arrival
    // stream without a copy. As with injectArrivals(), its time-zero
    // prefix is available at once; later requests become arrival
    // events.
    ev.future.items.swap(pending_);
    admission_->registerArrivals(ev.future.begin(), ev.future.end());
    const bool immediate = evDeliverDue(0.0);
    evArmArrivalEvent();
    if (immediate)
        evFormNewCohorts(ev.queue.now());
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

void
ServingEngine::declareWorkload(const std::vector<TimedRequest> &trace)
{
    if (ev_)
        fatal("ServingEngine::declareWorkload() after prepare()");
    const char *context = "ServingEngine::declareWorkload";
    requireDistinctIds(trace, pending_, context);
    requireDistinctIds(trace, sessions_, context);
    admission_->declare([&trace, context](auto &&visit) {
        for (std::size_t i = 0; i < trace.size(); ++i) {
            if (!arrivalInOrder(trace, i, context))
                requireSortedByArrival(trace, context); // names it, exits
            visit(trace[i].request, trace[i].arrivalSeconds);
        }
    });
}

void
ServingEngine::declareSessionTurns(const SessionBook &sessions)
{
    if (ev_)
        fatal("ServingEngine::declareSessionTurns() after prepare()");
    // Successor turns join the class/tenant declaration exactly as a
    // declared open-loop trace would, ranked by key.
    admission_->declare([&sessions](auto &&visit) {
        for (const auto &kv : sessions)
            visit(kv.second.request, static_cast<double>(kv.first));
    });
    sessions_ = mergeSessionBooks(sessions_, sessions);
    requireDistinctIds(pending_, sessions_,
                       "ServingEngine::declareSessionTurns");
}

void
ServingEngine::releaseNextTurn(const SessionTurn &turn, double now)
{
    double at = now + turn.thinkSeconds;
    admission_->registerArrival(turn.request);
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
    // captures only a pointer into the engine's copy of the book
    // (never written after declaration, so its entries stay put), so
    // the callback fits SimFn's inline buffer.
    ev_->queue.schedule(at, [this, turn = &turn](double t) {
        evAccountTo(t);
        admission_->enqueue({turn->request, t});
        evFormNewCohorts(t);
    });
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
    admission_->registerArrivals(batch.begin(), batch.end());
    // The sorted batch's time-zero prefix is available at once; the
    // rest appends to the nondecreasing pending-arrival stream when
    // it starts at or after the stream's tail.
    auto later = std::partition_point(
        batch.begin(), batch.end(),
        [](const TimedRequest &t) { return t.arrivalSeconds <= 0.0; });
    const bool immediate = later != batch.begin();
    for (auto it = batch.begin(); it != later; ++it)
        admission_->enqueue(*it);
    std::vector<TimedRequest> &future = ev.future.items;
    if (later == batch.end() || ev.future.empty() ||
        later->arrivalSeconds >= future.back().arrivalSeconds) {
        future.insert(future.end(), later, batch.end());
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
            future.insert(pos, *later);
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
    for (const auto &timed : admission_->queue())
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
ServingEngine::evacuate(bool kill_in_flight, double at)
{
    if (!ev_)
        fatal("ServingEngine::evacuate() before prepare()");
    EventRun &ev = *ev_;
    if (ev.finalized)
        fatal("ServingEngine::evacuate() after finalize()");

    Evacuation out;
    // The undelivered/unadmitted queue migrates as-is. The admission
    // queue may hold preemption requeues with past arrivals, so the
    // merged batch is re-sorted rather than assumed ordered.
    out.queued.reserve(admission_->queue().size() +
                       (ev.future.end() - ev.future.begin()));
    admission_->takeQueue(out.queued);
    out.queued.insert(out.queued.end(), ev.future.begin(), ev.future.end());
    ev.future = {};
    sortByArrival(out.queued);
    // Whatever emitted a token here, or was handed in having done so
    // elsewhere, has its TTFT recorded already.
    auto note_first_token = [&](RequestId id) {
        if (ev.restarted.count(id))
            out.firstTokenDone.push_back(id);
    };
    for (const TimedRequest &timed : out.queued)
        note_first_token(timed.request.id);
    if (!kill_in_flight)
        return out;

    // Hard crash: every admitted request loses its progress. KV
    // reservations are released, partial decode tokens are counted
    // as wasted, and the request is rewound to a fresh arrival for
    // the failover router. Killed prefills launch no further chunk
    // and waiting ones are dropped; work already on a device runs
    // out as no-ops: cycle completions find empty cohorts and
    // prefill completions see a stale epoch.
    // The replica was up, holding its KV, until the crash: account
    // its time up to there even when no event of its own lands on it.
    evAccountTo(at);
    ev.halted = true;
    ++ev.epoch;
    ev.stages->pipeline().dropSequences();
    auto drop = [&](Active &a) {
        allocator_->release(a.request.id);
        admission_->release(a);
        out.lostTokens += a.generated;
        if (a.generated >= 1)
            ev.restarted.insert(a.request.id);
        note_first_token(a.request.id);
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
    if (prefixCache_)
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
ServingEngine::skipFirstToken(RequestId id)
{
    if (!ev_)
        fatal("ServingEngine::skipFirstToken() before prepare()");
    ev_->restarted.insert(id);
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
        XpuStageDevice &x = ev.stages->stage(s).xpu();
        result_.chunkSlices += x.preemptionSlices() -
                               x.decodePreemptionSlices();
        result_.decodePreemptSlices += x.decodePreemptionSlices();
        result_.decodeOvertakes += x.overtakes();
        result_.maxDecodeXpuWaitSeconds =
            std::max(result_.maxDecodeXpuWaitSeconds,
                     x.maxDecodeWaitSeconds());
        result_.xpuPrefillBusySeconds += x.prefillBusySeconds();
        result_.xpuFcBusySeconds += x.fcBusySeconds();
        result_.fusedFcShares += x.fusedShares();
    }

    result_.simulatedSeconds = ev.endTime;
    result_.simEvents = ev.queue.dispatched();
    admission_->finalize();
    finalizeResult(ev.acc, ev.batchTime, ev.capacityTime);
    // Moved, not copied: the per-request tables are the largest part
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
    result_.summarizeLatencies();
    result_.firstTokenLatency.seal("emitted a first token");
    result_.completionSeconds.seal("completed");
}

namespace {

bool
idLess(const RequestTimes::value_type &a, const RequestTimes::value_type &b)
{
    return a.first < b.first;
}

bool
sameId(const RequestTimes::value_type &a, const RequestTimes::value_type &b)
{
    return a.first == b.first;
}

} // namespace

void
RequestTimes::append(const RequestTimes &other)
{
    entries_.insert(entries_.end(), other.begin(), other.end());
}

void
RequestTimes::seal(const char *event)
{
    std::sort(entries_.begin(), entries_.end(), idLess);
    auto twice = std::adjacent_find(entries_.begin(), entries_.end(), sameId);
    if (twice != entries_.end())
        panic("request %u %s twice", twice->first, event);
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
    options.allocator = pimphony.allocatorKind();
    options.maxSteps = max_steps;
    ServingEngine engine(cluster, model, requests, options);
    return engine.run();
}

} // namespace pimphony
