#include "system/admission.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "system/prefill.hh"

namespace pimphony {

Admission::Admission(const LlmConfig &model, const ClusterConfig &cluster,
                     const ServingOptions &options, KvAllocator &allocator,
                     PrefixCache *cache, EngineResult &result)
    : model_(model), xpu_(cluster.xpu),
      prefillEngines_(cluster.prefillEngines()), options_(options),
      allocator_(allocator), cache_(cache), result_(result)
{
    budgetsActive_ = !options_.tenantBudgets.empty();
    capacityTokens_ = static_cast<double>(allocator_.capacity()) /
                      static_cast<double>(model_.kvBytesPerToken());
    // EngineOptions::validate() has checked the budgets.
    double total_share = 0.0;
    for (const TenantBudget &b : options_.tenantBudgets) {
        tenants_[b.tenant].budgetTokens = b.share * capacityTokens_;
        total_share += b.share;
    }
    if (total_share > 1.0 + 1e-9)
        warn("tenant budget shares sum to %.3f > 1; guarantees cannot all "
             "hold under saturation",
             total_share);
}

void
Admission::prepare()
{
    // A single-class workload is tier 0 at the policy-wide target:
    // with one tier, "tier 0 decodes" means "anything decodes".
    gated_ = options_.prefillChunkTokens > 0 &&
             options_.sched.kind == SchedPolicyKind::SloAdmission;
    if (!gated_)
        return;
    if (!classesActive_)
        tierEntry(0).row.gapSloTargetSeconds =
            options_.sched.sloTargetGapSeconds;
    for (auto &kv : tiers_)
        kv.second.window = std::make_unique<WindowedQuantile>(
            options_.sched.sloWindow, 95.0);
}

void
Admission::requireValidGapSlo(const Request &r)
{
    const double slo = r.cls.gapSloSeconds;
    if (!(std::isfinite(slo) && slo >= 0.0))
        fatal("request %u: RequestClass::gapSloSeconds is %g; it must be "
              "finite and >= 0 (0 = the policy default)",
              r.id, slo);
}

void
Admission::registerArrival(const Request &r)
{
    const RequestClass &cls = r.cls;
    if (classesActive_) {
        requireValidGapSlo(r);
        TierState &ts = tierEntry(cls.tier);
        ++ts.row.requests;
        double &target = ts.row.gapSloTargetSeconds;
        if (target == 0.0)
            target = cls.gapSloSeconds > 0.0
                         ? cls.gapSloSeconds
                         : options_.sched.sloTargetGapSeconds;
        if (!ts.window && gated_) // a tier first seen mid-run
            ts.window = std::make_unique<WindowedQuantile>(
                options_.sched.sloWindow, 95.0);
    }
    if (tenantsActive_)
        (void)tenantEntry(cls.tenant);
}

void
Admission::registerArrivals(std::vector<TimedRequest>::const_iterator first,
                            std::vector<TimedRequest>::const_iterator last)
{
    if (!classesActive_ && !tenantsActive_)
        return;
    for (; first != last; ++first)
        registerArrival(first->request);
}

void
Admission::beginDeclare()
{
    const double inf = std::numeric_limits<double>::infinity();
    for (auto &kv : tiers_)
        kv.second.targetRank =
            kv.second.row.gapSloTargetSeconds != 0.0 ? -inf : inf;
}

void
Admission::endDeclare()
{
    tenantsActive_ = tenantsActive_ || budgetsActive_;
    // An inactive scan entered only tier 0 (tenant 0), untouched.
    if (!classesActive_) {
        tiers_.clear();
        tierMemo_.clear();
    } else {
        for (auto &kv : tiers_)
            if (kv.second.row.gapSloTargetSeconds == 0.0)
                kv.second.row.gapSloTargetSeconds =
                    options_.sched.sloTargetGapSeconds;
    }
    if (!tenantsActive_) {
        tenants_.clear();
        tenantMemo_.clear();
    }
}

void
Admission::rejectFront()
{
    ++result_.rejectedRequests;
    queue_.pop_front();
}

void
Admission::takeQueue(std::vector<TimedRequest> &out)
{
    out.insert(out.end(), queue_.begin(), queue_.end());
    queue_.clear();
}

std::uint64_t
Admission::gateTier(const std::vector<unsigned> &decoding) const
{
    // Tiers <= T guard a tier-T prefill, so lower-priority work can
    // never break a higher tier's SLO, while a high-priority prefill
    // is not held hostage by a struggling lower tier. Within a pass
    // no window moves (gaps land at cycle completions) and no request
    // starts or stops decoding, so the lowest binding tier is the
    // whole verdict.
    if (!gated_)
        return kGateOpen;
    for (const auto &kv : tiers_) {
        const TierState &ts = kv.second;
        if (!ts.window || ts.window->size() < kSloMinSamples)
            continue;
        // The gate binds only while the tier decodes: with nothing
        // decoding there is no SLO pressure, and a binding gate would
        // deadlock admission (no event could ever clear it).
        bool decodes = !decoding.empty(); // one tier: anything decodes
        if (classesActive_)
            decodes = std::count(decoding.begin(), decoding.end(), kv.first);
        if (decodes &&
            ts.window->value() > kSloHeadroom * ts.row.gapSloTargetSeconds)
            return kv.first;
    }
    return kGateOpen;
}

void
Admission::snapshotEntitled()
{
    // Reservations only grow during a pass, so an entitlement can
    // only lapse mid-pass: a stale mark defers a borrower to the next
    // pass but never breaks a guarantee.
    entitledCount_ = 0;
    if (!budgetsActive_)
        return;
    for (auto &kv : tenants_)
        kv.second.entitled = false;
    for (const TimedRequest &timed : queue_) {
        auto it = tenants_.find(timed.request.cls.tenant);
        if (it == tenants_.end() || it->second.entitled)
            continue;
        TenantState &ts = it->second;
        double need = static_cast<double>(timed.request.contextTokens +
                                          timed.request.decodeTokens);
        if (ts.reservedTokens + need <= ts.budgetTokens) {
            ts.entitled = true;
            ++entitledCount_;
        }
    }
}

void
Admission::admit(double now, const std::vector<unsigned> &decoding,
                 std::vector<Admitted> &out)
{
    out.clear();
    const std::uint64_t gate = gateTier(decoding);
    const bool fifo = !classesActive_ && !budgetsActive_;
    snapshotEntitled();
    bool gate_deferred = false;
    for (std::size_t i = 0; i < queue_.size();) {
        const TimedRequest &timed = queue_[i];
        if (timed.request.contextTokens > 0 &&
            timed.request.cls.tier >= gate) {
            // At most one deferral per admission pass.
            if (!gate_deferred) {
                ++result_.sloDeferrals;
                gate_deferred = true;
            }
            if (fifo)
                break; // nothing may pass it in a FIFO queue
            ++i;
            continue;
        }
        Admitted adm;
        Outcome outcome = tryAdmitOne(timed, now, adm);
        if (outcome == Outcome::Blocked)
            break;
        if (outcome == Outcome::BudgetBlocked) {
            ++i;
            continue;
        }
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        if (outcome == Outcome::Admitted)
            out.push_back(std::move(adm));
    }
}

Admission::PrefixProbe
Admission::probePrefix(const Request &r) const
{
    // Retained session history first, then the declared prefix.
    // Read-only (no stats, no LRU touch): routing probes it too.
    PrefixProbe p;
    if (r.session != kNoSession && r.turn > 0) {
        std::uint64_t key = PrefixCache::sessionKey(r.session, r.turn - 1);
        p.probed = true;
        p.share = cache_->peek(key);
        if (p.share > 0) {
            p.key = key;
            return p;
        }
    }
    if (r.prefixHash != 0 && r.prefixTokens > 0 &&
        r.prefixTokens <= r.contextTokens) {
        std::uint64_t key = PrefixCache::prefixKey(r.prefixHash);
        p.probed = true;
        p.share = cache_->peek(key);
        if (p.share > 0)
            p.key = key;
        else
            p.missedPrefix = key;
    }
    return p;
}

Tokens
Admission::warmTokens(const Request &r) const
{
    // How many of this request's context tokens the tree could serve.
    if (!cache_)
        return 0;
    return std::min<Tokens>(probePrefix(r).share, r.contextTokens);
}

bool
Admission::budgetAdmits(unsigned tenant, double need)
{
    // Beyond its guarantee a tenant borrows idle headroom (work
    // conserving), denied while another tenant is entitled.
    TenantState &ts = tenantEntry(tenant);
    if (ts.reservedTokens + need <= ts.budgetTokens)
        return true;
    if (entitledCount_ == (ts.entitled ? 1u : 0u))
        return true;
    ++ts.row.budgetDeferrals;
    ++result_.budgetDeferrals;
    return false;
}

Admission::Outcome
Admission::tryAdmitOne(const TimedRequest &timed, double now, Admitted &out)
{
    const Request &front = timed.request;
    Tokens final_tokens = front.contextTokens + front.decodeTokens;
    Bytes need = model_.kvBytesPerToken() * final_tokens;
    if (need > allocator_.capacity() ||
        final_tokens > model_.contextWindow) {
        // Can never be served on this configuration.
        ++result_.rejectedRequests;
        return Outcome::Rejected;
    }
    // Prefix probe. A declared prefix nobody has cached yet makes this
    // request its publisher: it prefills cold, and its prefix chunks
    // go into the tree for everyone behind it. A hit is pinned at once
    // (consumer ref) so the eviction below cannot take it; every
    // blocked exit hands the ref back.
    std::uint64_t key = 0;
    std::uint64_t publish_key = 0;
    bool probed = false;
    bool publisher = false;
    Tokens custody = 0;
    auto unpin = [&](Outcome blocked) {
        if (key != 0 && publisher)
            cache_->release(key);
        else if (key != 0)
            cache_->releaseConsumer(key);
        return blocked;
    };
    if (cache_) {
        PrefixProbe probe = probePrefix(front);
        probed = probe.probed;
        key = probe.key;
        if (probe.missedPrefix != 0 && !cache_->knows(probe.missedPrefix))
            publish_key = probe.missedPrefix;
        if (key != 0) {
            Tokens s = cache_->acquire(key, now, front.cls.tier);
            custody = std::min<Tokens>(s, front.contextTokens);
            if (custody == 0)
                key = 0; // entry vanished since the peek: go cold
        }
    }
    Tokens cached = custody;
    // Tenant budget. A warm hit pays its unique tokens in full and
    // the shared prefix at 1 / consumers (this admission's ref
    // included; structural refs never dilute the charge). Checks and
    // reservations use the same charge, so guarantees hold.
    double charge_tokens = static_cast<double>(final_tokens);
    if (cached > 0)
        charge_tokens =
            static_cast<double>(final_tokens - cached) +
            static_cast<double>(cached) /
                static_cast<double>(cache_->consumersOf(key));
    if (budgetsActive_ && !budgetAdmits(front.cls.tenant, charge_tokens))
        return unpin(Outcome::BudgetBlocked);
    // Headroom for the full decode trajectory (avoids preemption
    // storms); a warm admission needs it for its unique share only,
    // and the cache may shed idle entries (never the pinned one).
    Bytes need_unique = model_.kvBytesPerToken() * (final_tokens - cached);
    if (allocator_.reservedBytes() + need_unique > allocator_.capacity() &&
        (!cache_ || !cache_->evictFor(need_unique)))
        return unpin(Outcome::Blocked);
    // Commit: count the hit or miss, publish an uncached prefix, then
    // reserve the unique share.
    if (key != 0)
        cache_->noteHit();
    else if (probed)
        cache_->noteMiss();
    if (publish_key != 0 &&
        cache_->publish(publish_key, 0, 0, front.prefixTokens,
                        front.prefixTokens, now, front.cls.tier,
                        /*hold=*/true, /*ready=*/false)) {
        publisher = true;
        key = publish_key;
        custody = front.prefixTokens;
    }
    if (!allocator_.tryAdmit(front.id, front.contextTokens - custody))
        return unpin(Outcome::Blocked);
    // Scalar prefill models the prefix KV present once charged, so the
    // entry opens now; chunked prefill opens it at completion.
    if (publisher && options_.prefillChunkTokens == 0)
        cache_->markReady(key, now);
    if (tenantsActive_) {
        TenantState &ts = tenantEntry(front.cls.tenant);
        ts.reservedTokens += charge_tokens;
        ++ts.row.admittedRequests;
        if (capacityTokens_ > 0.0)
            ts.row.peakTokenShare = std::max(
                ts.row.peakTokenShare, ts.reservedTokens / capacityTokens_);
    }
    // Reused tokens count even when prefill time is not charged
    // (then savedPrefillSeconds stays zero: nothing to save).
    Tokens warm = publisher ? 0 : custody;
    result_.prefixCachedTokens += warm;
    if (options_.chargePrefill || options_.prefillChunkTokens > 0) {
        double cold = prefillSeconds(model_, front.contextTokens, xpu_,
                                     prefillEngines_);
        out.prefillSeconds = prefillSecondsFrom(
            model_, warm, front.contextTokens, xpu_, prefillEngines_);
        result_.savedPrefillSeconds += cold - out.prefillSeconds;
        result_.prefillSeconds += out.prefillSeconds;
    }
    if (cache_)
        sampleOccupancy();
    // The prefix fields stay zero when caching is off.
    ActiveRequest &a = out.active;
    a.request = front;
    a.arrival = timed.arrivalSeconds;
    a.cachedTokens = custody;
    a.warmTokens = warm;
    a.cacheKey = key;
    a.cachePublisher = publisher;
    a.tenantCharge = charge_tokens;
    return Outcome::Admitted;
}

void
Admission::release(const ActiveRequest &a)
{
    if (tenantsActive_) {
        TenantState &ts = tenantEntry(a.request.cls.tenant);
        ts.reservedTokens -= a.tenantCharge;
        if (ts.reservedTokens < 0.0)
            ts.reservedTokens = 0.0;
    }
    // The publisher's hold is structural, a warm hit's is a consumer
    // ref (the fractional-charge divisor).
    if (!cache_ || a.cacheKey == 0)
        return;
    if (a.cachePublisher)
        cache_->release(a.cacheKey);
    else
        cache_->releaseConsumer(a.cacheKey);
}

void
Admission::sampleOccupancy()
{
    // The tree reserves its chunks through the same allocator, so
    // allocated == shared + unique holds structurally.
    Bytes shared = cache_->heldBytes();
    Bytes unique = allocator_.reservedBytes() - shared;
    result_.sharedKvPeakBytes = std::max(result_.sharedKvPeakBytes, shared);
    result_.uniqueKvPeakBytes = std::max(result_.uniqueKvPeakBytes, unique);
}

void
Admission::recordGap(unsigned tier, double gap)
{
    if (!classesActive_ && !gated_)
        return;
    TierState &ts = tierEntry(classesActive_ ? tier : 0);
    if (classesActive_)
        ts.row.tokenGapRuns.add(gap);
    if (ts.window)
        ts.window->add(gap);
}

void
Admission::recordFirstToken(unsigned tier, double ttft)
{
    if (classesActive_)
        tierEntry(tier).row.firstTokenRuns.add(ttft);
}

void
Admission::recordCompletion(unsigned tier)
{
    if (classesActive_)
        ++tierEntry(tier).row.completedRequests;
}

void
Admission::integrate(double dt)
{
    if (!tenantsActive_ || dt <= 0.0 || capacityTokens_ <= 0.0)
        return;
    for (auto &kv : tenants_)
        kv.second.shareSeconds +=
            dt * kv.second.reservedTokens / capacityTokens_;
}

void
Admission::finalize()
{
    EngineResult &r = result_;
    if (cache_) {
        const PrefixCacheStats &pc = cache_->stats();
        r.prefixHits = pc.hits;
        r.prefixMisses = pc.misses;
        r.prefixEvictions = pc.evictions;
        r.prefixHitRate =
            safeRatio(static_cast<double>(pc.hits),
                      static_cast<double>(pc.hits + pc.misses));
    }
    // Both vectors stay empty on the strictly additive default path.
    if (classesActive_)
        for (auto &kv : tiers_) {
            kv.second.row.tier = kv.first;
            r.classLatencies.push_back(std::move(kv.second.row));
        }
    if (tenantsActive_)
        for (auto &kv : tenants_) {
            const TenantState &ts = kv.second;
            EngineResult::TenantOccupancy to = ts.row;
            to.tenant = kv.first;
            to.budgetShare = capacityTokens_ > 0.0
                                 ? ts.budgetTokens / capacityTokens_
                                 : 0.0;
            to.avgTokenShare = r.simulatedSeconds > 0.0
                                   ? ts.shareSeconds / r.simulatedSeconds
                                   : 0.0;
            r.tenantOccupancy.push_back(to);
        }
}

} // namespace pimphony
