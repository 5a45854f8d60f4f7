/**
 * @file
 * Admission control of the serving engine: which queued requests
 * reserve KV memory and start prefill, and when — the decision
 * PIMphony's DPA controller makes against dynamically managed KV
 * memory, and a layer of its own in LoL-PIM and L3 (PAPERS.md).
 *
 * The module owns the arrived queue, the request-class and tenant
 * declarations (per-tier SLO targets, gate windows and latency
 * samples), the SLO gate, the tenant budget ledger and the prefix
 * probe. It knows nothing of events, cohorts or devices: the engine
 * enqueues arrivals, runs one admit() pass per admission point
 * (passing the tiers it is decoding), feeds decode samples back and
 * release()s what leaves the engine.
 */

#ifndef PIMPHONY_SYSTEM_ADMISSION_HH
#define PIMPHONY_SYSTEM_ADMISSION_HH

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/kv_allocator.hh"
#include "alloc/prefix_cache.hh"
#include "common/stats.hh"
#include "model/llm.hh"
#include "system/cluster.hh"
#include "system/engine.hh"
#include "system/sched_policy.hh"
#include "system/serving_options.hh"
#include "workload/arrival.hh"

namespace pimphony {

/** An admitted request: what the engine decodes and releases. */
struct ActiveRequest
{
    Request request;
    Tokens generated = 0;
    double arrival = 0.0;

    /** Completion time of the latest token (< 0: none yet). */
    double lastTokenAt = -1.0;

    // --- Prefix-sharing state (all-zero when caching is off). ------

    /** Tokens of its KV the prefix tree holds; the allocator account
     *  covers context + generated minus this. */
    Tokens cachedTokens = 0;

    /** Warm-hit tokens whose prefill was skipped (cachedTokens for a
     *  consumer, 0 for a publisher, which prefills its prefix cold). */
    Tokens warmTokens = 0;

    /** Tree entry referenced (0 = none). */
    std::uint64_t cacheKey = 0;

    /** Prefilling a new entry cold: its prefill completion marks the
     *  entry ready. */
    bool cachePublisher = false;

    /** Tokens reserved against the tenant's budget at admission;
     *  release() refunds exactly this. */
    double tenantCharge = 0.0;
};

class Admission
{
  public:
    /** An admission and its scalar prefill charge (0 unless
     *  chargePrefill or prefillChunkTokens is set). */
    struct Admitted
    {
        ActiveRequest active;
        double prefillSeconds = 0.0;
    };

    /** gateTier() when no tier defers: above every unsigned tier. */
    static constexpr std::uint64_t kGateOpen =
        std::numeric_limits<std::uint64_t>::max();

    /** Admission over @p allocator and @p cache (null: caching off),
     *  counting into @p result as it goes. Fatal unless every
     *  options.tenantBudgets entry names a new tenant with a share in
     *  [0, 1]. */
    Admission(const LlmConfig &model, const ClusterConfig &cluster,
              const ServingOptions &options, KvAllocator &allocator,
              PrefixCache *cache, EngineResult &result);

    /**
     * The one class/tenant activation scan, before prepare():
     * @p for_each(visit) calls visit(request, rank) once per declared
     * request. A tier's gap SLO target is the explicit one of its
     * lowest-rank request (ties: the first visited); a tier without
     * one gets sloTargetGapSeconds. Calls accumulate, and a target an
     * earlier call set stays. A default-class workload without
     * budgets activates nothing. Fatal, naming the request, if a
     * gapSloSeconds is not finite and >= 0 (0 = the policy default).
     */
    template <typename ForEach> void declare(ForEach for_each);

    /** Arm the SLO gate. With chunked prefill under SloAdmission,
     *  every tier gets its gate window (a single-class workload is
     *  tier 0 at sloTargetGapSeconds). */
    void prepare();

    /** Count a delivered request into its tier; touch its tenant. */
    void registerArrival(const Request &r);

    /** registerArrival() each of [first, last): nothing to do when
     *  neither classes nor tenants are active. */
    void registerArrivals(std::vector<TimedRequest>::const_iterator first,
                          std::vector<TimedRequest>::const_iterator last);

    /** Append an arrival, or a preempted request's requeue. */
    void enqueue(const TimedRequest &timed) { queue_.push_back(timed); }

    /** Arrived, not yet admitted requests, in queue order. */
    const std::deque<TimedRequest> &queue() const { return queue_; }

    /** Reject the queue head (it can never be served). */
    void rejectFront();

    /** Move the whole queue onto the end of @p out (evacuation). */
    void takeQueue(std::vector<TimedRequest> &out);

    /** The SLO gate can defer prefills in this run. */
    bool gated() const { return gated_; }

    /**
     * The gate verdict of one pass: a prefill of tier T defers iff
     * T >= gateTier(). Tier T defers when some tier <= T is over its
     * own target while it decodes (an idle tier's window cannot
     * recover, so it never binds), which is monotone in T.
     * @p decoding lists the tiers of the decoding requests.
     */
    std::uint64_t gateTier(const std::vector<unsigned> &decoding) const;

    /**
     * One admission pass at @p now, leaving the admissions in @p out
     * in order. A gate-deferred prefill or a budget-blocked request
     * is skipped, so FIFO order holds inside each (class, tenant)
     * population; a memory block halts the pass. With neither
     * classes nor budgets nothing is skipped: a deferred prefill
     * holds the FIFO queue. The gate verdict and the entitled
     * tenants are decided once, at the start of the pass.
     */
    void admit(double now, const std::vector<unsigned> &decoding,
               std::vector<Admitted> &out);

    /** Refund @p a's tenant charge and drop its prefix-tree ref. */
    void release(const ActiveRequest &a);

    /** Cached tokens the prefix tree could serve @p r now (0 when
     *  caching is off). Read-only: the router's warmth probe. */
    Tokens warmTokens(const Request &r) const;

    /** Decode feedback of a @p tier request: a token gap (gate window
     *  and samples), a first-admission TTFT, a completion. */
    void recordGap(unsigned tier, double gap);
    void recordFirstToken(unsigned tier, double ttft);
    void recordCompletion(unsigned tier);

    /** Advance the per-tenant occupancy integrals by @p dt. */
    void integrate(double dt);

    /** Any declared request carries a non-default class. */
    bool classesActive() const { return classesActive_; }

    /** Tokens @p tenant holds reserved: the sum of its live charges. */
    double tenantReservedTokens(unsigned tenant) const
    {
        auto it = tenants_.find(tenant);
        return it == tenants_.end() ? 0.0 : it->second.reservedTokens;
    }

    /** Add the prefix-cache statistics and the per-tier / per-tenant
     *  rows to the result, moving the tier samples out. Call once,
     *  after its simulatedSeconds is final. */
    void finalize();

  private:
    /** tryAdmitOne's verdict: Rejected = can never be served here,
     *  Blocked = waits for memory, BudgetBlocked = over budget and
     *  the borrow was denied, Admitted = reserved into @p out. */
    enum class Outcome { Admitted, Rejected, Blocked, BudgetBlocked };
    Outcome tryAdmitOne(const TimedRequest &timed, double now,
                        Admitted &out);

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
    PrefixProbe probePrefix(const Request &r) const;

    /** Budget verdict for @p tenant wanting @p need more tokens. */
    bool budgetAdmits(unsigned tenant, double need);

    /** Mark the tenants with an under-budget request waiting. */
    void snapshotEntitled();

    /** Sample the shared/unique custody peaks (caching only). */
    void sampleOccupancy();

    /** A tier's result row (gap SLO target, counts, samples) and
     *  the windowed p95 of its gaps (gated runs only). */
    struct TierState
    {
        EngineResult::ClassLatency row;
        std::unique_ptr<WindowedQuantile> window;

        /** declare() scratch: rank of the request whose target the
         *  tier holds (-inf: an earlier call's, +inf: none yet). */
        double targetRank = std::numeric_limits<double>::infinity();
    };

    /** A tenant's result row and budget ledger. */
    struct TenantState
    {
        EngineResult::TenantOccupancy row;
        double budgetTokens = 0.0;
        double reservedTokens = 0.0;

        /** Integral of reservedTokens/capacity over time. */
        double shareSeconds = 0.0;

        /** An under-budget request of the tenant waits (this pass). */
        bool entitled = false;
    };

    LlmConfig model_;
    XpuConfig xpu_;
    unsigned prefillEngines_ = 1;
    ServingOptions options_;
    KvAllocator &allocator_;
    PrefixCache *cache_ = nullptr;
    EngineResult &result_;

    std::deque<TimedRequest> queue_;

    bool gated_ = false;
    bool classesActive_ = false;
    bool budgetsActive_ = false; // options.tenantBudgets is non-empty

    /** Track per-tenant occupancy (budgets or tagged tenants). */
    bool tenantsActive_ = false;

    /** KV capacity in tokens (budget shares are fractions of it). */
    double capacityTokens_ = 0.0;

    /** Every declared or delivered tier, ascending (or tier 0 alone
     *  for a gated single-class run). */
    std::map<unsigned, TierState> tiers_;

    /** Per-tenant ledger, ascending (tenants active only). */
    std::map<unsigned, TenantState> tenants_;

    /** Tenants marked entitled in the current pass. */
    std::size_t entitledCount_ = 0;

    /**
     * tiers_[tier] and tenants_[tenant] through a flat memo of the
     * first kMemo keys looked up: a workload has a handful of
     * classes, so a lookup per request costs a few compares instead
     * of a tree walk. Map nodes never move, and the maps are only
     * ever cleared together with their memo.
     */
    static constexpr std::size_t kMemo = 8;
    std::vector<std::pair<unsigned, TierState *>> tierMemo_;
    std::vector<std::pair<unsigned, TenantState *>> tenantMemo_;

    template <typename State>
    static State &
    memoized(std::map<unsigned, State> &map,
             std::vector<std::pair<unsigned, State *>> &memo, unsigned key)
    {
        for (const auto &m : memo)
            if (m.first == key)
                return *m.second;
        State &state = map[key];
        if (memo.size() < kMemo)
            memo.emplace_back(key, &state);
        return state;
    }
    TierState &tierEntry(unsigned t) { return memoized(tiers_, tierMemo_, t); }
    TenantState &
    tenantEntry(unsigned t)
    {
        return memoized(tenants_, tenantMemo_, t);
    }

    /** Fatal unless @p r's gapSloSeconds is finite and >= 0. */
    static void requireValidGapSlo(const Request &r);

    /** Open a declare() call: lock the targets earlier calls set. */
    void beginDeclare();

    /** Close a declare() call: drop what an inactive scan entered,
     *  give target-less tiers the policy-wide default. */
    void endDeclare();
};

template <typename ForEach>
void
Admission::declare(ForEach for_each)
{
    // One pass enters every visited tier and tenant; endDeclare()
    // drops them again if classes (tenants) stay inactive.
    beginDeclare();
    for_each([this](const Request &r, double rank) {
        const RequestClass &cls = r.cls;
        classesActive_ = classesActive_ || !cls.isDefault();
        tenantsActive_ = tenantsActive_ || cls.tenant != 0;
        requireValidGapSlo(r);
        TierState &ts = tierEntry(cls.tier);
        if (cls.gapSloSeconds > 0.0 && rank < ts.targetRank) {
            ts.row.gapSloTargetSeconds = cls.gapSloSeconds;
            ts.targetRank = rank;
        }
        (void)tenantEntry(cls.tenant);
    });
    endDeclare();
}

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_ADMISSION_HH
