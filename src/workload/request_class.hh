/**
 * @file
 * Per-request service classes for multi-tenant serving.
 *
 * A deployed long-context service mixes request populations:
 * interactive chat next to batch summarization, several tenants
 * sharing one PIM deployment. A RequestClass captures what the
 * scheduling subsystem needs to tell them apart:
 *
 *  - tier: latency tier, 0 = most latency-sensitive. Under
 *    SchedPolicyKind::TierPriority the xPU timelines serve lower tier
 *    numbers first and slice lower-tier decode in flight at
 *    kTierPreemptQuantumSeconds, so a higher tier waits at most one
 *    quantum behind it. (In bench_slo_classes this gives both tiers
 *    the same gap p95: the bands do not separate them.)
 *  - gapSloSeconds: the tier's decode token-gap SLO target. Under
 *    SchedPolicyKind::SloAdmission each tier is gated on its own
 *    windowed p95 against its own target (0 falls back to the
 *    policy-wide SchedPolicyConfig::sloTargetGapSeconds).
 *  - tenant: admission-budget domain. The engine can enforce
 *    per-tenant token-capacity shares (EngineOptions::tenantBudgets)
 *    with work-conserving borrowing.
 *
 * The default-constructed class is the implicit class every request
 * had before tiers existed; an engine run in which every request
 * carries the default class and no budgets are configured behaves
 * bit-identically to a run without the subsystem.
 */

#ifndef PIMPHONY_WORKLOAD_REQUEST_CLASS_HH
#define PIMPHONY_WORKLOAD_REQUEST_CLASS_HH

namespace pimphony {

struct RequestClass
{
    /** Latency tier; 0 is served first by tier-aware policies. */
    unsigned tier = 0;

    /** Decode token-gap SLO target in seconds (0 = policy default). */
    double gapSloSeconds = 0.0;

    /** Tenant (admission-budget domain) the request bills to. */
    unsigned tenant = 0;

    /** True for the implicit pre-tier class (strictly-additive path). */
    bool
    isDefault() const
    {
        return tier == 0 && gapSloSeconds == 0.0 && tenant == 0;
    }

    bool
    operator==(const RequestClass &o) const
    {
        return tier == o.tier && gapSloSeconds == o.gapSloSeconds &&
               tenant == o.tenant;
    }

    bool operator!=(const RequestClass &o) const { return !(*this == o); }
};

} // namespace pimphony

#endif // PIMPHONY_WORKLOAD_REQUEST_CLASS_HH
