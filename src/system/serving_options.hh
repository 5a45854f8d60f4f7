/**
 * @file
 * Serving-time options shared by every front-end that drives the
 * engine.
 *
 * EngineOptions (the engine's own knob set) and OrchestratorConfig
 * (the library's top-level API) used to mirror these five fields by
 * hand, so every new serving knob had to be added — and copied at
 * runPlan time — in two places. Both now embed ServingOptions as a
 * base, and the orchestrator forwards the whole block with one slice
 * assignment; existing field accesses (`opts.prefillChunkTokens`,
 * `config.sched`, ...) compile unchanged.
 */

#ifndef PIMPHONY_SYSTEM_SERVING_OPTIONS_HH
#define PIMPHONY_SYSTEM_SERVING_OPTIONS_HH

#include <cstdint>
#include <vector>

#include "alloc/prefix_cache.hh"
#include "common/types.hh"
#include "system/sched_policy.hh"

namespace pimphony {

/**
 * Admission budget of one tenant: a guaranteed share of the KV token
 * capacity. A tenant may always admit up to share * capacityTokens
 * of reserved decode trajectories; beyond that it *borrows* — and
 * borrowing is allowed only while no other tenant has an
 * under-budget ("entitled") request waiting, so a saturating tenant
 * can use an idle tenant's headroom (work conserving) but can never
 * hold an active tenant below its guarantee as admissions churn.
 * Tenants without a configured budget are borrow-only.
 */
struct TenantBudget
{
    unsigned tenant = 0;

    /** Guaranteed fraction of the KV token capacity, in [0, 1]. */
    double share = 0.0;
};

/**
 * The serving knobs common to EngineOptions and OrchestratorConfig.
 */
struct ServingOptions
{
    /**
     * Context tokens per prefill chunk. When > 0, admitted requests
     * prefill as chunked work items on the xPU stage timelines
     * (continuous prefill/decode batching) instead of a scalar time
     * charge; smaller chunks interleave more finely with decode at
     * the cost of more hand-offs. 0 disables chunking.
     */
    Tokens prefillChunkTokens = 0;

    /**
     * Charge prefill compute time when a request is admitted
     * (extension; the paper's evaluation, like ours by default,
     * reports decode throughput).
     */
    bool chargePrefill = false;

    /**
     * Prefill/decode co-scheduling policy for the per-stage xPU
     * timelines (and the admission gate). Defaults to FIFO: plain
     * submission order with no admission gate.
     */
    SchedPolicyConfig sched;

    /**
     * Per-tenant admission budgets (token-capacity shares with
     * work-conserving borrowing; see TenantBudget). Empty — the
     * default — disables tenant accounting entirely. With budgets
     * set, the engine's admission scan skips budget-blocked requests
     * so one saturating tenant cannot head-of-line block the others;
     * with neither budgets nor request classes it skips nothing,
     * which makes it a plain FIFO queue.
     */
    std::vector<TenantBudget> tenantBudgets;

    /**
     * Copy-on-write prefix sharing over the paged KV allocator (see
     * alloc/prefix_cache.hh): requests whose workload-declared
     * prefix — or retained session history — is cached skip the
     * cached share of their prefill charge and map the shared chunks
     * instead of reserving fresh ones. Disabled by default; off
     * reproduces the cache-less engine bit for bit. Requires the
     * LazyChunk allocator.
     */
    PrefixCacheOptions prefixCache;

    /** Cap on simulated cohort decode cycles (safety valve). */
    std::uint64_t maxSteps = 200000;
};

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_SERVING_OPTIONS_HH
