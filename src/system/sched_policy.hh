/**
 * @file
 * Prefill/decode co-scheduling policies for the serving engine's
 * per-stage xPU timelines. A policy is data: a kind, plus the one
 * target the SLO gate reads. Prefill chunks contend with decode FC
 * shares on every stage's compute (xPU) timeline, and the kind says
 * how that timeline is shared:
 *
 *  - Fifo: strict submission order (the default). The timeline keeps
 *    the plain reservation arithmetic.
 *  - SloAdmission: FIFO on the timeline, but admission-time gating —
 *    system/admission defers new prefills while the observed p95
 *    decode token gap (over a sliding window) exceeds kSloHeadroom
 *    times a target, trading TTFT for a bounded decode SLO. With
 *    request classes attached (see workload/request_class.hh) the
 *    gate is per tier: each tier gets its own sliding window judged
 *    against its own target.
 *  - TierPriority: the engine attaches a TierPriorityArbiter to every
 *    stage's xPU timeline. Decode FC shares of a higher tier (lower
 *    number) overtake lower-tier decode items as well as prefill
 *    chunks, and in-flight lower-band work is quantum-sliced. On
 *    single-class traffic every item is tier 0, so it is decode-first
 *    with in-flight chunks preempted at the quantum: a waiting decode
 *    share starts within one quantum, and slices conserve the chunk's
 *    total charge exactly.
 *
 * Policies are selected through EngineOptions::sched (and
 * OrchestratorConfig::sched).
 */

#ifndef PIMPHONY_SYSTEM_SCHED_POLICY_HH
#define PIMPHONY_SYSTEM_SCHED_POLICY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/device.hh"

namespace pimphony {

enum class SchedPolicyKind : std::uint8_t {
    Fifo,
    SloAdmission,
    TierPriority,
};

std::string schedPolicyName(SchedPolicyKind kind);

/** Every kind, in declaration order (sweep helper). */
std::vector<SchedPolicyKind> allSchedPolicies();

/**
 * TierPriority: service quantum at which an in-flight prefill chunk
 * is preempted. Bounds the worst-case decode FC stall behind prefill
 * at one quantum.
 */
inline constexpr double kPreemptQuantumSeconds = 2e-3;

/**
 * TierPriority: service quantum at which a lower-tier in-flight
 * decode item (tier > 0) is preempted, bounding how long a higher
 * tier can be inverted behind it. Tier-0 decode work is never sliced.
 */
inline constexpr double kTierPreemptQuantumSeconds = 2e-3;

/** SloAdmission: gap samples a tier's window needs before its gate
 *  can bind. */
inline constexpr unsigned kSloMinSamples = 8;

/**
 * SloAdmission: control headroom. The gate defers while the observed
 * p95 exceeds headroom * target: the feedback loop only reacts a
 * window after gaps degrade, so gating exactly at the target would
 * let the tail converge *to* it instead of staying under it.
 */
inline constexpr double kSloHeadroom = 0.7;

struct SchedPolicyConfig
{
    SchedPolicyKind kind = SchedPolicyKind::Fifo;

    /**
     * SloAdmission: target p95 decode token gap in seconds. New
     * prefills are deferred while the observed windowed p95 exceeds
     * kSloHeadroom times this.
     */
    double sloTargetGapSeconds = 50e-3;

    /** SloAdmission: sliding window of recent token gaps per tier. */
    static constexpr unsigned sloWindow = 64;

    /** Fatal, naming the field under @p path, unless
     *  sloTargetGapSeconds is finite, and positive under
     *  SloAdmission. */
    void validate(const std::string &path = "SchedPolicyConfig::") const;
};

// A window never holds more than sloWindow samples, so a larger
// minimum would keep the gate open for good.
static_assert(kSloMinSamples <= SchedPolicyConfig::sloWindow,
              "the SLO gate could never bind");

/**
 * Strict latency-tier bands on the xPU timelines: decode FC shares
 * of tier T overtake every queued item of tiers > T — lower-tier
 * *decode* items included, not just prefill chunks — and within one
 * tier decode precedes that tier's prefill chunks (FIFO inside a
 * band). In-flight work of a worse band is preempted by quantum
 * slicing so a tier inversion is bounded: prefill chunks at
 * kPreemptQuantumSeconds (any tier), lower-tier decode items at
 * kTierPreemptQuantumSeconds. Tier-0 decode is never sliced. Slices
 * conserve each item's total charge exactly (the QueuedDevice /
 * preemptionSlices machinery).
 */
class TierPriorityArbiter : public sim::QueueArbiter
{
  public:
    std::size_t pickNext(
        const std::vector<const sim::WorkItem *> &eligible)
        const override;

    double sliceSeconds(const sim::WorkItem &item) const override;
};

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_SCHED_POLICY_HH
