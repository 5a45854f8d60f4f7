/**
 * @file
 * Pluggable prefill/decode co-scheduling policies for the serving
 * engine's per-stage xPU timelines.
 *
 * PR 2 made prefill chunks first-class work items that contend with
 * decode FC shares on every stage's compute (xPU) timeline, but left
 * the arbitration hard-FIFO. A SchedPolicy decides how that timeline
 * is shared — the policy space LoL-PIM / L3-style long-context
 * serving systems navigate to keep decode token-gap SLOs under
 * prefill bursts:
 *
 *  - Fifo: strict submission order (the PR 2 behavior, and the
 *    default). The timeline keeps the plain reservation arithmetic.
 *  - SloAdmission: FIFO on the timeline, but admission-time gating —
 *    new prefills are deferred while the observed p95 decode token
 *    gap (over a sliding window) exceeds a target, trading TTFT for
 *    a bounded decode SLO. With request classes attached (see
 *    workload/request_class.hh) the gate is per tier: each tier gets
 *    its own sliding window judged against its own target.
 *  - TierPriority: strict latency-tier bands — decode FC shares of a
 *    higher tier (lower number) overtake lower-tier decode items as
 *    well as prefill chunks, and in-flight lower-band work is
 *    quantum-sliced so a tier inversion is bounded
 *    (tierPreemptQuantumSeconds for decode, preemptQuantumSeconds
 *    for chunks). On single-class traffic every item is tier 0, so
 *    it is decode-first with in-flight chunks preempted at the
 *    quantum: a waiting decode share starts within one quantum, and
 *    slices conserve the chunk's total charge exactly.
 *
 * Policies are selected through EngineOptions::sched (and
 * OrchestratorConfig::sched).
 */

#ifndef PIMPHONY_SYSTEM_SCHED_POLICY_HH
#define PIMPHONY_SYSTEM_SCHED_POLICY_HH

#include <cstdint>
#include <memory>
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

struct SchedPolicyConfig
{
    SchedPolicyKind kind = SchedPolicyKind::Fifo;

    /**
     * TierPriority: service quantum in seconds at which an in-flight
     * prefill chunk is preempted. Bounds the worst-case decode FC
     * stall behind prefill at one quantum.
     */
    double preemptQuantumSeconds = 2e-3;

    /**
     * SloAdmission: target p95 decode token gap in seconds. New
     * prefills are deferred while the observed windowed p95 exceeds
     * this.
     */
    double sloTargetGapSeconds = 50e-3;

    /** SloAdmission: sliding window of recent token gaps. */
    unsigned sloWindow = 64;

    /**
     * SloAdmission: minimum gap samples before the gate can bind; at
     * most sloWindow, which caps the samples a window holds.
     */
    unsigned sloMinSamples = 8;

    /**
     * SloAdmission: control headroom. The gate defers while the
     * observed p95 exceeds headroom * target: the feedback loop only
     * reacts a window after gaps degrade, so gating exactly at the
     * target would let the tail converge *to* it instead of staying
     * under it.
     */
    double sloHeadroom = 0.7;

    /**
     * TierPriority: service quantum at which a *lower-tier in-flight
     * decode item* (tier > 0) is preempted, bounding how long a
     * higher tier can be inverted behind it — the decode-side
     * analogue of preemptQuantumSeconds (which keeps bounding
     * in-flight prefill chunks). Tier-0 decode work is never sliced;
     * <= 0 disables decode-side preemption (overtaking of *queued*
     * lower-tier work still applies).
     */
    double tierPreemptQuantumSeconds = 2e-3;

    /** Fatal, naming the field under @p path, unless every real field
     *  is finite and every field the policy uses is positive. */
    void validate(const std::string &path = "SchedPolicyConfig::") const;
};

/**
 * Arbitration + admission policy. The QueueArbiter half (pickNext /
 * sliceSeconds) drives the per-stage xPU timelines when
 * reordersXpu() is true; the admission half gates new prefills at
 * the engine's admission point.
 */
class SchedPolicy : public sim::QueueArbiter
{
  public:
    explicit SchedPolicy(const SchedPolicyConfig &config)
        : config_(config)
    {
    }

    SchedPolicyKind kind() const { return config_.kind; }
    std::string name() const { return schedPolicyName(config_.kind); }

    /**
     * True when the xPU timelines need queue-based arbitration
     * (non-FIFO pick order or quantum slicing). False keeps the
     * plain FIFO reservation timeline, bit-identical to PR 2.
     */
    virtual bool reordersXpu() const { return false; }

    /**
     * True when admitPrefillAt() steers on the observed gap p95, so
     * the engine only pays for the windowed percentile when a policy
     * consumes it.
     */
    virtual bool needsGapSignal() const { return false; }

    /**
     * Admission gate for a new prefill, judged for one tier against
     * its @p target_gap. @p observed_p95_gap is the tier's windowed
     * p95 decode token gap over @p gap_samples recent samples;
     * @p decode_in_flight tells whether the tier is decoding (a gate
     * must never bind with nothing decoding, or admission could
     * deadlock). A single-class workload is one tier at
     * sloTargetGapSeconds. The base policy never defers. @return
     * false to defer.
     */
    virtual bool
    admitPrefillAt(double /*observed_p95_gap*/, std::size_t /*gap_samples*/,
                   bool /*decode_in_flight*/, double /*target_gap*/) const
    {
        return true;
    }

  protected:
    SchedPolicyConfig config_;
};

/** Strict submission order (the PR 2 timeline, unchanged). */
class FifoPolicy : public SchedPolicy
{
  public:
    using SchedPolicy::SchedPolicy;
};

/**
 * FIFO timeline with SLO-aware admission: defer new prefills while
 * the observed p95 decode token gap exceeds the target.
 */
class SloAdmissionPolicy : public SchedPolicy
{
  public:
    using SchedPolicy::SchedPolicy;

    bool needsGapSignal() const override { return true; }

    bool admitPrefillAt(double observed_p95_gap,
                        std::size_t gap_samples,
                        bool decode_in_flight,
                        double target_gap) const override;
};

/**
 * Strict latency-tier bands on the xPU timelines: decode FC shares
 * of tier T overtake every queued item of tiers > T — lower-tier
 * *decode* items included, not just prefill chunks — and within one
 * tier decode precedes that tier's prefill chunks (FIFO inside a
 * band). In-flight work of a worse band is preempted by quantum
 * slicing so a tier inversion is bounded: prefill chunks at
 * preemptQuantumSeconds (any tier), lower-tier decode items at
 * tierPreemptQuantumSeconds. Tier-0 decode is never sliced. Slices
 * conserve each item's total charge exactly (the QueuedDevice /
 * preemptionSlices machinery, unchanged).
 */
class TierPriorityPolicy : public SchedPolicy
{
  public:
    using SchedPolicy::SchedPolicy;

    bool reordersXpu() const override { return true; }

    std::size_t pickNext(
        const std::vector<const sim::WorkItem *> &eligible)
        const override;

    double sliceSeconds(const sim::WorkItem &item) const override;
};

std::unique_ptr<SchedPolicy>
makeSchedPolicy(const SchedPolicyConfig &config);

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_SCHED_POLICY_HH
