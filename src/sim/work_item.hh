/**
 * @file
 * Unit of scheduled work in the event-driven serving core. Two kinds
 * of work flow through the same stage devices: one cohort's
 * (micro-batch's) occupancy of one pipeline stage for one decode
 * cycle, and one request's prefill chunk crossing the same stage's
 * compute (xPU) timeline. A decode cycle's FC share carries two
 * charges: stand-alone, and fused into a prefill chunk's launch.
 */

#ifndef PIMPHONY_SIM_WORK_ITEM_HH
#define PIMPHONY_SIM_WORK_ITEM_HH

#include <cstdint>

namespace pimphony {
namespace sim {

struct WorkItem
{
    enum class Kind : std::uint8_t {
        /** One cohort decode cycle on the stage's serializing device. */
        DecodeCycle,

        /** One prefill chunk on the stage's compute (xPU) timeline. */
        PrefillChunk,
    };

    Kind kind = Kind::DecodeCycle;

    /** Cohort (micro-batch) the decode work belongs to. */
    std::uint32_t cohort = 0;

    /** Request a prefill chunk belongs to (kind == PrefillChunk). */
    std::uint32_t request = 0;

    /** Chunk index within the request's prefill sequence. */
    std::uint32_t chunk = 0;

    /** Pipeline stage index the item occupies. */
    unsigned stage = 0;

    /** Decode cycle (token index) of the cohort. */
    std::uint64_t cycle = 0;

    /** Service time on the stage's serializing device. */
    double seconds = 0.0;

    /**
     * FC share of the service time, executed on the stage's xPU
     * timeline when one exists (heterogeneous xPU+PIM systems). With
     * an idle xPU the share never exceeds @ref seconds and shadows
     * the serializing PIM timeline; when prefill chunks congest the
     * xPU, the FC share completes late and gates the stage instead.
     */
    double fcSeconds = 0.0;

    /**
     * Charge of the FC share when it launches together with a
     * prefill chunk (never above the share's stand-alone charge): the
     * chunk's GEMMs stream the stage's weights once for both, so the
     * share pays only its rows' compute. A share waiting on the xPU
     * when a chunk launches rides it this way and completes right
     * after it (see sim::QueuedDevice). 0 = the share never fuses
     * (no xPU FC share, e.g. PimOnly systems).
     */
    double fusedFcSeconds = 0.0;

    // --- Preemption metadata (maintained by QueuedDevice). ----------

    /**
     * Service seconds already delivered by earlier dispatch slices
     * when the item was preempted mid-service (quantum policies).
     * Equals @ref seconds by the time onComplete observes the item.
     */
    double servedSeconds = 0.0;

    /**
     * Dispatch slices the item was served in (1 = never preempted).
     * Slices beyond the first are preemption splits: the remaining
     * charge was re-queued and re-planned after each quantum.
     */
    std::uint32_t slices = 1;

    /**
     * Latency tier of the work (0 = most latency-sensitive, the
     * default). Decode cycles carry the best (lowest) tier of their
     * cohort's members; prefill chunks carry their request's tier.
     * Only an arbiter reads it: the tier-priority arbiter
     * (system/sched_policy) serves lower values first and slices a
     * lower-tier in-flight decode item at a quantum.
     */
    std::uint32_t tier = 0;
};

} // namespace sim
} // namespace pimphony

#endif // PIMPHONY_SIM_WORK_ITEM_HH
