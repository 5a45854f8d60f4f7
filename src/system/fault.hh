/**
 * @file
 * Deterministic fault injection for the fleet simulation.
 *
 * A FaultSchedule scripts per-replica availability events — hard or
 * draining crashes, brown-outs (service-rate degradation), and
 * recoveries with a model-reload charge — that the fleet's health
 * state machine consumes at its window barriers. Schedules come from
 * two sources: hand-scripted event lists (scenario tests, the
 * crash-mid-decode accounting bench) and the seeded generative
 * MTBF/MTTR mode, which is a pure function of (spec, seed) exactly
 * like buildWorkload: same spec and seed, same schedule, on every
 * platform.
 *
 * The schedule itself is passive data. All timing semantics — when
 * an event takes effect relative to the fleet's conservative window
 * barriers, what happens to in-flight work — live in the fleet's
 * state machine (system/fleet.hh); an empty schedule applies no
 * transitions and displaces no work.
 */

#ifndef PIMPHONY_SYSTEM_FAULT_HH
#define PIMPHONY_SYSTEM_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pimphony {

/** One scripted availability event of one replica. */
struct FaultEvent
{
    enum class Kind {
        /**
         * The replica fails at atSeconds. With drainSeconds == 0 it
         * is a hard crash: queued work is evacuated for re-routing
         * and in-flight work (admitted, prefilling, or decoding) is
         * discarded and failed over. With drainSeconds > 0 it is a
         * planned drain: the replica stops accepting traffic and its
         * queued work migrates immediately, but in-flight work gets
         * drainSeconds to finish before whatever remains is killed.
         */
        Crash,

        /**
         * Brown-out: device charges submitted during
         * [atSeconds, atSeconds + durationSeconds) are stretched by
         * slowdownFactor. The replica keeps serving and keeps
         * receiving traffic.
         */
        Degrade,

        /**
         * The replica begins recovery at atSeconds and is routable
         * again once its model reload (weights back into PIM-mapped
         * memory) completes, modelReloadSeconds later. Only
         * meaningful after a Crash.
         */
        Recover,
    };

    Kind kind = Kind::Crash;

    /** Event time on the serving clock (seconds, >= 0). */
    double atSeconds = 0.0;

    /** Crash only: grace period before in-flight work is killed. */
    double drainSeconds = 0.0;

    /** Degrade only: service-time multiplier (> 1 is slower). */
    double slowdownFactor = 1.0;

    /** Degrade only: brown-out duration in seconds. */
    double durationSeconds = 0.0;

    /** Recover only: model reload seconds before traffic resumes. */
    double modelReloadSeconds = 0.0;
};

/** Scripted-event constructors (keep call sites readable). */
FaultEvent crashAt(double at_seconds, double drain_seconds = 0.0);
FaultEvent degradeAt(double at_seconds, double slowdown_factor,
                     double duration_seconds);
FaultEvent recoverAt(double at_seconds, double model_reload_seconds);

/**
 * Per-replica fault script: replica[i] holds replica i's events in
 * nondecreasing time order. Replicas beyond the vector's size have
 * no events; an empty schedule injects nothing.
 */
struct FaultSchedule
{
    std::vector<std::vector<FaultEvent>> replicas;

    /** Total events across all replicas. */
    std::size_t eventCount() const;

    /**
     * Validate against a fleet of @p fleet_replicas: events sorted
     * by time per replica, finite nonnegative times, drains and
     * reloads, finite positive slowdown and durations, crash/recover
     * alternation (a Recover must follow a
     * Crash, a crashed replica must not crash again before
     * recovering), and no events scripted for replicas the fleet
     * does not have. fatal() on the first violation, naming a bad
     * event field under @p path.
     */
    void validate(unsigned fleet_replicas,
                  const std::string &path = "FaultSchedule::") const;
};

/**
 * Generative MTBF/MTTR fault model. buildFaultSchedule draws each
 * replica's fault process independently: exponential time between
 * failures (mean mtbfSeconds), each failure a brown-out with
 * probability degradeProbability (duration exponential with mean
 * mttrSeconds, slowdown slowdownFactor) and otherwise a crash
 * repaired after an exponential MTTR plus modelReloadSeconds of
 * reload. Events are generated in [0, horizonSeconds).
 */
struct FaultSpec
{
    unsigned replicas = 1;

    /** Generate events in [0, horizonSeconds). 0 = no events. */
    double horizonSeconds = 0.0;

    /** Mean seconds between failures per replica. 0 = no faults. */
    double mtbfSeconds = 0.0;

    /** Mean seconds to repair (crash) / brown-out duration. */
    double mttrSeconds = 1.0;

    /** Model reload charged on every crash recovery. */
    double modelReloadSeconds = 0.0;

    /** Probability a failure is a brown-out instead of a crash. */
    double degradeProbability = 0.0;

    /** Brown-out service-time multiplier (> 1 is slower). */
    double slowdownFactor = 2.0;

    /** Grace period crashes grant in-flight work (planned drains). */
    double drainSeconds = 0.0;
};

/**
 * Expand @p spec into a concrete schedule. A pure function of
 * (spec, seed): replica i's events come from an Rng seeded by a
 * deterministic mix of @p seed and i, so schedules are reproducible
 * and per-replica streams are independent of the replica count.
 */
FaultSchedule buildFaultSchedule(const FaultSpec &spec,
                                 std::uint64_t seed);

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_FAULT_HH
