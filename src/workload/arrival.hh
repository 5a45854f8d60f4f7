/**
 * @file
 * Open-loop arrival processes for online serving experiments.
 *
 * The paper's evaluation is closed-loop (a fixed request pool), but a
 * deployed long-context service sees requests arrive over time; the
 * Poisson process here lets the engine run open-loop and report
 * request latency percentiles in addition to throughput.
 *
 * Deprecation note: the free functions below are retained as thin,
 * bit-identical wrappers over the ArrivalProcess implementations in
 * workload/arrival_process.hh. New code should compose workloads
 * through WorkloadSpec / buildWorkload() (workload/spec.hh), which
 * also covers class mixes, sessions, and the diurnal rate curve the
 * free functions cannot express.
 */

#ifndef PIMPHONY_WORKLOAD_ARRIVAL_HH
#define PIMPHONY_WORKLOAD_ARRIVAL_HH

#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "workload/trace.hh"

namespace pimphony {

/** A request plus its arrival time on the serving clock. */
struct TimedRequest
{
    Request request;
    double arrivalSeconds = 0.0;
};

/**
 * Attach Poisson arrivals at @p rate_per_second to @p requests
 * (exponential inter-arrival times, deterministic per seed).
 */
std::vector<TimedRequest> poissonArrivals(const std::vector<Request> &requests,
                                          double rate_per_second,
                                          std::uint64_t seed);

/**
 * Bursty open-loop arrivals: gamma inter-arrival times with mean
 * 1 / @p rate_per_second and coefficient of variation @p cv.
 * cv == 1 recovers the Poisson process; cv > 1 clusters arrivals
 * (heavier bursts than Poisson); cv < 1 smooths them. Deterministic
 * per seed.
 */
std::vector<TimedRequest> gammaArrivals(const std::vector<Request> &requests,
                                        double rate_per_second, double cv,
                                        std::uint64_t seed);

/**
 * Two-state on/off (MMPP-like) burst process: the source alternates
 * between an ON state emitting Poisson arrivals at @ref onRate and
 * an OFF state at @ref offRate (0 = silent), with exponentially
 * distributed state sojourn times. Long-run average rate is
 * (onRate * meanOnSeconds + offRate * meanOffSeconds) /
 * (meanOnSeconds + meanOffSeconds).
 */
struct OnOffTraffic
{
    /** Arrival rate while ON (requests / second). */
    double onRate = 10.0;

    /** Arrival rate while OFF (0 = completely silent). */
    double offRate = 0.0;

    /** Mean sojourn seconds in the ON state. */
    double meanOnSeconds = 1.0;

    /** Mean sojourn seconds in the OFF state. */
    double meanOffSeconds = 1.0;
};

/** Attach on/off burst arrivals; deterministic per seed. */
std::vector<TimedRequest> onOffArrivals(const std::vector<Request> &requests,
                                        const OnOffTraffic &traffic,
                                        std::uint64_t seed);

/** All requests available at time zero (closed-loop). */
std::vector<TimedRequest>
immediateArrivals(const std::vector<Request> &requests);

/**
 * Stable-sort @p requests by arrival time. The serving engine's
 * admission queue and the event-driven core's arrival events both
 * assume nondecreasing arrival order; generators already satisfy it,
 * hand-built traces may not, and only those pay for the sort.
 */
void sortByArrival(std::vector<TimedRequest> &requests);

/**
 * Check the nondecreasing-arrival invariant sortByArrival
 * establishes and fatal() with @p context on a NaN or the first
 * violation — the assert form of the sort, called where the serving engine
 * consumes a trace (declareWorkload / injectArrivals) so a
 * hand-built out-of-order trace fails loudly instead of silently
 * starving its early requests.
 */
void requireSortedByArrival(const std::vector<TimedRequest> &requests,
                            const char *context);

} // namespace pimphony

#endif // PIMPHONY_WORKLOAD_ARRIVAL_HH
