/**
 * @file
 * Open-loop arrival processes for online serving experiments.
 *
 * The paper's evaluation is closed-loop (a fixed request pool), but a
 * deployed long-context service sees requests arrive over time. An
 * ArrivalProcess is a deterministic-per-seed stream of nondecreasing
 * arrival times, and attachArrivals() zips one onto a request list —
 * the one way to time a trace. WorkloadSpec / buildWorkload()
 * (workload/spec.hh) composes a process with lengths, class mixes and
 * sessions.
 */

#ifndef PIMPHONY_WORKLOAD_ARRIVAL_HH
#define PIMPHONY_WORKLOAD_ARRIVAL_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
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
 * A stream of absolute arrival times on the serving clock.
 *
 * Contract: after reset(seed) the stream restarts from time zero,
 * successive next() calls return nondecreasing times, and the whole
 * stream is a deterministic function of the seed. next() before the
 * first reset() is a usage error (fatal).
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** Restart the stream from time zero, seeded with @p seed. */
    virtual void reset(std::uint64_t seed) = 0;

    /** The next absolute arrival time (seconds, nondecreasing). */
    virtual double next() = 0;
};

/** Every request at time zero (closed-loop; no randomness). */
class ImmediateProcess final : public ArrivalProcess
{
  public:
    void reset(std::uint64_t seed) override;
    double next() override;

  private:
    bool armed_ = false;
};

/** Poisson arrivals: exponential gaps at a fixed rate. */
class PoissonProcess final : public ArrivalProcess
{
  public:
    explicit PoissonProcess(double rate_per_second);

    void reset(std::uint64_t seed) override;
    double next() override;

  private:
    double rate_;
    Rng rng_{0};
    double t_ = 0.0;
    bool armed_ = false;
};

/**
 * Gamma renewal arrivals: gaps with mean 1 / rate and coefficient of
 * variation cv. cv == 1 recovers the Poisson process; cv > 1
 * clusters arrivals; cv < 1 smooths them.
 */
class GammaProcess final : public ArrivalProcess
{
  public:
    GammaProcess(double rate_per_second, double cv);

    void reset(std::uint64_t seed) override;
    double next() override;

  private:
    double shape_;
    double scale_;
    Rng rng_{0};
    std::gamma_distribution<double> gap_;
    double t_ = 0.0;
    bool armed_ = false;
};

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

/** Two-state on/off (MMPP-like) burst arrivals; see OnOffTraffic. */
class OnOffProcess final : public ArrivalProcess
{
  public:
    explicit OnOffProcess(const OnOffTraffic &traffic);

    void reset(std::uint64_t seed) override;
    double next() override;

  private:
    OnOffTraffic traffic_;
    Rng rng_{0};
    double t_ = 0.0;
    bool on_ = true;
    double stateEnd_ = 0.0;
    bool armed_ = false;
};

/** One constant-rate span of a piecewise rate curve. */
struct RateSegment
{
    /** Span length in seconds (must be positive). */
    double seconds = 0.0;

    /** Poisson arrival rate over the span (>= 0; 0 = silent). */
    double ratePerSecond = 0.0;
};

/**
 * A piecewise-constant rate profile — e.g. a diurnal load curve
 * sampled into hourly buckets. With repeat set (the default) the
 * profile cycles forever; otherwise the last segment's rate extends
 * past the end (and must therefore be positive, or the stream could
 * never produce another arrival).
 */
struct RateCurve
{
    std::vector<RateSegment> segments;
    bool repeat = true;

    /** Uniform-duration curve from a rate list (the --rate-curve
     *  bench flag's shape). */
    static RateCurve fromRates(const std::vector<double> &rates,
                               double segment_seconds);

    /** Time-averaged rate over one cycle (the long-run rate under
     *  repeat). */
    double meanRate() const;

    /** One cycle's length in seconds. */
    double cycleSeconds() const;
};

/**
 * Inhomogeneous Poisson arrivals driven by a RateCurve, generated by
 * inversion: each gap consumes a unit-exponential deviate against
 * the running rate integral, so the long-run arrival rate tracks the
 * curve's time average (asserted empirically in tests).
 */
class PiecewiseRateCurve final : public ArrivalProcess
{
  public:
    explicit PiecewiseRateCurve(const RateCurve &curve);

    void reset(std::uint64_t seed) override;
    double next() override;

  private:
    /** Rate and end time of the segment containing t_. */
    double segmentRate() const;
    double segmentEnd() const;

    RateCurve curve_;
    Rng rng_{0};
    double t_ = 0.0;

    /** Index into segments of the current span (wraps on repeat). */
    std::size_t seg_ = 0;

    /** Absolute start time of the current span. */
    double segStart_ = 0.0;

    bool armed_ = false;
};

/**
 * Zip the next |requests| arrival times of @p process (after
 * reset(seed)) onto @p requests, in order.
 */
std::vector<TimedRequest> attachArrivals(
    const std::vector<Request> &requests, ArrivalProcess &process,
    std::uint64_t seed);

/**
 * Whether requests[i] arrives no earlier than requests[i - 1], as a
 * scan over the trace visits index i after rejecting every earlier
 * one's NaN: the step of every arrival-order check. fatal()s with
 * @p context on a NaN arrival, naming request and index — NaN
 * compares false both ways, so it would pass an order check and
 * break the strict weak order a sort needs.
 */
bool arrivalInOrder(const std::vector<TimedRequest> &requests,
                    std::size_t i, const char *context);

/**
 * Stable-sort @p requests by arrival time, after rejecting a NaN
 * arrival as arrivalInOrder() does. The serving engine's admission
 * queue and the event-driven core's arrival events both assume
 * nondecreasing arrival order; generators already satisfy it,
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

namespace detail {

/** arrivalInOrder()'s rare path: a NaN or an inversion at @p i. */
bool arrivalOrderBreak(const std::vector<TimedRequest> &requests,
                       std::size_t i, const char *context);

} // namespace detail

inline bool
arrivalInOrder(const std::vector<TimedRequest> &requests, std::size_t i,
               const char *context)
{
    // One compare on the common path: false for a NaN here too.
    const double t = requests[i].arrivalSeconds;
    if (i > 0 ? t >= requests[i - 1].arrivalSeconds : !std::isnan(t))
        return true;
    return detail::arrivalOrderBreak(requests, i, context);
}

} // namespace pimphony

#endif // PIMPHONY_WORKLOAD_ARRIVAL_HH
