#include "workload/arrival.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace pimphony {

void
ImmediateProcess::reset(std::uint64_t seed)
{
    (void)seed;
    armed_ = true;
}

double
ImmediateProcess::next()
{
    if (!armed_)
        fatal("ImmediateProcess::next() before reset()");
    return 0.0;
}

namespace {

/** The rate of a Poisson or gamma process, checked. */
double
checkedRate(double rate_per_second)
{
    requireField("ArrivalSpec::ratePerSecond", rate_per_second,
                 FieldRange::Positive);
    return rate_per_second;
}

} // namespace

PoissonProcess::PoissonProcess(double rate_per_second)
    : rate_(checkedRate(rate_per_second))
{
}

void
PoissonProcess::reset(std::uint64_t seed)
{
    rng_ = Rng(seed);
    t_ = 0.0;
    armed_ = true;
}

double
PoissonProcess::next()
{
    if (!armed_)
        fatal("PoissonProcess::next() before reset()");
    t_ += rng_.exponential() / rate_;
    return t_;
}

GammaProcess::GammaProcess(double rate_per_second, double cv)
{
    const double rate = checkedRate(rate_per_second);
    requireField("ArrivalSpec::cv", cv, FieldRange::Positive);
    // Gamma(k, theta): mean = k * theta = 1 / rate, CV = 1 / sqrt(k).
    shape_ = 1.0 / (cv * cv);
    scale_ = cv * cv / rate;
}

void
GammaProcess::reset(std::uint64_t seed)
{
    rng_ = Rng(seed);
    // A fresh distribution per stream: gamma keeps internal state, so
    // reusing one across resets would break determinism per seed.
    gap_ = std::gamma_distribution<double>(shape_, scale_);
    t_ = 0.0;
    armed_ = true;
}

double
GammaProcess::next()
{
    if (!armed_)
        fatal("GammaProcess::next() before reset()");
    t_ += gap_(rng_.engine());
    return t_;
}

OnOffProcess::OnOffProcess(const OnOffTraffic &traffic)
    : traffic_(traffic)
{
    const OnOffTraffic &t = traffic_;
    requireField("ArrivalSpec::onOff.onRate", t.onRate,
                 FieldRange::NonNegative);
    requireField("ArrivalSpec::onOff.offRate", t.offRate,
                 FieldRange::NonNegative);
    if (t.onRate <= 0.0 && t.offRate <= 0.0)
        fatal("ArrivalSpec::onOff needs a positive onRate or offRate");
    requireField("ArrivalSpec::onOff.meanOnSeconds", t.meanOnSeconds,
                 FieldRange::Positive);
    requireField("ArrivalSpec::onOff.meanOffSeconds", t.meanOffSeconds,
                 FieldRange::Positive);
}

void
OnOffProcess::reset(std::uint64_t seed)
{
    rng_ = Rng(seed);
    t_ = 0.0;
    on_ = true;
    armed_ = true;
    stateEnd_ = rng_.exponential() * traffic_.meanOnSeconds;
}

double
OnOffProcess::next()
{
    if (!armed_)
        fatal("OnOffProcess::next() before reset()");
    for (;;) {
        double rate = on_ ? traffic_.onRate : traffic_.offRate;
        // Memoryless in both dimensions: redrawing the arrival
        // gap after a state flip preserves the MMPP statistics.
        if (rate > 0.0) {
            double next_t = t_ + rng_.exponential() * (1.0 / rate);
            if (next_t <= stateEnd_) {
                t_ = next_t;
                return t_;
            }
        }
        t_ = stateEnd_;
        on_ = !on_;
        stateEnd_ = t_ + rng_.exponential() * (on_ ? traffic_.meanOnSeconds
                                                   : traffic_.meanOffSeconds);
    }
}

RateCurve
RateCurve::fromRates(const std::vector<double> &rates,
                     double segment_seconds)
{
    // PiecewiseRateCurve checks the curve.
    RateCurve curve;
    curve.segments.reserve(rates.size());
    for (double r : rates)
        curve.segments.push_back({segment_seconds, r});
    return curve;
}

double
RateCurve::cycleSeconds() const
{
    double sum = 0.0;
    for (const auto &s : segments)
        sum += s.seconds;
    return sum;
}

double
RateCurve::meanRate() const
{
    double area = 0.0;
    for (const auto &s : segments)
        area += s.seconds * s.ratePerSecond;
    double cycle = cycleSeconds();
    return cycle > 0.0 ? area / cycle : 0.0;
}

PiecewiseRateCurve::PiecewiseRateCurve(const RateCurve &curve)
    : curve_(curve)
{
    if (curve_.segments.empty())
        fatal("ArrivalSpec::curve needs at least one segment");
    bool any_positive = false;
    for (std::size_t i = 0; i < curve_.segments.size(); ++i) {
        const RateSegment &s = curve_.segments[i];
        const std::string segment =
            "ArrivalSpec::curve.segments[" + std::to_string(i) + "].";
        requireField(segment + "seconds", s.seconds, FieldRange::Positive);
        requireField(segment + "ratePerSecond", s.ratePerSecond,
                     FieldRange::NonNegative);
        any_positive = any_positive || s.ratePerSecond > 0.0;
    }
    if (!any_positive)
        fatal("ArrivalSpec::curve needs a positive rate somewhere");
    if (!curve_.repeat &&
        curve_.segments.back().ratePerSecond <= 0.0)
        fatal("a non-repeating rate curve must end on a positive "
              "rate (the last segment extends forever)");
}

void
PiecewiseRateCurve::reset(std::uint64_t seed)
{
    rng_ = Rng(seed);
    t_ = 0.0;
    seg_ = 0;
    segStart_ = 0.0;
    armed_ = true;
}

double
PiecewiseRateCurve::segmentRate() const
{
    return curve_.segments[seg_].ratePerSecond;
}

double
PiecewiseRateCurve::segmentEnd() const
{
    return segStart_ + curve_.segments[seg_].seconds;
}

double
PiecewiseRateCurve::next()
{
    if (!armed_)
        fatal("PiecewiseRateCurve::next() before reset()");
    // Inversion: spend a unit-exponential area against the running
    // rate integral, walking segments as each one's area is used up.
    double target = rng_.exponential();
    for (;;) {
        double rate = segmentRate();
        bool tail = !curve_.repeat &&
                    seg_ + 1 == curve_.segments.size();
        double end = segmentEnd();
        if (rate > 0.0) {
            // The non-repeating tail extends its rate forever, so
            // its area is unbounded and always absorbs the target.
            double cap = tail ? std::numeric_limits<double>::infinity()
                              : rate * (end - t_);
            if (target <= cap) {
                t_ += target / rate;
                return t_;
            }
            target -= cap;
        } else if (tail) {
            fatal("rate curve exhausted with a zero tail rate");
        }
        t_ = end;
        segStart_ = end;
        seg_ = seg_ + 1 < curve_.segments.size() ? seg_ + 1 : 0;
    }
}

std::vector<TimedRequest>
attachArrivals(const std::vector<Request> &requests,
               ArrivalProcess &process, std::uint64_t seed)
{
    process.reset(seed);
    std::vector<TimedRequest> out;
    out.reserve(requests.size());
    for (const auto &r : requests)
        out.push_back({r, process.next()});
    return out;
}

bool
detail::arrivalOrderBreak(const std::vector<TimedRequest> &requests,
                          std::size_t i, const char *context)
{
    if (std::isnan(requests[i].arrivalSeconds))
        fatal("%s: arrivalSeconds of request %u at index %zu is NaN",
              context, static_cast<unsigned>(requests[i].request.id), i);
    return false;
}

void
sortByArrival(std::vector<TimedRequest> &requests)
{
    // Stable-sorting a sorted range is the identity: sorted input
    // (every generator's) skips the sort and its scratch buffer.
    bool sorted = true;
    for (std::size_t i = 0; i < requests.size(); ++i)
        if (!arrivalInOrder(requests, i, "sortByArrival"))
            sorted = false;
    if (!sorted)
        std::stable_sort(requests.begin(), requests.end(),
                         [](const TimedRequest &a, const TimedRequest &b) {
                             return a.arrivalSeconds < b.arrivalSeconds;
                         });
}

void
requireSortedByArrival(const std::vector<TimedRequest> &requests,
                       const char *context)
{
    for (std::size_t i = 0; i < requests.size(); ++i)
        if (!arrivalInOrder(requests, i, context))
            fatal("%s: arrivals out of order at index %zu "
                  "(request %u at %.17g after request %u at %.17g); "
                  "sortByArrival() first",
                  context, i,
                  static_cast<unsigned>(requests[i].request.id),
                  requests[i].arrivalSeconds,
                  static_cast<unsigned>(requests[i - 1].request.id),
                  requests[i - 1].arrivalSeconds);
}

} // namespace pimphony
