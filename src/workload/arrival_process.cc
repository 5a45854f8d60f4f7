#include "workload/arrival_process.hh"

#include <cmath>
#include <limits>

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

PoissonProcess::PoissonProcess(double rate_per_second)
    : rate_(rate_per_second)
{
    if (!std::isfinite(rate_) || rate_ <= 0.0)
        fatal("arrival ratePerSecond must be finite and positive "
              "(got %g)", rate_);
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
    double u = rng_.uniform();
    if (u <= 0.0)
        u = 1e-12;
    t_ += -std::log(u) / rate_;
    return t_;
}

GammaProcess::GammaProcess(double rate_per_second, double cv)
{
    if (!std::isfinite(rate_per_second) || rate_per_second <= 0.0)
        fatal("arrival ratePerSecond must be finite and positive "
              "(got %g)", rate_per_second);
    if (!std::isfinite(cv) || cv <= 0.0)
        fatal("arrival cv must be finite and positive (got %g)", cv);
    // Gamma(k, theta): mean = k * theta = 1 / rate, CV = 1 / sqrt(k).
    shape_ = 1.0 / (cv * cv);
    scale_ = cv * cv / rate_per_second;
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
    if (traffic_.onRate <= 0.0 && traffic_.offRate <= 0.0)
        fatal("on/off arrivals need a positive rate in some state");
    if (traffic_.meanOnSeconds <= 0.0 || traffic_.meanOffSeconds <= 0.0)
        fatal("on/off sojourn times must be positive");
}

double
OnOffProcess::expDraw(double mean)
{
    double u = rng_.uniform();
    if (u <= 0.0)
        u = 1e-12;
    return -std::log(u) * mean;
}

void
OnOffProcess::reset(std::uint64_t seed)
{
    rng_ = Rng(seed);
    t_ = 0.0;
    on_ = true;
    armed_ = true;
    stateEnd_ = expDraw(traffic_.meanOnSeconds);
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
            double next_t = t_ + expDraw(1.0 / rate);
            if (next_t <= stateEnd_) {
                t_ = next_t;
                return t_;
            }
        }
        t_ = stateEnd_;
        on_ = !on_;
        stateEnd_ = t_ + expDraw(on_ ? traffic_.meanOnSeconds
                                     : traffic_.meanOffSeconds);
    }
}

RateCurve
RateCurve::fromRates(const std::vector<double> &rates,
                     double segment_seconds)
{
    if (rates.empty())
        fatal("rate curve needs at least one rate");
    if (segment_seconds <= 0.0)
        fatal("rate curve segment length must be positive");
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
        fatal("rate curve needs at least one segment");
    bool any_positive = false;
    for (const auto &s : curve_.segments) {
        if (!(s.seconds > 0.0) || !std::isfinite(s.seconds))
            fatal("rate curve segment lengths must be positive");
        if (s.ratePerSecond < 0.0 || !std::isfinite(s.ratePerSecond))
            fatal("rate curve rates must be finite and nonnegative");
        any_positive = any_positive || s.ratePerSecond > 0.0;
    }
    if (!any_positive)
        fatal("rate curve needs a positive rate somewhere");
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
    double u = rng_.uniform();
    if (u <= 0.0)
        u = 1e-12;
    double target = -std::log(u);
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

} // namespace pimphony
