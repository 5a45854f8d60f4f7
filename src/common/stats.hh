/**
 * @file
 * Small statistics toolkit: accumulators and fixed-bin histograms.
 *
 * Used both by the simulator (utilization, latency breakdowns) and by
 * the workload generator tests that check Table II moments.
 */

#ifndef PIMPHONY_COMMON_STATS_HH
#define PIMPHONY_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace pimphony {

/**
 * Streaming accumulator for mean / variance / extrema (Welford).
 */
class StatAccumulator
{
  public:
    void
    add(double v)
    {
        ++count_;
        double delta = v - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (v - mean_);
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
        sum_ += v;
    }

    std::size_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance. */
    double
    variance() const
    {
        return count_ ? m2_ / static_cast<double>(count_) : 0.0;
    }

    double stddev() const;

    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void reset();

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Histogram over [lo, hi) with uniformly sized bins; out-of-range
 * samples land in the boundary bins.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double v);

    std::size_t binCount() const { return counts_.size(); }
    std::size_t binSamples(std::size_t bin) const;
    double binLow(std::size_t bin) const;
    double binHigh(std::size_t bin) const;
    std::size_t totalSamples() const { return total_; }

    /** Value below which @p q of the mass lies (bin midpoint). */
    double quantile(double q) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

/**
 * Utility: ratio with a guard against zero denominators.
 */
inline double
safeRatio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/**
 * Nearest-rank percentile of an ascending-sorted sample: the
 * ceil(p/100 * n)-th smallest value (1-indexed), so a 1-element
 * sample returns its only value and a 20-element sample's p95 is the
 * 19th. Returns 0 for an empty sample.
 */
double nearestRankPercentile(const std::vector<double> &sorted, double p);

/**
 * Nearest-rank percentile of an *unsorted* sample via
 * std::nth_element: same rank rule and same result value as
 * nearestRankPercentile on the sorted sample, at O(n) instead of
 * O(n log n). @p samples is partially reordered in place. Returns 0
 * for an empty sample.
 */
double nearestRankPercentileInPlace(std::vector<double> &samples,
                                    double p);

/**
 * Exact run-length sample store: a whole stream kept as runs of
 * consecutive equal values.
 *
 * Memoized cycle costs make token gaps repeat bit for bit, so a
 * decode stream of millions of samples collapses to a few hundred
 * thousand runs. Memory grows with runs, not samples: 16 B per run
 * (value + 64-bit count, which cannot wrap), so at worst — no two
 * consecutive values equal — 16 B per sample. Runs live in a deque,
 * which grows in fixed blocks instead of doubling a buffer.
 *
 * Nothing is lost: mean() is the running sum in production order,
 * and percentile() returns the same order statistic as
 * nearestRankPercentile over the sorted expanded stream (asserted
 * property-style in tests/common_test.cc).
 */
class SampleRuns
{
  public:
    using Count = std::uint64_t;

    void
    add(double v)
    {
        if (!runs_.empty() && runs_.back().value == v)
            ++runs_.back().count;
        else
            runs_.push_back({v, 1});
        ++count_;
        sum_ += v;
    }

    /** Append @p other's stream to this one and empty @p other; the
     *  sum becomes this sum plus @p other's. */
    void absorb(SampleRuns &&other);

    /** Samples added (the expanded stream's length). */
    Count count() const { return count_; }

    /** Runs of consecutive equal samples stored. */
    std::size_t runs() const { return runs_.size(); }

    /** Production-order sum / count; 0 when empty. */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /**
     * Nearest-rank percentile, @p p in (0, 100]; 0 when empty.
     * A weighted quickselect reorders the runs in place (O(runs),
     * no copy): later calls and mean() stay exact, and a later add()
     * only forgoes merging into the run it would have extended.
     */
    double percentile(double p);

  private:
    struct Run
    {
        double value;
        Count count;
    };

    std::deque<Run> runs_;
    Count count_ = 0;
    double sum_ = 0.0;
};

/**
 * Streaming nearest-rank percentile over a sliding window of the
 * most recent @p window samples.
 *
 * This replaces the serving engine's per-cycle copy+sort of the SLO
 * token-gap window (O(W log W) per decode cycle) with an O(log W)
 * update: a ring buffer remembers insertion order for eviction, and
 * two multisets split the window so that @c low_ always holds
 * exactly the rank smallest values — the tracked percentile is then
 * max(low_) in O(1). Values are interchangeable across duplicates,
 * so evicting "the oldest 5.0" from whichever multiset holds a 5.0
 * preserves the window as a multiset of values exactly.
 *
 * value() matches nearestRankPercentile over a sorted copy of the
 * last min(window, n) samples bit for bit, including warm-up
 * (asserted property-style in tests/common_test.cc).
 */
class WindowedQuantile
{
  public:
    /** @p percentile in (0, 100]; @p window >= 1. */
    WindowedQuantile(std::size_t window, double percentile);

    /** Insert @p v, evicting the oldest sample at capacity. */
    void add(double v);

    /** Samples currently in the window (<= window). */
    std::size_t size() const { return ring_.size(); }

    /** Nearest-rank percentile of the window; 0 when empty. */
    double value() const;

    void reset();

  private:
    /** Move values across the low/high split until |low| == rank. */
    void rebalance();

    std::size_t window_;
    double percentile_;
    std::vector<double> ring_; ///< insertion order, grows to window_
    std::size_t head_ = 0;     ///< oldest sample's ring slot
    std::multiset<double> low_;  ///< the rank smallest values
    std::multiset<double> high_; ///< the rest
};

} // namespace pimphony

#endif // PIMPHONY_COMMON_STATS_HH
