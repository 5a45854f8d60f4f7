#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pimphony {

double
StatAccumulator::stddev() const
{
    return std::sqrt(variance());
}

namespace {

/** Shared nearest-rank rule: ceil(p/100 * n), clamped to [1, n]. */
std::size_t
nearestRank(std::size_t n, double p)
{
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank < 1)
        rank = 1;
    if (rank > n)
        rank = n;
    return rank;
}

} // namespace

double
nearestRankPercentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRank(sorted.size(), p) - 1];
}

double
nearestRankPercentileInPlace(std::vector<double> &samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::size_t rank = nearestRank(samples.size(), p);
    std::nth_element(samples.begin(),
                     samples.begin() +
                         static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

void
SampleRuns::absorb(SampleRuns &&other)
{
    runs_.insert(runs_.end(), other.runs_.begin(), other.runs_.end());
    count_ += other.count_;
    sum_ += other.sum_;
    other = SampleRuns();
}

double
SampleRuns::percentile(double p)
{
    if (count_ == 0)
        return 0.0;
    // Weighted three-way quickselect: split the runs into < / == / >
    // the pivot value, then keep the side whose count sum holds the
    // rank. Each pass drops the nonempty == block, so it terminates,
    // in O(runs) expected. Exact: the answer is the value the rank
    // lands on in the sorted expanded stream.
    auto lo = runs_.begin(), hi = runs_.end();
    Count rank = nearestRank(count_, p);
    for (;;) {
        const double pivot = lo[(hi - lo) / 2].value;
        auto below = [pivot](const Run &r) { return r.value < pivot; };
        auto at_most = [pivot](const Run &r) { return !(pivot < r.value); };
        auto eq = std::partition(lo, hi, below);
        auto gt = std::partition(eq, hi, at_most);
        Count less = 0, equal = 0;
        for (auto it = lo; it != eq; ++it)
            less += it->count;
        for (auto it = eq; it != gt; ++it)
            equal += it->count;
        if (rank <= less) {
            hi = eq;
        } else if (rank <= less + equal) {
            return pivot;
        } else {
            rank -= less + equal;
            lo = gt;
        }
    }
}

WindowedQuantile::WindowedQuantile(std::size_t window, double percentile)
    : window_(window), percentile_(percentile)
{
    if (window_ == 0 || percentile_ <= 0.0 || percentile_ > 100.0)
        panic("WindowedQuantile needs window >= 1 and percentile in "
              "(0, 100], got %zu / %g",
              window_, percentile_);
    ring_.reserve(window_);
}

void
WindowedQuantile::add(double v)
{
    if (ring_.size() == window_) {
        double oldest = ring_[head_];
        ring_[head_] = v;
        head_ = (head_ + 1) % window_;
        // max(low_) <= min(high_), so any value strictly below
        // max(low_) can only live in low_; a value equal to the
        // boundary may have duplicates in both sets, and evicting
        // either instance leaves the same multiset of values. The
        // evicted tree node is recycled to carry the new value
        // (C++17 node handles), so the steady-state update never
        // allocates.
        auto &src = (!low_.empty() && oldest <= *low_.rbegin()) ? low_
                                                                : high_;
        auto node = src.extract(src.find(oldest));
        node.value() = v;
        if (low_.empty() || v <= *low_.rbegin())
            low_.insert(std::move(node));
        else
            high_.insert(std::move(node));
    } else {
        // Warm-up: the window grows to capacity, allocating each
        // node exactly once.
        ring_.push_back(v);
        if (low_.empty() || v <= *low_.rbegin())
            low_.insert(v);
        else
            high_.insert(v);
    }
    rebalance();
}

void
WindowedQuantile::rebalance()
{
    std::size_t rank = nearestRank(ring_.size(), percentile_);
    while (low_.size() > rank)
        high_.insert(low_.extract(std::prev(low_.end())));
    while (low_.size() < rank)
        low_.insert(high_.extract(high_.begin()));
}

double
WindowedQuantile::value() const
{
    if (low_.empty())
        return 0.0;
    return *low_.rbegin();
}

} // namespace pimphony
