/**
 * @file
 * Unit tests for the common toolkit: statistics, RNG distributions,
 * units, and the table printer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace pimphony {
namespace {

TEST(StatAccumulator, EmptyIsZero)
{
    StatAccumulator s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(StatAccumulator, KnownMoments)
{
    StatAccumulator s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0); // classic population-stddev example
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.uniformInt(3, 17);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 17u);
    }
}

// --- The in-repo sampler against libstdc++, bit for bit. --------------

constexpr std::uint64_t kPinnedSeeds[] = {0, 1, ~std::uint64_t{0}};
constexpr std::size_t kPinnedDraws = 1000000;

/** kPinnedDraws values of @p draw, in order. */
template <typename T, typename Draw>
std::vector<T>
drawMany(Draw draw)
{
    std::vector<T> out(kPinnedDraws);
    for (T &v : out)
        v = draw();
    return out;
}

/** memcmp, so a -0.0 against +0.0 or a NaN payload counts too. */
template <typename T>
void
expectSameBits(const std::vector<T> &got, const std::vector<T> &want,
               std::uint64_t seed)
{
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)),
              0)
        << "seed " << seed;
}

TEST(RngPinned, EngineMatchesStdMt19937_64)
{
    for (std::uint64_t seed : kPinnedSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        auto got = drawMany<std::uint64_t>([&] { return rng.engine()(); });
        auto want = drawMany<std::uint64_t>([&] { return ref(); });
        expectSameBits(got, want, seed);
    }
}

TEST(RngPinned, UniformMatchesUniformRealDistribution)
{
    for (std::uint64_t seed : kPinnedSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        auto got = drawMany<double>([&] { return rng.uniform(); });
        auto want = drawMany<double>([&] { return dist(ref); });
        expectSameBits(got, want, seed);
    }
}

TEST(RngPinned, NormalMatchesFreshNormalDistribution)
{
    for (std::uint64_t seed : kPinnedSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        auto got = drawMany<double>([&] { return rng.normal(); });
        auto want = drawMany<double>([&] {
            return std::normal_distribution<double>(0.0, 1.0)(ref);
        });
        expectSameBits(got, want, seed);
    }
}

TEST(RngPinned, GammaThroughEngineMatchesStdMt19937_64)
{
    for (std::uint64_t seed : kPinnedSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        std::gamma_distribution<double> a(0.16, 2.0), b(0.16, 2.0);
        auto got = drawMany<double>([&] { return a(rng.engine()); });
        auto want = drawMany<double>([&] { return b(ref); });
        expectSameBits(got, want, seed);
    }
}

TEST(TruncatedNormal, RespectsBoundsAndMoments)
{
    Rng rng(11);
    TruncatedNormal dist(100.0, 10.0, 50.0, 150.0);
    StatAccumulator s;
    for (int i = 0; i < 20000; ++i) {
        double v = dist.sample(rng);
        ASSERT_GE(v, 50.0);
        ASSERT_LE(v, 150.0);
        s.add(v);
    }
    EXPECT_NEAR(s.mean(), 100.0, 1.0);
    EXPECT_NEAR(s.stddev(), 10.0, 1.0);
}

TEST(TruncatedLognormal, RespectsBoundsAndMean)
{
    Rng rng(13);
    // LV-Eval multifieldqa-like parameters (Table II).
    TruncatedLognormal dist(60780, 31025, 20333, 119480);
    StatAccumulator s;
    for (int i = 0; i < 20000; ++i) {
        double v = dist.sample(rng);
        ASSERT_GE(v, 20333.0);
        ASSERT_LE(v, 119480.0);
        s.add(v);
    }
    // Truncation biases the mean; stay within 15%.
    EXPECT_NEAR(s.mean(), 60780.0, 60780.0 * 0.15);
}

TEST(TruncatedNormal, ZeroStddevClamps)
{
    Rng rng(3);
    TruncatedNormal dist(5.0, 0.0, 0.0, 10.0);
    EXPECT_DOUBLE_EQ(dist.sample(rng), 5.0);
    TruncatedNormal low(-5.0, 0.0, 0.0, 10.0);
    EXPECT_DOUBLE_EQ(low.sample(rng), 0.0);
}

TEST(Units, LiteralsAndHelpers)
{
    EXPECT_EQ(2_KiB, 2048u);
    EXPECT_EQ(1_MiB, 1048576u);
    EXPECT_EQ(1_GiB, 1073741824u);
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(roundUp(10, 8), 16);
    EXPECT_EQ(roundUp(16, 8), 16);
    EXPECT_DOUBLE_EQ(tbPerSec(2.0), 2e12);
    EXPECT_DOUBLE_EQ(tflops(312.0), 312e12);
}

TEST(Table, FormatsAlignedColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", TablePrinter::fmt(1.5)});
    t.addRow({"b", TablePrinter::fmtInt(42)});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, PercentFormatting)
{
    EXPECT_EQ(TablePrinter::fmtPercent(0.147), "14.7%");
    EXPECT_EQ(TablePrinter::fmtPercent(1.0, 0), "100%");
}

TEST(SafeRatio, GuardsZeroDenominator)
{
    EXPECT_DOUBLE_EQ(safeRatio(1.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(safeRatio(6.0, 3.0), 2.0);
}

// --- Streaming windowed quantile. ------------------------------------

/** Reference: sorted copy of the last min(window, n) samples. */
double
referenceWindowP95(const std::vector<double> &samples,
                   std::size_t window)
{
    std::size_t w = std::min(window, samples.size());
    if (w == 0)
        return 0.0;
    std::vector<double> recent(samples.end() -
                                   static_cast<std::ptrdiff_t>(w),
                               samples.end());
    std::sort(recent.begin(), recent.end());
    return nearestRankPercentile(recent, 95.0);
}

TEST(WindowedQuantile, MatchesSortedCopyOnRandomSequences)
{
    // Property: at every prefix (warm-up included), the streaming
    // p95 equals the copy+sort nearest-rank p95 the serving engine
    // used to compute — bit for bit.
    for (std::size_t window : {1u, 2u, 7u, 64u}) {
        Rng rng(91 + window);
        WindowedQuantile wq(window, 95.0);
        std::vector<double> samples;
        for (int i = 0; i < 500; ++i) {
            double v = rng.uniform();
            samples.push_back(v);
            wq.add(v);
            ASSERT_EQ(wq.size(),
                      std::min<std::size_t>(window, samples.size()));
            ASSERT_EQ(wq.value(), referenceWindowP95(samples, window))
                << "window " << window << " step " << i;
        }
    }
}

TEST(WindowedQuantile, MatchesSortedCopyWithDuplicates)
{
    // Duplicate gap values (identical completion deltas are the
    // common case in lockstep phases) stress the eviction rule: a
    // value equal to the low/high boundary may live in either
    // multiset.
    Rng rng(7);
    WindowedQuantile wq(16, 95.0);
    std::vector<double> samples;
    for (int i = 0; i < 400; ++i) {
        // Coarse quantization forces heavy duplication.
        double v = static_cast<double>(rng.uniformInt(0, 5)) * 0.25;
        samples.push_back(v);
        wq.add(v);
        ASSERT_EQ(wq.value(), referenceWindowP95(samples, 16))
            << "step " << i;
    }
}

TEST(WindowedQuantile, TracksOtherPercentiles)
{
    Rng rng(13);
    WindowedQuantile p50(32, 50.0);
    std::vector<double> samples;
    for (int i = 0; i < 200; ++i) {
        double v = rng.normal();
        samples.push_back(v);
        p50.add(v);
        std::size_t w = std::min<std::size_t>(32, samples.size());
        std::vector<double> recent(samples.end() -
                                       static_cast<std::ptrdiff_t>(w),
                                   samples.end());
        std::sort(recent.begin(), recent.end());
        ASSERT_EQ(p50.value(), nearestRankPercentile(recent, 50.0));
    }
}

TEST(WindowedQuantile, EmptyWindowReadsZero)
{
    WindowedQuantile wq(4, 95.0);
    EXPECT_EQ(wq.size(), 0u);
    EXPECT_DOUBLE_EQ(wq.value(), 0.0);
    wq.add(3.0);
    wq.add(1.0);
    EXPECT_DOUBLE_EQ(wq.value(), 3.0);
}

TEST(NearestRankInPlace, MatchesSortedNearestRank)
{
    Rng rng(29);
    for (int n : {1, 2, 19, 20, 100}) {
        std::vector<double> samples;
        for (int i = 0; i < n; ++i)
            samples.push_back(rng.uniform());
        for (double p : {5.0, 50.0, 95.0, 100.0}) {
            std::vector<double> sorted = samples;
            std::sort(sorted.begin(), sorted.end());
            std::vector<double> scratch = samples;
            EXPECT_EQ(nearestRankPercentileInPlace(scratch, p),
                      nearestRankPercentile(sorted, p))
                << "n " << n << " p " << p;
        }
    }
    std::vector<double> empty;
    EXPECT_DOUBLE_EQ(nearestRankPercentileInPlace(empty, 95.0), 0.0);
}

// --- Run-length sample store. ----------------------------------------

/**
 * Check @p store against the expanded stream @p samples it was fed:
 * count, run count, production-order mean and nearest-rank
 * percentiles, all bit for bit.
 */
void
expectMatchesExpandedStream(SampleRuns &store,
                            const std::vector<double> &samples)
{
    ASSERT_EQ(store.count(), samples.size());
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    const double n = static_cast<double>(samples.size());
    ASSERT_EQ(store.mean(), samples.empty() ? 0.0 : sum / n);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {50.0, 95.0, 99.0, 100.0})
        ASSERT_EQ(store.percentile(p), nearestRankPercentile(sorted, p))
            << "p " << p << " n " << samples.size();
}

/**
 * Cut @p samples at @p cuts (ascending, from 0 to samples.size()),
 * feed each piece to its own store, and absorb the pieces in order:
 * the merged store must summarize exactly like the concatenation,
 * with the piece-order sum of piece sums as its mean's numerator.
 */
void
expectAbsorbedMatchesConcatenation(const std::vector<double> &samples,
                                   const std::vector<std::size_t> &cuts)
{
    SampleRuns merged;
    double sum_of_sums = 0.0;
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
        SampleRuns piece;
        double piece_sum = 0.0;
        for (std::size_t i = cuts[k]; i < cuts[k + 1]; ++i) {
            piece.add(samples[i]);
            piece_sum += samples[i];
        }
        // A summarized piece has reordered runs, as an engine's
        // store has by the time a fleet merges it.
        piece.percentile(95.0);
        sum_of_sums += piece_sum;
        merged.absorb(std::move(piece));
        EXPECT_EQ(piece.count(), 0u);
        EXPECT_EQ(piece.runs(), 0u);
    }
    ASSERT_EQ(merged.count(), samples.size());
    const double n = static_cast<double>(samples.size());
    ASSERT_EQ(merged.mean(), samples.empty() ? 0.0 : sum_of_sums / n);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {50.0, 95.0, 99.0, 100.0})
        ASSERT_EQ(merged.percentile(p), nearestRankPercentile(sorted, p))
            << "p " << p << " n " << samples.size();
}

TEST(SampleRuns, MatchesExpandedStreamOnRepeatRuns)
{
    // Property: streams mixing long repeat runs (memoized cycle costs
    // repeat a gap bit for bit) with distinct values summarize exactly
    // like the expanded stream. Repeat values come from a small pool,
    // so equal values also recur in non-adjacent runs. Checkpoints
    // query mid-stream, so later adds land after an in-place sort.
    for (std::uint64_t seed : {3u, 17u, 101u}) {
        Rng rng(seed);
        const double pool[] = {0.25, 0.5, 0.75, 1.0, 1.25};
        SampleRuns store;
        std::vector<double> samples;
        std::size_t value_changes = 0;
        for (int run = 0; run < 600; ++run) {
            double v;
            std::uint64_t len;
            if (rng.uniform() < 0.5) {
                v = pool[rng.uniformInt(0, 4)];
                len = rng.uniformInt(1, 200);
            } else {
                v = rng.uniform();
                len = 1;
            }
            for (std::uint64_t i = 0; i < len; ++i) {
                if (samples.empty() || samples.back() != v)
                    ++value_changes;
                samples.push_back(v);
                store.add(v);
            }
            if (run % 150 == 149) {
                // Until the first query each value change opens
                // exactly one run.
                if (run == 149) {
                    EXPECT_EQ(store.runs(), value_changes);
                }
                expectMatchesExpandedStream(store, samples);
            }
        }
        expectMatchesExpandedStream(store, samples);
        EXPECT_LT(store.runs() * 10, samples.size());

        // Split-then-absorb, as a fleet pools its replicas' stores:
        // random cuts, one piece left empty, cuts that may split a
        // repeat run across two pieces.
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<std::size_t> cuts = {0, samples.size()};
            for (int c = 0; c < 3; ++c)
                cuts.push_back(static_cast<std::size_t>(
                    rng.uniformInt(0, samples.size())));
            cuts.push_back(cuts.back());
            std::sort(cuts.begin(), cuts.end());
            expectAbsorbedMatchesConcatenation(samples, cuts);
        }
        expectAbsorbedMatchesConcatenation({}, {0, 0, 0});
    }
}

TEST(SampleRuns, QuickselectMatchesSortedReferenceWithTies)
{
    // The weighted quickselect against the sort-based reference on
    // tie-heavy streams: four values, runs of one to three, so
    // every pivot's == block spans many runs and ranks often land
    // on a block edge. Sizes 1 and 2 cover the single-run and
    // two-run degenerate partitions; repeated queries run on runs
    // an earlier query already reordered.
    for (std::uint64_t seed : {5u, 29u, 77u}) {
        for (std::size_t n : {1u, 2u, 3u, 17u, 2000u}) {
            Rng rng(seed + n);
            const double pool[] = {-1.0, 0.0, 0.5, 3.0};
            SampleRuns store;
            std::vector<double> samples;
            while (samples.size() < n) {
                double v = pool[rng.uniformInt(0, 3)];
                std::uint64_t len = rng.uniformInt(1, 3);
                for (std::uint64_t i = 0; i < len && samples.size() < n;
                     ++i) {
                    samples.push_back(v);
                    store.add(v);
                }
            }
            expectMatchesExpandedStream(store, samples);
            expectMatchesExpandedStream(store, samples);
        }
    }
}

TEST(SampleRuns, EmptyAndSingleSample)
{
    SampleRuns empty;
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.runs(), 0u);
    expectMatchesExpandedStream(empty, {});
    EXPECT_EQ(empty.percentile(95.0), 0.0);

    SampleRuns one;
    one.add(42.0);
    EXPECT_EQ(one.runs(), 1u);
    expectMatchesExpandedStream(one, {42.0});
    EXPECT_EQ(one.percentile(1.0), 42.0);
}

TEST(SampleRuns, LongRunsCountExactly)
{
    // Run counts are 64-bit: no stream a host can hold wraps one.
    static_assert(std::numeric_limits<SampleRuns::Count>::digits >= 64,
                  "run counts must not wrap");
    SampleRuns store;
    const std::uint64_t n = (1u << 20) + 3;
    for (std::uint64_t i = 0; i < n; ++i)
        store.add(2.0);
    store.add(7.0);
    EXPECT_EQ(store.runs(), 2u);
    EXPECT_EQ(store.count(), n + 1);
    EXPECT_EQ(store.percentile(99.0), 2.0);
    EXPECT_EQ(store.percentile(100.0), 7.0);
    const double sum = 2.0 * static_cast<double>(n) + 7.0;
    EXPECT_EQ(store.mean(), sum / static_cast<double>(n + 1));
}

} // namespace
} // namespace pimphony
