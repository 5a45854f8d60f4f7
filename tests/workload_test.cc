/**
 * @file
 * Workload tests: the synthetic traces must reproduce Table II's
 * statistics and honour bounds; generation is deterministic per
 * seed. The bursty open-loop arrival generators (gamma, on/off) must
 * likewise be deterministic per seed and hit their configured
 * long-run mean rate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <string>

#include "common/stats.hh"
#include "workload/arrival.hh"
#include "workload/arrival_process.hh"
#include "workload/replay.hh"
#include "workload/spec.hh"
#include "workload/trace.hh"

namespace pimphony {
namespace {

class TraceMoments : public ::testing::TestWithParam<TraceTask>
{
};

TEST_P(TraceMoments, MatchTableII)
{
    TraceTask task = GetParam();
    const auto &ref = traceTaskStats(task);
    TraceGenerator gen(task, 7);
    auto reqs = gen.generate(20000);

    StatAccumulator s;
    for (const auto &r : reqs) {
        ASSERT_GE(static_cast<double>(r.contextTokens), ref.min);
        ASSERT_LE(static_cast<double>(r.contextTokens), ref.max);
        s.add(static_cast<double>(r.contextTokens));
    }
    // Truncation shifts moments slightly; 12% on the mean, 25% on
    // the standard deviation keeps the distribution recognizably
    // Table II.
    EXPECT_NEAR(s.mean(), ref.mean, ref.mean * 0.12) << ref.name;
    EXPECT_NEAR(s.stddev(), ref.stddev, ref.stddev * 0.25) << ref.name;
}

INSTANTIATE_TEST_SUITE_P(AllTasks, TraceMoments,
                         ::testing::ValuesIn(allTraceTasks()));

TEST(Trace, DeterministicPerSeed)
{
    TraceGenerator a(TraceTask::QMSum, 11), b(TraceTask::QMSum, 11);
    auto ra = a.generate(64), rb = b.generate(64);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_EQ(ra[i].contextTokens, rb[i].contextTokens);
}

TEST(Trace, DifferentSeedsDiffer)
{
    TraceGenerator a(TraceTask::QMSum, 1), b(TraceTask::QMSum, 2);
    auto ra = a.generate(64), rb = b.generate(64);
    int same = 0;
    for (std::size_t i = 0; i < ra.size(); ++i)
        if (ra[i].contextTokens == rb[i].contextTokens)
            ++same;
    EXPECT_LT(same, 8);
}

TEST(Trace, IdsAreUniqueAcrossBatches)
{
    TraceGenerator gen(TraceTask::Musique, 3);
    auto a = gen.generate(10);
    auto b = gen.generate(10);
    EXPECT_EQ(a.back().id + 1, b.front().id);
}

TEST(Trace, ScaledGenerationHitsTargetMean)
{
    TraceGenerator gen(TraceTask::MultifieldQa, 5);
    auto reqs = gen.generateScaled(5000, 262144);
    StatAccumulator s;
    for (const auto &r : reqs)
        s.add(static_cast<double>(r.contextTokens));
    EXPECT_NEAR(s.mean(), 262144.0, 262144.0 * 0.12);
}

TEST(Trace, DecodeTokensPropagated)
{
    TraceGenerator gen(TraceTask::LoogleSd, 9);
    auto reqs = gen.generate(5, 77);
    for (const auto &r : reqs)
        EXPECT_EQ(r.decodeTokens, 77u);
}

// --- Bursty arrival generators. ----------------------------------------

std::vector<Request>
flatRequests(std::size_t n)
{
    std::vector<Request> reqs;
    for (RequestId i = 0; i < n; ++i)
        reqs.push_back({i, 1000, 16});
    return reqs;
}

void
expectSameArrivals(const std::vector<TimedRequest> &a,
                   const std::vector<TimedRequest> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].request.id, b[i].request.id) << i;
        EXPECT_EQ(a[i].arrivalSeconds, b[i].arrivalSeconds) << i;
    }
}

TEST(Arrivals, GammaDeterministicPerSeedAndSeedsDiffer)
{
    auto reqs = flatRequests(256);
    auto a = gammaArrivals(reqs, 5.0, 3.0, 11);
    auto b = gammaArrivals(reqs, 5.0, 3.0, 11);
    expectSameArrivals(a, b);

    auto c = gammaArrivals(reqs, 5.0, 3.0, 12);
    ASSERT_EQ(a.size(), c.size());
    int same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].arrivalSeconds == c[i].arrivalSeconds)
            ++same;
    EXPECT_LT(same, 4);
}

TEST(Arrivals, OnOffDeterministicPerSeedAndSeedsDiffer)
{
    auto reqs = flatRequests(256);
    OnOffTraffic traffic;
    traffic.onRate = 8.0;
    traffic.offRate = 0.5;
    traffic.meanOnSeconds = 1.5;
    traffic.meanOffSeconds = 3.0;
    auto a = onOffArrivals(reqs, traffic, 21);
    auto b = onOffArrivals(reqs, traffic, 21);
    expectSameArrivals(a, b);

    auto c = onOffArrivals(reqs, traffic, 22);
    int same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].arrivalSeconds == c[i].arrivalSeconds)
            ++same;
    EXPECT_LT(same, 4);
}

TEST(Arrivals, GammaEmpiricalMeanRateMatchesConfigured)
{
    // Property: over many arrivals the empirical rate
    // n / t_last approaches the configured rate regardless of the
    // burstiness (CV); averaged over seeds to keep the tolerance
    // tight without flaking.
    auto reqs = flatRequests(4000);
    for (double cv : {0.5, 1.0, 3.0}) {
        double rate_sum = 0.0;
        const int kSeeds = 5;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            auto timed = gammaArrivals(reqs, 4.0, cv, seed);
            ASSERT_GT(timed.back().arrivalSeconds, 0.0);
            rate_sum += static_cast<double>(timed.size()) /
                        timed.back().arrivalSeconds;
        }
        EXPECT_NEAR(rate_sum / kSeeds, 4.0, 4.0 * 0.08) << "cv " << cv;
    }
}

TEST(Arrivals, OnOffEmpiricalMeanRateMatchesConfigured)
{
    auto reqs = flatRequests(4000);
    OnOffTraffic traffic;
    traffic.onRate = 10.0;
    traffic.offRate = 0.0;
    traffic.meanOnSeconds = 2.0;
    traffic.meanOffSeconds = 3.0;
    // Long-run rate = (on * t_on + off * t_off) / (t_on + t_off).
    double expected = (traffic.onRate * traffic.meanOnSeconds +
                       traffic.offRate * traffic.meanOffSeconds) /
                      (traffic.meanOnSeconds + traffic.meanOffSeconds);
    double rate_sum = 0.0;
    const int kSeeds = 5;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        auto timed = onOffArrivals(reqs, traffic, seed);
        ASSERT_GT(timed.back().arrivalSeconds, 0.0);
        rate_sum += static_cast<double>(timed.size()) /
                    timed.back().arrivalSeconds;
    }
    EXPECT_NEAR(rate_sum / kSeeds, expected, expected * 0.10);
}

// --- ArrivalProcess wrappers: the free functions must reproduce the
// --- pre-refactor RNG loops bit for bit. The goldens below are
// --- verbatim copies of the original generator bodies. ------------------

TEST(ArrivalProcess, PoissonWrapperMatchesLegacyLoop)
{
    auto reqs = flatRequests(128);
    const double rate = 3.0;
    const std::uint64_t seed = 19;
    std::vector<TimedRequest> golden;
    Rng rng(seed);
    double t = 0.0;
    for (const auto &r : reqs) {
        double u = rng.uniform();
        if (u <= 0.0)
            u = 1e-12;
        t += -std::log(u) / rate;
        golden.push_back({r, t});
    }
    expectSameArrivals(poissonArrivals(reqs, rate, seed), golden);
}

TEST(ArrivalProcess, GammaWrapperMatchesLegacyLoop)
{
    auto reqs = flatRequests(128);
    const double rate = 2.0, cv = 2.5;
    const std::uint64_t seed = 23;
    std::vector<TimedRequest> golden;
    Rng rng(seed);
    std::gamma_distribution<double> gap(1.0 / (cv * cv),
                                        cv * cv / rate);
    double t = 0.0;
    for (const auto &r : reqs) {
        t += gap(rng.engine());
        golden.push_back({r, t});
    }
    expectSameArrivals(gammaArrivals(reqs, rate, cv, seed), golden);
}

TEST(ArrivalProcess, OnOffWrapperMatchesLegacyLoop)
{
    auto reqs = flatRequests(128);
    OnOffTraffic traffic;
    traffic.onRate = 6.0;
    traffic.offRate = 0.5;
    traffic.meanOnSeconds = 1.0;
    traffic.meanOffSeconds = 2.0;
    const std::uint64_t seed = 29;
    std::vector<TimedRequest> golden;
    Rng rng(seed);
    auto exp_draw = [&rng](double mean) {
        double u = rng.uniform();
        if (u <= 0.0)
            u = 1e-12;
        return -std::log(u) * mean;
    };
    double t = 0.0;
    bool on = true;
    double state_end = exp_draw(traffic.meanOnSeconds);
    for (const auto &r : reqs) {
        for (;;) {
            double rate = on ? traffic.onRate : traffic.offRate;
            if (rate > 0.0) {
                double next_t = t + exp_draw(1.0 / rate);
                if (next_t <= state_end) {
                    t = next_t;
                    break;
                }
            }
            t = state_end;
            on = !on;
            state_end = t + exp_draw(on ? traffic.meanOnSeconds
                                        : traffic.meanOffSeconds);
        }
        golden.push_back({r, t});
    }
    expectSameArrivals(onOffArrivals(reqs, traffic, seed), golden);
}

TEST(ArrivalProcess, NextBeforeResetDies)
{
    PoissonProcess p(1.0);
    EXPECT_DEATH(p.next(), "before reset");
}

// --- Piecewise rate curves (diurnal profiles). --------------------------

TEST(RateCurve, EmpiricalLongRunRateMatchesMean)
{
    auto reqs = flatRequests(4000);
    RateCurve curve = RateCurve::fromRates({2.0, 0.5}, 5.0);
    double expected = curve.meanRate();
    ASSERT_DOUBLE_EQ(expected, 1.25);
    double rate_sum = 0.0;
    const int kSeeds = 5;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        PiecewiseRateCurve process(curve);
        auto timed = attachArrivals(reqs, process, seed);
        ASSERT_GT(timed.back().arrivalSeconds, 0.0);
        rate_sum += static_cast<double>(timed.size()) /
                    timed.back().arrivalSeconds;
    }
    EXPECT_NEAR(rate_sum / kSeeds, expected, expected * 0.08);
}

TEST(RateCurve, DeterministicPerSeedAndSeedsDiffer)
{
    auto reqs = flatRequests(256);
    RateCurve curve = RateCurve::fromRates({1.0, 3.0, 0.2}, 2.0);
    PiecewiseRateCurve p1(curve), p2(curve), p3(curve);
    auto a = attachArrivals(reqs, p1, 41);
    auto b = attachArrivals(reqs, p2, 41);
    expectSameArrivals(a, b);
    auto c = attachArrivals(reqs, p3, 42);
    int same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].arrivalSeconds == c[i].arrivalSeconds)
            ++same;
    EXPECT_LT(same, 4);
}

TEST(RateCurve, ZeroRateSegmentsGetNoArrivals)
{
    // Repeating {4 req/s for 1 s, silence for 1 s}: every arrival's
    // position inside the 2 s cycle must land in the active half.
    auto reqs = flatRequests(512);
    RateCurve curve = RateCurve::fromRates({4.0, 0.0}, 1.0);
    PiecewiseRateCurve process(curve);
    auto timed = attachArrivals(reqs, process, 7);
    for (const auto &tr : timed) {
        double pos = std::fmod(tr.arrivalSeconds, 2.0);
        EXPECT_LE(pos, 1.0 + 1e-9) << tr.arrivalSeconds;
    }
}

TEST(RateCurve, NonRepeatTailExtendsForever)
{
    // Non-repeating {silent 5 s, 2 req/s}: nothing before 5 s, and
    // the last segment keeps producing arrivals past its end.
    auto reqs = flatRequests(64);
    RateCurve curve;
    curve.segments = {{5.0, 0.0}, {1.0, 2.0}};
    curve.repeat = false;
    PiecewiseRateCurve process(curve);
    auto timed = attachArrivals(reqs, process, 9);
    EXPECT_GE(timed.front().arrivalSeconds, 5.0);
    EXPECT_GT(timed.back().arrivalSeconds, 6.0);
}

TEST(RateCurve, InvalidCurvesDie)
{
    RateCurve all_zero = RateCurve::fromRates({0.0, 0.0}, 1.0);
    EXPECT_DEATH(PiecewiseRateCurve{all_zero}, "positive rate");
    RateCurve zero_tail = RateCurve::fromRates({1.0, 0.0}, 1.0);
    zero_tail.repeat = false;
    EXPECT_DEATH(PiecewiseRateCurve{zero_tail}, "positive");
}

// --- Length sources. ----------------------------------------------------

TEST(LengthHistogram, FromFileSamplesWeightedBins)
{
    const char *path = "LENGTH_HIST_TEST.tmp";
    {
        std::ofstream os(path);
        os << "# prompt decode [weight]\n"
           << "1000 16 3\n"
           << "4000 64 1\n";
    }
    LengthHistogram hist = LengthHistogram::fromFile(path);
    std::remove(path);
    Rng rng(5);
    std::size_t small = 0, large = 0;
    const std::size_t kDraws = 4000;
    for (std::size_t i = 0; i < kDraws; ++i) {
        LengthPair p = hist.sample(rng);
        if (p.promptTokens == 1000 && p.decodeTokens == 16)
            ++small;
        else if (p.promptTokens == 4000 && p.decodeTokens == 64)
            ++large;
        else
            FAIL() << "sample outside the histogram bins";
    }
    // 3:1 weights; binomial noise over 4000 draws stays well inside
    // +-5 percentage points.
    EXPECT_NEAR(static_cast<double>(small) / kDraws, 0.75, 0.05);
    EXPECT_GT(large, 0u);
}

TEST(LengthHistogram, FromFileErrorPathsNameFileAndLine)
{
    const char *path = "LENGTH_HIST_BAD_TEST.tmp";
    auto write = [&](const char *text) {
        std::ofstream os(path, std::ios::trunc);
        os << text;
    };
    // Truncated row: a prompt with no decode column.
    write("1000 16 2\n4000\n");
    EXPECT_DEATH(LengthHistogram::fromFile(path),
                 "LENGTH_HIST_BAD_TEST.tmp:2: expected");
    // Non-numeric where a number is required.
    write("1000 sixteen\n");
    EXPECT_DEATH(LengthHistogram::fromFile(path),
                 "LENGTH_HIST_BAD_TEST.tmp:1: expected");
    // Non-numeric weight column.
    write("1000 16 heavy\n");
    EXPECT_DEATH(LengthHistogram::fromFile(path),
                 "LENGTH_HIST_BAD_TEST.tmp:1: bad weight");
    // Comments-only file: opens fine but yields no bins.
    write("# nothing here\n\n");
    EXPECT_DEATH(LengthHistogram::fromFile(path), "has no bins");
    std::remove(path);
    EXPECT_DEATH(LengthHistogram::fromFile(path),
                 "cannot open length histogram");
}

// --- WorkloadSpec: bit-identity with the legacy composition. ------------

TEST(WorkloadSpec, TableTaskPoissonMatchesFreeFunctions)
{
    const std::uint64_t seed = 77;
    WorkloadSpec spec;
    spec.count = 96;
    spec.length.kind = LengthSourceKind::TableTask;
    spec.length.task = TraceTask::QMSum;
    spec.length.decodeTokens = 32;
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 2.0;
    BuiltWorkload built = buildWorkload(spec, seed);
    EXPECT_TRUE(built.sessions.empty());

    TraceGenerator gen(TraceTask::QMSum, workloadLengthSeed(seed));
    auto legacy = poissonArrivals(gen.generate(96, 32), 2.0,
                                  workloadArrivalSeed(seed));
    ASSERT_EQ(built.initial.size(), legacy.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(built.initial[i].request.id, legacy[i].request.id);
        EXPECT_EQ(built.initial[i].request.contextTokens,
                  legacy[i].request.contextTokens);
        EXPECT_EQ(built.initial[i].request.decodeTokens,
                  legacy[i].request.decodeTokens);
        EXPECT_EQ(built.initial[i].arrivalSeconds,
                  legacy[i].arrivalSeconds);
    }
}

TEST(WorkloadSpec, PairsGammaAndOnOffMatchFreeFunctions)
{
    const std::uint64_t seed = 101;
    std::vector<LengthPair> pairs = {{1000, 16}, {2000, 32}, {500, 8}};
    std::vector<Request> legacy_reqs;
    for (RequestId i = 0; i < 64; ++i) {
        const LengthPair &p = pairs[i % pairs.size()];
        legacy_reqs.push_back({i, p.promptTokens, p.decodeTokens});
    }

    WorkloadSpec spec;
    spec.count = 64;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = pairs;
    spec.arrival.kind = ArrivalKind::Gamma;
    spec.arrival.ratePerSecond = 3.0;
    spec.arrival.cv = 2.0;
    expectSameArrivals(buildWorkload(spec, seed).initial,
                       gammaArrivals(legacy_reqs, 3.0, 2.0,
                                     workloadArrivalSeed(seed)));

    spec.arrival.kind = ArrivalKind::OnOff;
    spec.arrival.onOff.onRate = 5.0;
    spec.arrival.onOff.offRate = 0.0;
    spec.arrival.onOff.meanOnSeconds = 1.0;
    spec.arrival.onOff.meanOffSeconds = 2.0;
    expectSameArrivals(buildWorkload(spec, seed).initial,
                       onOffArrivals(legacy_reqs, spec.arrival.onOff,
                                     workloadArrivalSeed(seed)));
}

TEST(WorkloadSpec, ClassesAssignedCyclically)
{
    RequestClass a, b;
    a.tier = 0;
    a.tenant = 0;
    b.tier = 1;
    b.tenant = 1;
    WorkloadSpec spec;
    spec.count = 10;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{1000, 16}};
    spec.arrival.kind = ArrivalKind::Immediate;
    spec.classes = {a, b};
    BuiltWorkload built = buildWorkload(spec, 1);
    ASSERT_EQ(built.initial.size(), 10u);
    for (const auto &tr : built.initial)
        EXPECT_TRUE(tr.request.cls ==
                    (tr.request.id % 2 == 0 ? a : b))
            << tr.request.id;
}

TEST(WorkloadSpec, SessionsGrowHistoryAndChainTurns)
{
    WorkloadSpec spec;
    spec.count = 4;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{1000, 50}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 1.0;
    spec.session.turns = 3;
    spec.session.thinkMeanSeconds = 2.0;
    BuiltWorkload built = buildWorkload(spec, 13);

    // 4 sessions: one turn-0 arrival each, two successors each.
    ASSERT_EQ(built.initial.size(), 4u);
    ASSERT_EQ(built.sessions.size(), 8u);
    for (const auto &tr : built.initial) {
        EXPECT_EQ(tr.request.turn, 0u);
        EXPECT_NE(tr.request.session, kNoSession);
        EXPECT_EQ(tr.request.contextTokens, 1000u);
    }
    // Turn k's context carries the history: 1000, 2050, 3100.
    for (const auto &kv : built.sessions) {
        const Request &r = kv.second.request;
        EXPECT_EQ(kv.first + 1, r.id);
        EXPECT_GE(kv.second.thinkSeconds, 0.0);
        if (r.turn == 1)
            EXPECT_EQ(r.contextTokens, 2050u);
        else if (r.turn == 2)
            EXPECT_EQ(r.contextTokens, 3100u);
        else
            FAIL() << "unexpected successor turn " << r.turn;
    }

    // Pure function of (spec, seed): a rebuild is identical.
    BuiltWorkload again = buildWorkload(spec, 13);
    expectSameArrivals(built.initial, again.initial);
    ASSERT_EQ(built.sessions.size(), again.sessions.size());
    for (const auto &kv : built.sessions) {
        auto it = again.sessions.find(kv.first);
        ASSERT_NE(it, again.sessions.end());
        EXPECT_EQ(kv.second.request.contextTokens,
                  it->second.request.contextTokens);
        EXPECT_EQ(kv.second.thinkSeconds, it->second.thinkSeconds);
    }
}

// --- WorkloadSpec: pinned build output. ---------------------------------

/** FNV-1a over field values, so struct padding never enters the hash. */
class Fnv1a
{
  public:
    template <typename T>
    void
    add(T v)
    {
        const auto *p = reinterpret_cast<const unsigned char *>(&v);
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            h_ ^= p[i];
            h_ *= 1099511628211ull;
        }
    }

    void
    add(const Request &r)
    {
        add(r.id);
        add(r.contextTokens);
        add(r.decodeTokens);
        add(r.cls.tier);
        add(r.cls.gapSloSeconds);
        add(r.cls.tenant);
        add(r.cls.weight);
        add(r.session);
        add(r.turn);
        add(r.prefixHash);
        add(r.prefixTokens);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Every field of the initial trace, then of the book in key order. */
std::string
builtDigest(const BuiltWorkload &built)
{
    Fnv1a h;
    h.add(built.initial.size());
    for (const TimedRequest &t : built.initial) {
        h.add(t.request);
        h.add(t.arrivalSeconds);
    }
    std::vector<RequestId> keys;
    for (const auto &kv : built.sessions)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    h.add(keys.size());
    for (RequestId k : keys) {
        const SessionTurn &turn = built.sessions.at(k);
        h.add(k);
        h.add(turn.request);
        h.add(turn.thinkSeconds);
    }
    return h.hex();
}

TEST(WorkloadSpec, BuildDigestsArePinned)
{
    // Recorded once and never edited: the *MatchFreeFunctions tests
    // compare buildWorkload with the generators it is built from, so
    // a change to a generator moves both sides. These constants catch
    // it. The three specs are small versions of the perfbench shapes.
    WorkloadSpec task_poisson;
    task_poisson.count = 256;
    task_poisson.length.task = TraceTask::QMSum;
    task_poisson.length.decodeTokens = 128;
    task_poisson.arrival.kind = ArrivalKind::Poisson;
    task_poisson.arrival.ratePerSecond = 2.0;
    EXPECT_EQ(builtDigest(buildWorkload(task_poisson, 1)), "e0411511b8c68fee");

    WorkloadSpec histogram_classes;
    histogram_classes.count = 256;
    histogram_classes.length.kind = LengthSourceKind::Histogram;
    histogram_classes.length.histogram.add(30000, 48, 1.0);
    histogram_classes.length.histogram.add(2000, 48, 3.0);
    histogram_classes.arrival.kind = ArrivalKind::Poisson;
    histogram_classes.arrival.ratePerSecond = 100.0;
    for (unsigned i = 0; i < 4; ++i) {
        RequestClass cls;
        cls.tier = i % 2;
        cls.gapSloSeconds = cls.tier == 0 ? 50e-3 : 500e-3;
        cls.tenant = (i / 2) % 2;
        histogram_classes.classes.push_back(cls);
    }
    EXPECT_EQ(builtDigest(buildWorkload(histogram_classes, 1)), "1f62a33ce1b1270a");

    WorkloadSpec sessions;
    sessions.count = 64;
    sessions.length.task = TraceTask::QMSum;
    sessions.length.decodeTokens = 64;
    sessions.arrival.kind = ArrivalKind::Poisson;
    sessions.arrival.ratePerSecond = 1.0;
    sessions.session.turns = 4;
    sessions.session.thinkMeanSeconds = 2.0;
    sessions.session.carryHistory = true;
    sessions.prefix.share = 0.8;
    sessions.prefix.pool = 16;
    sessions.prefix.tokens = 2048;
    EXPECT_EQ(builtDigest(buildWorkload(sessions, 1)), "1b95194e86b8a7fa");
}

// --- Trace replay round trip. -------------------------------------------

TEST(Replay, SaveLoadRoundTripIsExact)
{
    RequestClass cls;
    cls.tier = 1;
    cls.gapSloSeconds = 0.25;
    cls.tenant = 3;
    WorkloadSpec spec;
    spec.count = 6;
    spec.length.kind = LengthSourceKind::TableTask;
    spec.length.task = TraceTask::Musique;
    spec.length.decodeTokens = 24;
    spec.arrival.kind = ArrivalKind::RateCurve;
    spec.arrival.curve = RateCurve::fromRates({1.0, 0.3}, 4.0);
    spec.classes = {RequestClass{}, cls};
    spec.session.turns = 3;
    spec.session.thinkMeanSeconds = 1.5;
    BuiltWorkload built = buildWorkload(spec, 55);

    const char *path = "REPLAY_ROUNDTRIP_TEST.tmp";
    saveWorkload(path, built);
    BuiltWorkload loaded = loadWorkload(path);
    std::remove(path);

    ASSERT_EQ(loaded.initial.size(), built.initial.size());
    for (std::size_t i = 0; i < built.initial.size(); ++i) {
        const TimedRequest &a = built.initial[i];
        const TimedRequest &b = loaded.initial[i];
        EXPECT_EQ(a.request.id, b.request.id);
        EXPECT_EQ(a.request.contextTokens, b.request.contextTokens);
        EXPECT_EQ(a.request.decodeTokens, b.request.decodeTokens);
        EXPECT_EQ(a.request.session, b.request.session);
        EXPECT_EQ(a.request.turn, b.request.turn);
        EXPECT_TRUE(a.request.cls == b.request.cls);
        EXPECT_EQ(a.arrivalSeconds, b.arrivalSeconds);
    }
    ASSERT_EQ(loaded.sessions.size(), built.sessions.size());
    for (const auto &kv : built.sessions) {
        auto it = loaded.sessions.find(kv.first);
        ASSERT_NE(it, loaded.sessions.end()) << kv.first;
        const Request &a = kv.second.request;
        const Request &b = it->second.request;
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.contextTokens, b.contextTokens);
        EXPECT_EQ(a.decodeTokens, b.decodeTokens);
        EXPECT_EQ(a.session, b.session);
        EXPECT_EQ(a.turn, b.turn);
        EXPECT_TRUE(a.cls == b.cls);
        EXPECT_EQ(kv.second.thinkSeconds, it->second.thinkSeconds);
    }
}

TEST(Replay, LoadReportsFileLineColumnOnMalformedInput)
{
    const char *path = "REPLAY_BAD_TEST.tmp";
    auto write = [&](const char *text) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text;
    };
    // Empty file: not even a top-level object.
    write("");
    EXPECT_DEATH(loadWorkload(path),
                 "REPLAY_BAD_TEST.tmp:1:1: bad trace file: "
                 "expected top-level object \\(at byte 0\\)");
    // Truncated mid-object: the file ends inside a request entry.
    write("{\"format\": \"pimphony-trace-v1\",\n"
          " \"requests\": [\n"
          "   {\"id\": 0, \"context\": 100,");
    EXPECT_DEATH(loadTrace(path),
                 "REPLAY_BAD_TEST.tmp:3:.*expected string");
    // Non-numeric field value.
    write("{\"format\": \"pimphony-trace-v1\",\n"
          " \"requests\": [{\"id\": x}]}");
    EXPECT_DEATH(loadTrace(path),
                 "REPLAY_BAD_TEST.tmp:2:.*expected number");
    std::remove(path);
    EXPECT_DEATH(loadTrace(path), "cannot open trace");
}

// --- Sorted-arrival guard. ----------------------------------------------

TEST(Arrivals, RequireSortedAcceptsSortedAndDiesOnUnsorted)
{
    auto reqs = flatRequests(16);
    auto timed = poissonArrivals(reqs, 2.0, 3);
    requireSortedByArrival(timed, "test");
    std::swap(timed.front().arrivalSeconds,
              timed.back().arrivalSeconds);
    EXPECT_DEATH(requireSortedByArrival(timed, "test"),
                 "arrivals out of order");
}

TEST(Arrivals, RequireSortedReportsIndexIdsAndTimestamps)
{
    // The failure message must identify the first out-of-order
    // position and both offending entries, so a bad hand-built
    // trace is diagnosable from the log line alone.
    std::vector<TimedRequest> timed = {{{7, 100, 8}, 2.0},
                                       {{3, 100, 8}, 1.0}};
    EXPECT_DEATH(requireSortedByArrival(timed, "ctx"),
                 "ctx: arrivals out of order at index 1 "
                 "\\(request 3 at 1 after request 7 at 2\\)");
}

TEST(Arrivals, SortByArrivalLeavesSortedTiesInPlace)
{
    // Ties in id-descending order: a sort keyed on anything but the
    // arrival time, or an unstable one, would reorder them.
    std::vector<TimedRequest> timed = {{{5, 100, 8}, 1.0},
                                       {{2, 100, 8}, 1.0},
                                       {{9, 100, 8}, 2.0},
                                       {{1, 100, 8}, 2.0},
                                       {{7, 100, 8}, 3.0}};
    sortByArrival(timed);
    const RequestId expected[] = {5, 2, 9, 1, 7};
    for (std::size_t i = 0; i < timed.size(); ++i)
        EXPECT_EQ(timed[i].request.id, expected[i]) << i;
}

TEST(Arrivals, SortByArrivalSortsUnsortedTiesStably)
{
    // 64 requests over 5 distinct times: long enough that an unstable
    // sort (introsort past its insertion-sort cutoff) reorders ties.
    std::vector<TimedRequest> timed;
    for (RequestId i = 0; i < 64; ++i)
        timed.push_back({{i, 100, 8}, static_cast<double>((i * 7) % 5)});
    sortByArrival(timed);
    requireSortedByArrival(timed, "test");
    for (std::size_t i = 1; i < timed.size(); ++i) {
        if (timed[i].arrivalSeconds == timed[i - 1].arrivalSeconds) {
            EXPECT_LT(timed[i - 1].request.id, timed[i].request.id) << i;
        }
    }
}

TEST(ArrivalsDeathTest, RequireSortedRejectsNaNArrival)
{
    // NaN compares false both ways, so an order check alone lets it
    // through anywhere in the trace.
    std::vector<TimedRequest> timed = {{{0, 100, 8}, 1.0},
                                       {{4, 100, 8}, std::nan("")},
                                       {{2, 100, 8}, 3.0}};
    EXPECT_DEATH(requireSortedByArrival(timed, "ctx"),
                 "ctx: arrivalSeconds of request 4 at index 1 is NaN");
}

// --- Non-finite workload parameters. -------------------------------------

TEST(WorkloadSpecDeathTest, NonFiniteArrivalRateIsFatal)
{
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(PoissonProcess{nan}, "ratePerSecond must be finite");
    EXPECT_DEATH(PoissonProcess{inf}, "ratePerSecond must be finite");
    EXPECT_DEATH((GammaProcess{nan, 1.0}),
                 "ratePerSecond must be finite");
    EXPECT_DEATH((GammaProcess{inf, 1.0}),
                 "ratePerSecond must be finite");

    WorkloadSpec spec;
    spec.count = 8;
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = nan;
    EXPECT_DEATH(buildWorkload(spec, 1), "ratePerSecond must be finite");
}

TEST(WorkloadSpecDeathTest, NonFiniteGammaCvIsFatal)
{
    EXPECT_DEATH((GammaProcess{1.0, std::nan("")}),
                 "cv must be finite");
    EXPECT_DEATH(
        (GammaProcess{1.0, std::numeric_limits<double>::infinity()}),
        "cv must be finite");
}

TEST(WorkloadSpecDeathTest, NonFiniteThinkTimeIsFatal)
{
    WorkloadSpec spec;
    spec.count = 4;
    spec.session.turns = 2;
    spec.session.thinkMeanSeconds = std::nan("");
    EXPECT_DEATH(buildWorkload(spec, 1),
                 "session.thinkMeanSeconds must be finite");
    spec.session.thinkMeanSeconds =
        std::numeric_limits<double>::infinity();
    EXPECT_DEATH(buildWorkload(spec, 1),
                 "session.thinkMeanSeconds must be finite");
    spec.session.thinkMeanSeconds = -1.0;
    EXPECT_DEATH(buildWorkload(spec, 1),
                 "session.thinkMeanSeconds must be finite and >= 0");
}

TEST(WorkloadSpecDeathTest, TableTaskZeroDecodeTokensIsFatal)
{
    WorkloadSpec spec;
    spec.count = 4;
    spec.length.decodeTokens = 0;
    EXPECT_DEATH(buildWorkload(spec, 1),
                 "must decode at least one token");
}

TEST(Trace, NamesAndSuites)
{
    EXPECT_EQ(traceTaskName(TraceTask::QMSum), "QMSum");
    EXPECT_STREQ(traceTaskStats(TraceTask::QMSum).suite, "LongBench");
    EXPECT_STREQ(traceTaskStats(TraceTask::LoogleSd).suite, "LV-Eval");
    EXPECT_EQ(allTraceTasks().size(), 4u);
}

} // namespace
} // namespace pimphony
