/**
 * @file
 * Tests for the SweepRunner (common/parallel): the serial path at
 * threads == 1 is exactly the inline loop, a pooled run covers every
 * index once with results landing in submission order, exceptions
 * are captured per cell and rethrown first-in-submission-order, the
 * thread-count selection rules (explicit / 0 = hardware /
 * PIMPHONY_THREADS), and — the determinism contract the benches rely
 * on — a parallel engine sweep is bit-identical to the serial one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "result_eq.hh"
#include "system/engine.hh"
#include "workload/arrival.hh"

namespace pimphony {
namespace {

TEST(SweepRunner, SerialPathRunsInlineInSubmissionOrder)
{
    SweepRunner runner(1);
    EXPECT_EQ(runner.threads(), 1u);
    std::vector<std::size_t> order;
    auto caller = std::this_thread::get_id();
    runner.forEach(8, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SweepRunner, SerialPathPropagatesExceptionsDirectly)
{
    SweepRunner runner(1);
    std::size_t ran = 0;
    EXPECT_THROW(runner.forEach(8,
                                [&](std::size_t i) {
                                    ++ran;
                                    if (i == 3)
                                        throw std::runtime_error("cell 3");
                                }),
                 std::runtime_error);
    // Serial semantics: the loop stops at the throwing cell.
    EXPECT_EQ(ran, 4u);
}

TEST(SweepRunner, PoolCoversEveryIndexExactlyOnce)
{
    SweepRunner runner(4);
    EXPECT_EQ(runner.threads(), 4u);
    constexpr std::size_t n = 257;
    std::vector<std::atomic<int>> hits(n);
    runner.forEach(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(SweepRunner, PoolIsReusableAcrossCalls)
{
    SweepRunner runner(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<std::size_t> sum{0};
        runner.forEach(40, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 40u * 41u / 2u);
    }
}

TEST(SweepRunner, MapCollectsResultsInSubmissionOrder)
{
    // Early cells sleep longest, so completion order is roughly the
    // reverse of submission order — slots must still line up.
    SweepRunner runner(4);
    auto out = runner.map(12, [](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(12 - i));
        return i * i;
    });
    ASSERT_EQ(out.size(), 12u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, PoolRethrowsFirstExceptionInSubmissionOrder)
{
    SweepRunner runner(4);
    std::atomic<std::size_t> ran{0};
    try {
        runner.forEach(32, [&](std::size_t i) {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (i % 2 == 1)
                throw std::runtime_error("cell " + std::to_string(i));
        });
        FAIL() << "expected the sweep to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 1");
    }
    // A throwing cell never cancels its siblings.
    EXPECT_EQ(ran.load(), 32u);
}

TEST(SweepRunner, ZeroResolvesToHardwareThreads)
{
    EXPECT_GE(SweepRunner::hardwareThreads(), 1u);
    SweepRunner runner(0);
    EXPECT_EQ(runner.threads(), SweepRunner::hardwareThreads());
}

TEST(SweepRunner, DefaultThreadsFollowsEnvironment)
{
    ::unsetenv("PIMPHONY_THREADS");
    EXPECT_EQ(SweepRunner::defaultThreads(), 1u);
    ::setenv("PIMPHONY_THREADS", "3", 1);
    EXPECT_EQ(SweepRunner::defaultThreads(), 3u);
    ::setenv("PIMPHONY_THREADS", "0", 1);
    EXPECT_EQ(SweepRunner::defaultThreads(),
              SweepRunner::hardwareThreads());
    ::setenv("PIMPHONY_THREADS", "not-a-number", 1);
    EXPECT_EQ(SweepRunner::defaultThreads(), 1u);
    ::unsetenv("PIMPHONY_THREADS");
}

// --- The determinism contract the benches rely on. -------------------

EngineResult
runCell(Tokens ctx, double rate, std::uint64_t seed)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 8; ++i)
        reqs.push_back({i, ctx, 8});
    GammaProcess arrivals(rate, 3.0);
    auto timed = attachArrivals(reqs, arrivals, seed);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    return ServingEngine(cluster, model, timed, opts).run();
}

TEST(SweepRunner, ParallelEngineSweepIsBitIdenticalToSerial)
{
    const std::vector<Tokens> contexts = {4000, 12000, 20000, 28000};

    SweepRunner serial(1);
    auto base = serial.map(contexts.size(), [&](std::size_t i) {
        return runCell(contexts[i], 1.5, 17 + i);
    });

    SweepRunner pool(4);
    auto par = pool.map(contexts.size(), [&](std::size_t i) {
        return runCell(contexts[i], 1.5, 17 + i);
    });

    ASSERT_EQ(base.size(), par.size());
    for (std::size_t i = 0; i < base.size(); ++i)
        expectSameResult(base[i], par[i]);

    // Sanity: the per-cell seed actually matters, so the equality
    // above is not vacuous.
    auto other = runCell(contexts[0], 1.5, 1234);
    EXPECT_NE(other.simEvents, base[0].simEvents);
}

} // namespace
} // namespace pimphony
