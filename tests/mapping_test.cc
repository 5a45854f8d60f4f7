/**
 * @file
 * Mapping tests: HFP assignment balance, TCP slicing, full-activation
 * thresholds, micro-batch planning, and all-reduce cost.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "mapping/parallel.hh"
#include "mapping/partition.hh"

namespace pimphony {
namespace {

std::vector<AttentionJob>
makeJobs(std::initializer_list<Tokens> tokens)
{
    std::vector<AttentionJob> jobs;
    RequestId id = 0;
    for (Tokens t : tokens)
        jobs.push_back({id++, 0, t});
    return jobs;
}

TEST(Hfp, FewerJobsThanChannelsLeavesIdle)
{
    auto assignment = assignHfp(makeJobs({1000, 2000}), 8);
    int active = 0;
    for (const auto &ch : assignment)
        if (!ch.empty())
            ++active;
    EXPECT_EQ(active, 2);
}

TEST(Hfp, ImbalancedJobsBoundTheMakespan)
{
    // One long request dominates; LPT cannot fix inherent imbalance.
    auto assignment = assignHfp(makeJobs({30000, 3000, 3000, 3000}), 4);
    Tokens max_load = 0, min_load = ~Tokens{0};
    for (const auto &ch : assignment) {
        Tokens load = 0;
        for (const auto &j : ch)
            load += j.tokens;
        max_load = std::max(max_load, load);
        min_load = std::min(min_load, load);
    }
    EXPECT_EQ(max_load, 30000u);
    EXPECT_EQ(min_load, 3000u);
}

TEST(Hfp, LptBalancesManyEqualJobs)
{
    std::vector<AttentionJob> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.push_back({static_cast<RequestId>(i), 0, 4096});
    auto assignment = assignHfp(jobs, 16);
    for (const auto &ch : assignment)
        EXPECT_EQ(ch.size(), 4u);
}

TEST(Hfp, AllJobsAssignedExactlyOnce)
{
    auto jobs = makeJobs({5, 10, 15, 20, 25, 30, 35});
    auto assignment = assignHfp(jobs, 3);
    std::size_t total = 0;
    for (const auto &ch : assignment)
        total += ch.size();
    EXPECT_EQ(total, jobs.size());
}

TEST(Tcp, SliceIsCeilDivision)
{
    AttentionJob job{0, 0, 16384};
    EXPECT_EQ(tcpSliceTokens(job, 16), 1024u);
    job.tokens = 16385;
    EXPECT_EQ(tcpSliceTokens(job, 16), 1025u);
    job.tokens = 5;
    EXPECT_EQ(tcpSliceTokens(job, 16), 1u);
}

TEST(Tcp, FullActivationThresholdMatchesPaper)
{
    // "full channel activation once the token length exceeds 256 for
    //  QKT" on a 16-channel module.
    EXPECT_EQ(tcpFullActivationTokens(16), 256u);
}

TEST(AllReduce, ZeroForSingleModule)
{
    EXPECT_DOUBLE_EQ(allReduceSeconds(1_MiB, 1, 64e9, 1e-6), 0.0);
}

TEST(AllReduce, GrowsWithGroupAndBytes)
{
    double t2 = allReduceSeconds(1_MiB, 2, 64e9, 1e-6);
    double t8 = allReduceSeconds(1_MiB, 8, 64e9, 1e-6);
    EXPECT_GT(t8, t2);
    double big = allReduceSeconds(64_MiB, 8, 64e9, 1e-6);
    EXPECT_GT(big, t8);
}

TEST(Names, RoundTrip)
{
    EXPECT_EQ((ParallelPlan{4, 2}.toString()), "(TP=4,PP=2)");
    EXPECT_EQ((ParallelPlan{4, 2}.modules()), 8u);
}

} // namespace
} // namespace pimphony
