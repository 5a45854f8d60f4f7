/**
 * @file
 * Kernel generator tests: structural validity of GEMV / QK^T / SV
 * streams across geometry sweeps, command-count accounting, reuse
 * behaviour, mapping effects on row activations, and the kernel
 * cache.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/units.hh"
#include "kernels/attention.hh"
#include "kernels/gemv.hh"
#include "kernels/kernel_sim.hh"

namespace pimphony {
namespace {

std::size_t
countKind(const CommandStream &s, CommandKind kind)
{
    return std::count_if(s.commands().begin(), s.commands().end(),
                         [kind](const PimCommand &c) {
                             return c.kind == kind;
                         });
}

AimTimingParams
baselineParams()
{
    return AimTimingParams::aimx(); // outputEntries = 1
}

AimTimingParams
pimphonyParams()
{
    return AimTimingParams::aimxWithObuf(16);
}

TEST(GemvSpec, FromDimsRoundsUp)
{
    auto s = GemvSpec::fromDims(100, 100);
    EXPECT_EQ(s.doutGroups, 7u);
    EXPECT_EQ(s.dinTiles, 7u);
}

TEST(GemvStream, ResidentCaseCounts)
{
    // din 1024 (64 tiles, exactly resident), dout 256 (16 groups).
    auto params = pimphonyParams();
    auto spec = GemvSpec::fromDims(256, 1024);
    auto s = expandProgram(buildGemvProgram(spec, params));
    EXPECT_EQ(s.validate(params.gbufEntries, params.outputEntries), "");
    EXPECT_EQ(countKind(s, CommandKind::WrInp), 64u);     // once
    EXPECT_EQ(countKind(s, CommandKind::Mac), 64u * 16u); // full
    EXPECT_EQ(countKind(s, CommandKind::RdOut), 16u);     // per group
    EXPECT_EQ(gemvPartialReductions(spec, params), 0u);
}

TEST(GemvStream, StreamingAccumulateInPlace)
{
    // din 4096 (256 tiles > GBuf), dout 128 (8 groups <= 16 OBuf):
    // inputs streamed once, outputs accumulate in place.
    auto params = pimphonyParams();
    auto spec = GemvSpec::fromDims(128, 4096);
    auto s = expandProgram(buildGemvProgram(spec, params));
    EXPECT_EQ(s.validate(params.gbufEntries, params.outputEntries), "");
    EXPECT_EQ(countKind(s, CommandKind::WrInp), 256u);
    EXPECT_EQ(countKind(s, CommandKind::Mac), 256u * 8u);
    EXPECT_EQ(countKind(s, CommandKind::RdOut), 8u);
    EXPECT_EQ(gemvPartialReductions(spec, params), 0u);
}

TEST(GemvStream, PartialDrainWhenOutputsExceedObuf)
{
    // din 4096, dout 4096 (256 groups > OBuf): partial drains.
    auto params = pimphonyParams();
    auto spec = GemvSpec::fromDims(4096, 4096);
    auto s = expandProgram(buildGemvProgram(spec, params));
    EXPECT_EQ(s.validate(params.gbufEntries, params.outputEntries), "");
    EXPECT_EQ(countKind(s, CommandKind::WrInp), 256u); // streamed once
    EXPECT_EQ(countKind(s, CommandKind::Mac), 256u * 256u);
    // 8 blocks x 256 groups partial drains.
    EXPECT_EQ(countKind(s, CommandKind::RdOut), 8u * 256u);
    EXPECT_EQ(gemvPartialReductions(spec, params), 7u * 256u);
}

class GemvGeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>>
{
};

TEST_P(GemvGeometrySweep, StreamsAlwaysValid)
{
    auto [dout, din, obuf, pingpong] = GetParam();
    AimTimingParams params = AimTimingParams::aimxWithObuf(
        static_cast<unsigned>(obuf));
    auto spec = GemvSpec::fromDims(static_cast<std::uint64_t>(dout),
                                   static_cast<std::uint64_t>(din));
    auto s = expandProgram(buildGemvProgram(spec, params, pingpong));
    ASSERT_EQ(s.validate(params.gbufEntries, params.outputEntries), "");
    // Exact MAC count: every (group, tile) pair exactly once.
    EXPECT_EQ(countKind(s, CommandKind::Mac),
              static_cast<std::uint64_t>(spec.doutGroups) * spec.dinTiles);
    if (pingpong) {
        for (const auto &c : s.commands())
            EXPECT_TRUE(c.region == 0 || c.region == 1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemvGeometrySweep,
    ::testing::Combine(::testing::Values(16, 128, 1024, 4096),
                       ::testing::Values(128, 1024, 4096),
                       ::testing::Values(1, 4, 16),
                       ::testing::Bool()));

TEST(QktStream, MacCountMatchesShape)
{
    auto params = pimphonyParams();
    AttentionSpec spec;
    spec.tokens = 4096;
    spec.headDim = 128;
    spec.gqaGroup = 4;
    for (bool row_reuse : {true, false}) {
        spec.rowReuse = row_reuse;
        auto s = expandProgram(buildQktProgram(spec, params));
        ASSERT_EQ(s.validate(params.gbufEntries, params.outputEntries),
                  "");
        // (tokens/16) token groups x (dh/16) tiles x g queries.
        EXPECT_EQ(countKind(s, CommandKind::Mac), 256u * 8u * 4u);
        // One score group per (query, token group).
        EXPECT_EQ(countKind(s, CommandKind::RdOut), 256u * 4u);
    }
}

TEST(QktStream, ResidentQueriesWriteOnce)
{
    auto params = pimphonyParams();
    AttentionSpec spec;
    spec.tokens = 4096;
    spec.headDim = 128;
    spec.gqaGroup = 4; // 32 tiles <= half GBuf: resident
    spec.rowReuse = true;
    auto s = expandProgram(buildQktProgram(spec, params));
    EXPECT_EQ(countKind(s, CommandKind::WrInp), 4u * 8u);
}

TEST(QktStream, LargeGqaSwapsQueriesPerRowChunk)
{
    auto params = pimphonyParams();
    AttentionSpec spec;
    spec.tokens = 4096;
    spec.headDim = 128;
    spec.gqaGroup = 8; // 64 tiles > half GBuf: swap per chunk
    spec.rowReuse = true;
    auto s = expandProgram(buildQktProgram(spec, params));
    // Row chunks = (256 tg x 8 tiles) / 64 macs-per-row = 32; per
    // chunk all 8 queries re-stream 8 tiles each.
    EXPECT_EQ(countKind(s, CommandKind::WrInp), 32u * 8u * 8u);
    EXPECT_EQ(s.validate(params.gbufEntries, params.outputEntries), "");
}

TEST(QktStream, InputReuseReactivatesRowsPerQuery)
{
    auto params = pimphonyParams();
    AttentionSpec spec;
    spec.tokens = 8192;
    spec.headDim = 128;
    spec.gqaGroup = 8;

    spec.rowReuse = true;
    auto rr = simulateKernel(KernelRequest::makeQkt(spec,
                                                    SchedulerKind::Dcs),
                             params);
    spec.rowReuse = false;
    auto ir = simulateKernel(KernelRequest::makeQkt(spec,
                                                    SchedulerKind::Dcs),
                             params);
    // Input-reuse replays every row per query: ~g times the
    // activates of row-reuse.
    EXPECT_GE(ir.activates, rr.activates * 7);
    // Row-reuse instead pays WR-INP traffic.
    EXPECT_GT(rr.wrInpCount, ir.wrInpCount);
}

TEST(SvStream, CountsAndValidity)
{
    auto params = pimphonyParams();
    AttentionSpec spec;
    spec.tokens = 4096;
    spec.headDim = 128;
    spec.gqaGroup = 2;
    for (bool row_reuse : {true, false}) {
        spec.rowReuse = row_reuse;
        auto s = expandProgram(buildSvProgram(spec, params));
        ASSERT_EQ(s.validate(params.gbufEntries, params.outputEntries),
                  "");
        EXPECT_EQ(countKind(s, CommandKind::Mac), 256u * 8u * 2u);
        EXPECT_GT(countKind(s, CommandKind::WrInp), 0u);
    }
}

TEST(SvStream, BaselineSingleOutRegDrainsEveryRun)
{
    auto params = baselineParams(); // outputEntries = 1
    AttentionSpec spec;
    spec.tokens = 1024;
    spec.headDim = 128;
    spec.gqaGroup = 1;
    spec.rowReuse = true;
    auto s = expandProgram(buildSvProgram(spec, params));
    EXPECT_EQ(s.validate(params.gbufEntries, params.outputEntries), "");
    // Every (chunk, j) partial drains: chunks = 64 tg / 8 = 8, j = 8.
    EXPECT_EQ(countKind(s, CommandKind::RdOut), 8u * 8u);
}

TEST(SvStream, DrainBatchesStayConsecutiveAtOddHeadDims)
{
    // Five dim groups per query over 16 output entries: query 3's
    // groups land on entries 15, 0, 1, 2, 3, so its drains split into
    // two RD-OUT instructions, each over consecutive entries.
    auto params = AimTimingParams::aimxWithObuf(16);
    AttentionSpec spec;
    spec.tokens = 1024;
    spec.headDim = 80;
    spec.gqaGroup = 4;
    spec.rowReuse = true;
    auto program = buildSvProgram(spec, params);
    for (const PimInstruction &i : program) {
        if (i.kind != CommandKind::RdOut)
            continue;
        EXPECT_LE(i.outIdx + static_cast<std::int32_t>(i.opSize), 16);
    }
    auto s = expandProgram(program);
    EXPECT_EQ(s.validate(params.gbufEntries, params.outputEntries), "");
    EXPECT_EQ(countKind(s, CommandKind::Mac), 64u * 5u * 4u);
}

class AttentionSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, bool, bool, int>>
{
};

TEST_P(AttentionSweep, AllStreamsValid)
{
    auto [tokens, gqa, row_reuse, pingpong, obuf] = GetParam();
    AimTimingParams params =
        AimTimingParams::aimxWithObuf(static_cast<unsigned>(obuf));
    AttentionSpec spec;
    spec.tokens = static_cast<Tokens>(tokens);
    spec.headDim = 128;
    spec.gqaGroup = static_cast<std::uint32_t>(gqa);
    spec.rowReuse = row_reuse;

    auto qkt = expandProgram(buildQktProgram(spec, params, pingpong));
    ASSERT_EQ(qkt.validate(params.gbufEntries, params.outputEntries),
              "")
        << "qkt tokens=" << tokens << " g=" << gqa;
    auto sv = expandProgram(buildSvProgram(spec, params, pingpong));
    ASSERT_EQ(sv.validate(params.gbufEntries, params.outputEntries), "")
        << "sv tokens=" << tokens << " g=" << gqa;

    std::uint64_t tg = ceilDiv<std::uint64_t>(
        static_cast<std::uint64_t>(tokens), 16);
    EXPECT_EQ(countKind(qkt, CommandKind::Mac),
              tg * 8u * static_cast<std::uint64_t>(gqa));
    EXPECT_EQ(countKind(sv, CommandKind::Mac),
              tg * 8u * static_cast<std::uint64_t>(gqa));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AttentionSweep,
    ::testing::Combine(::testing::Values(16, 100, 1024, 16384),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 16)));

TEST(KernelSim, DcsFasterThanStaticOnAttention)
{
    auto params = pimphonyParams();
    AttentionSpec spec;
    spec.tokens = 16384;
    spec.headDim = 128;
    spec.gqaGroup = 4;
    spec.rowReuse = true;
    auto st = simulateKernel(
        KernelRequest::makeQkt(spec, SchedulerKind::Static), params);
    auto dc = simulateKernel(
        KernelRequest::makeQkt(spec, SchedulerKind::Dcs), params);
    EXPECT_LT(dc.makespan, st.makespan);
    EXPECT_GT(dc.macUtilization, st.macUtilization);
}

TEST(KernelSim, LatencyMonotoneInTokens)
{
    auto params = pimphonyParams();
    AttentionSpec spec;
    spec.headDim = 128;
    spec.gqaGroup = 2;
    spec.rowReuse = true;
    Cycle prev = 0;
    for (Tokens t : {1024u, 2048u, 4096u, 8192u, 16384u}) {
        spec.tokens = t;
        auto r = simulateKernel(
            KernelRequest::makeSv(spec, SchedulerKind::Dcs), params);
        EXPECT_GT(r.makespan, prev) << "tokens " << t;
        prev = r.makespan;
    }
}

TEST(BucketTokens, MonotoneAndBounded)
{
    Tokens prev = 0;
    for (Tokens t = 1; t < 2000000; t = t * 3 / 2 + 7) {
        Tokens b = bucketTokens(t);
        EXPECT_GE(b, t);
        EXPECT_GE(b, prev); // monotone in t
        EXPECT_LE(static_cast<double>(b),
                  static_cast<double>(t) * 1.07 + 64.0);
        prev = b;
    }
}

TEST(KernelCache, HitsOnRepeatedRequests)
{
    auto params = pimphonyParams();
    KernelCache cache(params);
    AttentionSpec spec;
    spec.tokens = 2048;
    spec.headDim = 128;
    spec.gqaGroup = 2;
    auto req = KernelRequest::makeQkt(spec, SchedulerKind::Dcs);
    const auto &a = cache.get(req);
    const auto &b = cache.get(req);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_GT(a.makespan, 0u);
}

TEST(KernelCache, DistinguishesSchedulers)
{
    auto params = pimphonyParams();
    KernelCache cache(params);
    AttentionSpec spec;
    spec.tokens = 2048;
    spec.headDim = 128;
    auto st = cache.get(KernelRequest::makeQkt(spec,
                                               SchedulerKind::Static));
    auto dc = cache.get(KernelRequest::makeQkt(spec, SchedulerKind::Dcs));
    EXPECT_NE(st.makespan, dc.makespan);
    EXPECT_EQ(cache.entries(), 2u);
}

} // namespace
} // namespace pimphony
