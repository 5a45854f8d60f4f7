/**
 * @file
 * Functional dataflow verification: the generated command streams
 * must compute exactly the products their kernels' mathematics
 * require -- every (input tile, weight tile) pair exactly once, each
 * accumulated into the right logical output, across all buffer
 * geometries and mappings.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "kernels/attention.hh"
#include "kernels/dataflow.hh"
#include "kernels/gemv.hh"

namespace pimphony {
namespace {

// --- QK^T ------------------------------------------------------------

class QktDataflow
    : public ::testing::TestWithParam<std::tuple<int, int, bool, int>>
{
};

TEST_P(QktDataflow, EveryScoreComputedExactlyOnce)
{
    auto [tokens, gqa, row_reuse, obuf] = GetParam();
    AimTimingParams params =
        AimTimingParams::aimxWithObuf(static_cast<unsigned>(obuf));
    AttentionSpec spec;
    spec.tokens = static_cast<Tokens>(tokens);
    spec.headDim = 128;
    spec.gqaGroup = static_cast<std::uint32_t>(gqa);
    spec.rowReuse = row_reuse;

    auto stream = expandProgram(buildQktProgram(spec, params));
    auto drains = replayDataflow(stream, params);

    const unsigned q_tiles = 8;
    std::uint64_t token_groups = (spec.tokens + 15) / 16;

    // Every drain must be one complete score group: query q against
    // token group tg, i.e. products {(q*8+i, tg*8+i) : i in 0..7}.
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (const auto &d : drains) {
        ASSERT_EQ(d.products.size(), q_tiles);
        std::uint64_t q = static_cast<std::uint64_t>(
            d.products[0].src / static_cast<int>(q_tiles));
        std::uint64_t tg = d.products[0].pos / q_tiles;
        for (unsigned i = 0; i < q_tiles; ++i) {
            EXPECT_EQ(d.products[i].src,
                      static_cast<std::int32_t>(q * q_tiles + i));
            EXPECT_EQ(d.products[i].pos, tg * q_tiles + i);
        }
        EXPECT_TRUE(seen.insert({q, tg}).second)
            << "score group (" << q << "," << tg << ") computed twice";
    }
    // All (query, token-group) pairs covered.
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(gqa) * token_groups);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QktDataflow,
    ::testing::Combine(::testing::Values(64, 1000, 4096),
                       ::testing::Values(1, 4, 8), ::testing::Bool(),
                       ::testing::Values(1, 16)));

// --- SV ---------------------------------------------------------------

class SvDataflow
    : public ::testing::TestWithParam<std::tuple<int, int, bool, int>>
{
};

TEST_P(SvDataflow, PartialsTileTheTokenAxisExactly)
{
    auto [tokens, gqa, row_reuse, obuf] = GetParam();
    AimTimingParams params =
        AimTimingParams::aimxWithObuf(static_cast<unsigned>(obuf));
    AttentionSpec spec;
    spec.tokens = static_cast<Tokens>(tokens);
    spec.headDim = 128;
    spec.gqaGroup = static_cast<std::uint32_t>(gqa);
    spec.rowReuse = row_reuse;

    auto stream = expandProgram(buildSvProgram(spec, params));
    auto drains = replayDataflow(stream, params);

    const unsigned j_tiles = 8;
    std::uint64_t token_groups = (spec.tokens + 15) / 16;

    // Partial drains of logical output (q, j) must cover every token
    // group exactly once when unioned.
    std::map<std::pair<std::uint64_t, unsigned>,
             std::set<std::uint64_t>>
        coverage;
    for (const auto &d : drains) {
        ASSERT_FALSE(d.products.empty());
        unsigned j = static_cast<unsigned>(d.products[0].pos % j_tiles);
        std::uint64_t q = static_cast<std::uint64_t>(d.products[0].src) /
                          token_groups;
        auto &cov = coverage[{q, j}];
        for (const auto &p : d.products) {
            // Consistent output coordinates within one accumulation.
            EXPECT_EQ(p.pos % j_tiles, j);
            std::uint64_t tg_from_pos = p.pos / j_tiles;
            std::uint64_t tg_from_src =
                static_cast<std::uint64_t>(p.src) % token_groups;
            // The score tile and the V tile must belong to the same
            // token group -- the core SV dataflow invariant.
            EXPECT_EQ(tg_from_pos, tg_from_src);
            EXPECT_TRUE(cov.insert(tg_from_pos).second)
                << "token group accumulated twice into (q=" << q
                << ", j=" << j << ")";
        }
    }
    ASSERT_EQ(coverage.size(),
              static_cast<std::size_t>(gqa) * j_tiles);
    for (const auto &[key, cov] : coverage)
        EXPECT_EQ(cov.size(), token_groups)
            << "output (q=" << key.first << ", j=" << key.second
            << ") missing token groups";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvDataflow,
    ::testing::Combine(::testing::Values(64, 1000, 4096),
                       ::testing::Values(1, 2, 8), ::testing::Bool(),
                       ::testing::Values(1, 16)));

// --- GEMV --------------------------------------------------------------

class GemvDataflow
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemvDataflow, EveryWeightTileUsedOnceWithItsInput)
{
    auto [dout, din, obuf] = GetParam();
    AimTimingParams params =
        AimTimingParams::aimxWithObuf(static_cast<unsigned>(obuf));
    auto spec = GemvSpec::fromDims(static_cast<std::uint64_t>(dout),
                                   static_cast<std::uint64_t>(din));
    auto stream = expandProgram(buildGemvProgram(spec, params));
    auto drains = replayDataflow(stream, params);

    // Global invariants: each weight tile position read exactly once;
    // no accumulation multiplies the same input tile twice; totals
    // match doutGroups x dinTiles.
    std::set<std::uint64_t> positions;
    std::uint64_t total = 0;
    for (const auto &d : drains) {
        std::set<std::int32_t> srcs;
        for (const auto &p : d.products) {
            EXPECT_TRUE(positions.insert(p.pos).second)
                << "weight tile " << p.pos << " read twice";
            EXPECT_TRUE(srcs.insert(p.src).second)
                << "input tile " << p.src
                << " accumulated twice in one drain";
            EXPECT_LT(p.src, static_cast<std::int32_t>(spec.dinTiles));
        }
        total += d.products.size();
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(spec.doutGroups) *
                         spec.dinTiles);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemvDataflow,
    ::testing::Combine(::testing::Values(16, 128, 2048),
                       ::testing::Values(128, 1024, 4096),
                       ::testing::Values(1, 16)));

TEST(GemvDataflow, ResidentLayoutPairsInputWithItsColumn)
{
    // In the input-resident case, weight position g*dinTiles + k must
    // pair with input tile k -- the layout the row-reuse mapping
    // co-designs.
    AimTimingParams params = AimTimingParams::aimxWithObuf(16);
    auto spec = GemvSpec::fromDims(256, 512); // 32 tiles resident
    auto stream = expandProgram(buildGemvProgram(spec, params));
    for (const auto &d : replayDataflow(stream, params)) {
        for (const auto &p : d.products)
            EXPECT_EQ(static_cast<std::uint64_t>(p.src),
                      p.pos % spec.dinTiles);
    }
}

TEST(Dataflow, ReplayRejectsUnwrittenReads)
{
    AimTimingParams params;
    CommandStream s;
    s.append(PimCommand::mac(0, 0, 0, 0));
    EXPECT_DEATH(replayDataflow(s, params), "before any WR-INP");
}

TEST(Dataflow, ReplayRejectsUndrainedEnd)
{
    AimTimingParams params;
    CommandStream s;
    auto w = PimCommand::wrInp(0);
    w.src = 0;
    s.append(w);
    s.append(PimCommand::mac(0, 0, 0, 0));
    EXPECT_DEATH(replayDataflow(s, params), "un-drained");
}

} // namespace
} // namespace pimphony
