/**
 * @file
 * Compiler tests: decoder-graph construction, pattern matching of
 * PIM-amenable kernels, lowering to static vs DPA programs, and the
 * Fig. 10 footprint scaling.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/ir.hh"
#include "compiler/passes.hh"

namespace pimphony {
namespace {

TEST(Ir, DecoderLayerStructure)
{
    auto g = buildDecoderLayer(LlmConfig::llm7b(true));
    EXPECT_GT(g.size(), 20u);
    // Spot-check the attention core by node name.
    auto has = [&g](const char *name) {
        return std::any_of(g.nodes().begin(), g.nodes().end(),
                           [name](const IrNode &n) { return n.name == name; });
    };
    EXPECT_TRUE(has("qkt"));
    EXPECT_TRUE(has("softmax"));
    EXPECT_TRUE(has("sv"));
    EXPECT_TRUE(has("k_cache"));
}

TEST(Ir, UsersOfTracksEdges)
{
    auto g = buildDecoderLayer(LlmConfig::llm7b(false));
    for (const auto &n : g.nodes()) {
        if (n.name == "qkt") {
            auto users = g.usersOf(n.id);
            ASSERT_EQ(users.size(), 1u);
            EXPECT_EQ(g.node(users[0]).kind, OpKind::Softmax);
        }
    }
}

TEST(Patterns, FindsAllDecoderKernels)
{
    auto g = buildDecoderLayer(LlmConfig::llm7b(true));
    auto kernels = matchPimKernels(g);

    int qkt = 0, sv = 0, fc = 0;
    for (const auto &k : kernels) {
        switch (k.kernelClass) {
          case PimKernelClass::Qkt: ++qkt; break;
          case PimKernelClass::Sv:  ++sv; break;
          case PimKernelClass::Fc:  ++fc; break;
        }
    }
    EXPECT_EQ(qkt, 1);
    EXPECT_EQ(sv, 1);
    // Q, K, V, O, gate, up, down.
    EXPECT_EQ(fc, 7);
}

TEST(Patterns, QktHasTokenOutputSvHasTokenInput)
{
    auto g = buildDecoderLayer(LlmConfig::llm72b(true));
    for (const auto &k : matchPimKernels(g)) {
        if (k.kernelClass == PimKernelClass::Qkt) {
            EXPECT_TRUE(k.tokenDout);
            EXPECT_EQ(k.din, 128u);
        }
        if (k.kernelClass == PimKernelClass::Sv) {
            EXPECT_TRUE(k.tokenDin);
            EXPECT_EQ(k.dout, 128u);
        }
    }
}

TEST(Patterns, FcShapesMatchModel)
{
    auto model = LlmConfig::llm7b(false);
    auto g = buildDecoderLayer(model);
    bool saw_ffn_down = false;
    for (const auto &k : matchPimKernels(g)) {
        if (k.kernelClass == PimKernelClass::Fc &&
            k.din == model.dFfn) {
            saw_ffn_down = true;
            EXPECT_EQ(k.dout, model.dModel);
        }
    }
    EXPECT_TRUE(saw_ffn_down);
}

TEST(Lowering, StaticGrowsLinearlyDpaConstant)
{
    // Fig. 10(c): instruction footprint vs context length.
    auto g = buildDecoderLayer(LlmConfig::llm7b(true));
    AimTimingParams params = AimTimingParams::aimxWithObuf(16);
    MatchedKernel qkt;
    for (const auto &k : matchPimKernels(g))
        if (k.kernelClass == PimKernelClass::Qkt)
            qkt = k;

    auto at32k = lowerKernel(qkt, params, 32768);
    auto at128k = lowerKernel(qkt, params, 131072);
    EXPECT_NEAR(static_cast<double>(staticProgramBytes(at128k)),
                4.0 * static_cast<double>(staticProgramBytes(at32k)),
                0.05 * static_cast<double>(staticProgramBytes(at128k)));
    EXPECT_EQ(dpaProgramBytes(at32k), dpaProgramBytes(at128k));
    EXPECT_LT(dpaProgramBytes(at32k), 1024u);
}

TEST(Lowering, DpaExpansionMatchesTokenLength)
{
    auto g = buildDecoderLayer(LlmConfig::llm7b(false));
    AimTimingParams params = AimTimingParams::aimx();
    for (const auto &k : matchPimKernels(g)) {
        if (k.kernelClass != PimKernelClass::Qkt)
            continue;
        auto lowered = lowerKernel(k, params, 32768);
        auto i4k = lowered.dpaProgram.expand(4096);
        auto i8k = lowered.dpaProgram.expand(8192);
        // Twice the tokens -> twice the loop body emissions.
        EXPECT_EQ(i8k.size(), 2 * i4k.size() - 1);
    }
}

TEST(Lowering, FcIsContextIndependent)
{
    auto g = buildDecoderLayer(LlmConfig::llm7b(false));
    AimTimingParams params = AimTimingParams::aimx();
    for (const auto &k : matchPimKernels(g)) {
        if (k.kernelClass != PimKernelClass::Fc)
            continue;
        auto a = lowerKernel(k, params, 4096);
        auto b = lowerKernel(k, params, 131072);
        EXPECT_EQ(staticProgramBytes(a), staticProgramBytes(b));
    }
}

} // namespace
} // namespace pimphony
