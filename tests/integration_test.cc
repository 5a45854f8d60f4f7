/**
 * @file
 * Cross-module integration tests: the compiler's lowered programs
 * flow through the sequencer into the channel schedulers; DPA
 * programs flow through the on-module dispatcher with VA2PA
 * translation into valid, schedulable command streams; the serving
 * engine's phase accounting stays self-consistent.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "compiler/ir.hh"
#include "compiler/passes.hh"
#include "hub/dispatcher.hh"
#include "hub/sequencer.hh"
#include "pim/scheduler.hh"
#include "system/engine.hh"

namespace pimphony {
namespace {

TEST(CompilerToScheduler, StaticQktProgramSchedules)
{
    auto model = LlmConfig::llm7b(false);
    auto graph = buildDecoderLayer(model);
    AimTimingParams params = AimTimingParams::aimxWithObuf(16);

    for (const auto &match : matchPimKernels(graph)) {
        if (match.kernelClass != PimKernelClass::Qkt)
            continue;
        auto lowered = lowerKernel(match, params, 4096);
        auto stream = expandProgram(lowered.staticProgram);
        ASSERT_EQ(stream.validate(params.gbufEntries,
                                  params.outputEntries),
                  "");
        auto r = makeScheduler(SchedulerKind::Dcs, params)
                     ->schedule(stream);
        EXPECT_GT(r.makespan, 0u);
        // 4096 tokens -> 256 token groups x 8 accumulating MACs.
        EXPECT_EQ(r.macCount, 256u * 8u);
    }
}

TEST(DpaToScheduler, DispatcherExpansionSchedulesAtRuntimeLength)
{
    auto model = LlmConfig::llm7b(true);
    auto graph = buildDecoderLayer(model);
    AimTimingParams params = AimTimingParams::aimxWithObuf(16);

    MatchedKernel qkt;
    for (const auto &match : matchPimKernels(graph))
        if (match.kernelClass == PimKernelClass::Qkt)
            qkt = match;
    auto lowered = lowerKernel(qkt, params, model.contextWindow);

    // Host-side setup: one request with a growing KV cache spread
    // over non-contiguous chunks.
    DispatcherParams dp;
    dp.rowsPerChunk = 8;
    OnModuleDispatcher dispatcher(dp);
    dispatcher.registerRequest(0, 2048);
    for (std::uint64_t c = 0; c < 32; ++c)
        dispatcher.mapChunk(0, 100 + 3 * c); // deliberately scattered

    auto instrs = dispatcher.expand(lowered.dpaProgram, 0);
    auto stream = expandProgram(instrs);
    ASSERT_EQ(stream.validate(params.gbufEntries, params.outputEntries),
              "");

    // Every MAC row must land inside a mapped physical chunk.
    std::set<std::uint64_t> chunks;
    for (std::uint64_t c = 0; c < 32; ++c)
        chunks.insert(100 + 3 * c);
    std::uint64_t macs = 0;
    for (const auto &cmd : stream.commands()) {
        if (cmd.kind != CommandKind::Mac)
            continue;
        ++macs;
        std::uint64_t chunk =
            static_cast<std::uint64_t>(cmd.row) / dp.rowsPerChunk;
        EXPECT_TRUE(chunks.count(chunk))
            << "row " << cmd.row << " outside mapped chunks";
    }

    // 2048 tokens -> 128 token groups of 8 MACs.
    EXPECT_EQ(macs, 128u * 8u);

    // Token growth changes the expansion without recompilation.
    for (int i = 0; i < 512; ++i)
        dispatcher.advanceToken(0);
    auto grown = dispatcher.expand(lowered.dpaProgram, 0);
    EXPECT_GT(grown.size(), instrs.size());

    auto r = makeScheduler(SchedulerKind::Dcs, params)->schedule(stream);
    // Deliberately scattered chunks cost extra row activations, so
    // the bar is below a contiguous layout's utilization.
    EXPECT_GT(r.macUtilization, 0.15);
}

TEST(DpaVsStatic, SameWorkDifferentFootprint)
{
    // The two compilation paths must describe the same computation:
    // valid expansions and equal command counts at equal token
    // lengths, whether the output entries hold every dim group or one,
    // and wildly different encoded sizes. The static form is the
    // builder's program, the one the controllers time.
    auto model = LlmConfig::llm7b(true);
    auto graph = buildDecoderLayer(model);

    for (unsigned obuf : {1u, 16u}) {
        AimTimingParams params = AimTimingParams::aimxWithObuf(obuf);
        for (const auto &match : matchPimKernels(graph)) {
            if (match.kernelClass == PimKernelClass::Fc)
                continue;
            SCOPED_TRACE("kernel class " +
                         std::to_string(static_cast<int>(match.kernelClass)) +
                         ", " + std::to_string(obuf) + " output entries");
            Tokens t = 65536;
            auto lowered = lowerKernel(match, params, t);
            auto static_cmds = expandProgram(lowered.staticProgram);
            auto dpa_cmds = expandProgram(lowered.dpaProgram.expand(t));
            EXPECT_EQ(static_cmds.validate(params.gbufEntries,
                                           params.outputEntries),
                      "");
            EXPECT_EQ(dpa_cmds.validate(params.gbufEntries,
                                        params.outputEntries),
                      "");
            EXPECT_EQ(static_cmds.size(), dpa_cmds.size());
            EXPECT_GT(staticProgramBytes(lowered),
                      20 * dpaProgramBytes(lowered));
        }
    }
}

TEST(Engine, PhaseSecondsAreConsistentWithThroughput)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    TraceGenerator gen(TraceTask::MultifieldQa, 3);
    auto requests = gen.generate(8, 16);
    auto r = runServing(cluster, model, requests, PimphonyOptions::all());

    EXPECT_GT(r.attentionSeconds, 0.0);
    EXPECT_GT(r.fcSeconds, 0.0);
    // Per-phase seconds count every layer of every step; with TP=8
    // they must be at least the wall-clock (phases serialize on the
    // PIM-only system) and bounded by wall-clock x layers.
    EXPECT_GE(r.attentionSeconds + r.fcSeconds,
              r.simulatedSeconds * 0.5);
    EXPECT_GT(r.attentionEnergy.total(), 0.0);
    EXPECT_GT(r.fcEnergy.total(), 0.0);
}

TEST(Engine, PreemptionRecoversWhenMemoryTightens)
{
    // A tiny two-module system where decode growth overruns memory:
    // the engine must preempt rather than deadlock and still finish.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    cluster.nModules = 2;
    cluster.plan = ParallelPlan{2, 1};

    // Contexts chosen so both fit initially but not after growth.
    Bytes usable = cluster.usableKvBytes(model);
    Tokens per_req = usable / model.kvBytesPerToken() / 2;
    std::vector<Request> requests = {
        {0, per_req - 16, 4096},
        {1, per_req - 16, 4096},
    };
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    ServingEngine engine(cluster, model, requests, opts);
    auto r = engine.run();
    EXPECT_EQ(r.completedRequests + r.rejectedRequests, 2u);
    EXPECT_GT(r.generatedTokens, 0u);
}

TEST(Engine, SequenceSplitKeepsTpAboveKvHeadsSane)
{
    // tp > kvHeads: modules split the token range instead of
    // replicating whole heads; throughput must not degrade.
    auto model = LlmConfig::llm7b(true); // kvHeads = 8
    TraceGenerator gen(TraceTask::QMSum, 8);
    auto requests = gen.generate(8, 16);

    auto c8 = ClusterConfig::centLike(model);
    c8.nModules = 8;
    c8.plan = ParallelPlan{8, 1};
    auto c16 = ClusterConfig::centLike(model);
    c16.nModules = 16;
    c16.plan = ParallelPlan{16, 1};

    auto r8 = runServing(c8, model, requests, PimphonyOptions::all());
    auto r16 = runServing(c16, model, requests, PimphonyOptions::all());
    EXPECT_GT(r16.tokensPerSecond, r8.tokensPerSecond);
}

TEST(KernelCounts, QktMacWorkMatchesAnalyticFlops)
{
    // The command stream's MAC count must equal the analytic
    // token-group x dh-tile x GQA product the model layer predicts.
    auto model = LlmConfig::llm72b(true);
    AimTimingParams params = AimTimingParams::aimxWithObuf(16);
    AttentionSpec spec;
    spec.tokens = 4096;
    spec.headDim = model.headDim;
    spec.gqaGroup = model.gqaGroup;
    spec.rowReuse = true;
    auto stream = expandProgram(buildQktProgram(spec, params));
    std::uint64_t macs = makeScheduler(SchedulerKind::Static, params)
                             ->schedule(stream)
                             .macCount;
    // Each MAC covers 16 banks x a 16-element dot product = 512 FLOPs.
    double flops = static_cast<double>(macs) * 512.0;
    double analytic = 2.0 * 4096.0 * model.headDim * model.gqaGroup;
    EXPECT_NEAR(flops, analytic, analytic * 0.01);
}

} // namespace
} // namespace pimphony
