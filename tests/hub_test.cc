/**
 * @file
 * PIM HUB tests: EPU latency model, instruction sequencer capacity
 * and expansion, and the DPA on-module dispatcher (VA2PA translation,
 * host-message accounting, hardware-buffer fit).
 */

#include <gtest/gtest.h>

#include "hub/dispatcher.hh"
#include "hub/epu.hh"
#include "hub/sequencer.hh"

namespace pimphony {
namespace {

TEST(Epu, SoftmaxScalesWithElements)
{
    EpuModel epu;
    EXPECT_EQ(epu.softmaxCycles(0), 0u);
    Cycle small = epu.softmaxCycles(256);
    Cycle big = epu.softmaxCycles(65536);
    EXPECT_GT(big, small);
    // 3 passes over 65536/16 lanes + fixed.
    EXPECT_EQ(big, 32u + 3u * 4096u);
}

TEST(Epu, ReduceCosts)
{
    EpuModel epu;
    EXPECT_EQ(epu.reduceCycles(1, 1024), 0u);
    // 15 adds over 128/16 = 8-cycle vectors + fixed 32.
    EXPECT_EQ(epu.reduceCycles(16, 128), 32u + 15u * 8u);
}

TEST(Sequencer, CapacityAndRefills)
{
    SequencerParams p;
    p.bufferBytes = 1024; // 64 instructions
    InstructionSequencer seq(p);
    std::vector<PimInstruction> small(10,
                                      PimInstruction::wrInp(1, 1, 0, 0));
    EXPECT_TRUE(seq.fits(small));
    EXPECT_EQ(seq.refills(small), 0u);
    std::vector<PimInstruction> large(200,
                                      PimInstruction::wrInp(1, 1, 0, 0));
    EXPECT_FALSE(seq.fits(large));
    EXPECT_EQ(seq.refills(large), 3u); // 3200 B over 1024 B windows
}

TEST(Sequencer, ExpansionGroupsPerInstruction)
{
    InstructionSequencer seq;
    std::vector<PimInstruction> prog = {
        PimInstruction::wrInp(1, 4, 0, 0),
        PimInstruction::mac(1, 4, 0, 0, 0, 0),
        PimInstruction::rdOut(1, 1, 0, 0),
    };
    auto stream = seq.expandProgram(prog);
    ASSERT_EQ(stream.size(), 9u);
    EXPECT_EQ(stream[0].group, 0);
    EXPECT_EQ(stream[3].group, 0);
    EXPECT_EQ(stream[4].group, 1);
    EXPECT_EQ(stream[8].group, 2);
    EXPECT_EQ(stream.validate(64, 16), "");
}

TEST(Dispatcher, TokenProgressionIsHostFree)
{
    OnModuleDispatcher d;
    d.registerRequest(0, 1000);
    std::uint64_t host = d.hostMessages();
    for (int i = 0; i < 100; ++i)
        d.advanceToken(0);
    EXPECT_EQ(d.tokens(0), 1100u);
    EXPECT_EQ(d.hostMessages(), host); // no host round-trips
}

TEST(Dispatcher, TranslationFollowsChunkMap)
{
    DispatcherParams p;
    p.rowsPerChunk = 64;
    OnModuleDispatcher d(p);
    d.registerRequest(7, 0);
    d.mapChunk(7, 5);  // VA chunk 0 -> PA chunk 5
    d.mapChunk(7, 2);  // VA chunk 1 -> PA chunk 2 (non-contiguous)
    EXPECT_EQ(d.translate(7, 0), 5 * 64);
    EXPECT_EQ(d.translate(7, 63), 5 * 64 + 63);
    EXPECT_EQ(d.translate(7, 64), 2 * 64);
    EXPECT_EQ(d.translate(7, 100), 2 * 64 + 36);
}

TEST(Dispatcher, PerRequestTranslationsDiffer)
{
    // The paper's example: the same virtual address resolves to
    // different physical locations per request.
    OnModuleDispatcher d;
    d.registerRequest(1, 0);
    d.registerRequest(2, 0);
    d.mapChunk(1, 22 / d.params().rowsPerChunk + 1);
    d.mapChunk(2, 33 / d.params().rowsPerChunk + 2);
    EXPECT_NE(d.translate(1, 0), d.translate(2, 0));
}

TEST(Dispatcher, ExpandResolvesTokensAndRows)
{
    DispatcherParams p;
    p.rowsPerChunk = 4;
    OnModuleDispatcher d(p);
    d.registerRequest(0, 128); // 8 token groups
    d.mapChunk(0, 10);
    d.mapChunk(0, 20);

    DpaProgram prog;
    prog.pushDynLoop(LoopBound::TokensDiv, 0, 16);
    prog.pushInstr(PimInstruction::mac(0xFFFF, 8, 0, 0, 0, 0));
    prog.pushDynModi(ModiField::Row, 1);
    prog.pushEndLoop();

    auto instrs = d.expand(prog, 0);
    ASSERT_EQ(instrs.size(), 8u); // 128 tokens / 16
    EXPECT_EQ(instrs[0].row, 10 * 4);
    EXPECT_EQ(instrs[3].row, 10 * 4 + 3);
    EXPECT_EQ(instrs[4].row, 20 * 4); // crosses into chunk 2
}

TEST(Dispatcher, StateFitsHardwareBuffers)
{
    OnModuleDispatcher d;
    // 64 concurrent requests with 128 chunks each: 64 x (16 + 1024) B
    // must stay within the <200 KB the paper budgets.
    for (RequestId id = 0; id < 64; ++id) {
        d.registerRequest(id, 0);
        for (int c = 0; c < 128; ++c)
            d.mapChunk(id, static_cast<std::uint64_t>(id) * 128 + c);
    }
    EXPECT_TRUE(d.fitsHardware());
    EXPECT_LT(d.stateBytes(), 200u * 1024u);
    EXPECT_EQ(d.activeRequests(), 64u);
}

TEST(Dispatcher, Va2PaOverflowDoesNotFitHardware)
{
    DispatcherParams p;
    p.va2paBufferBytes = 64; // 8 VA2PA entries
    OnModuleDispatcher d(p);
    d.registerRequest(0, 0);
    for (std::uint64_t c = 0; c < 8; ++c)
        d.mapChunk(0, c);
    EXPECT_TRUE(d.fitsHardware());
    d.mapChunk(0, 8); // the ninth entry overflows
    EXPECT_FALSE(d.fitsHardware());
    EXPECT_EQ(d.stateBytes(), 16u + 9u * 8u);
}

TEST(Dispatcher, ConfigOverflowDoesNotFitHardware)
{
    DispatcherParams p;
    p.configBufferBytes = 32; // 2 config entries
    OnModuleDispatcher d(p);
    d.registerRequest(0, 0);
    d.registerRequest(1, 0);
    EXPECT_TRUE(d.fitsHardware());
    d.registerRequest(2, 0); // the third request overflows
    EXPECT_FALSE(d.fitsHardware());
    EXPECT_EQ(d.stateBytes(), 3u * 16u);
    d.release(2);
    EXPECT_TRUE(d.fitsHardware());
}

TEST(Dispatcher, ReleaseFreesState)
{
    OnModuleDispatcher d;
    d.registerRequest(0, 10);
    d.mapChunk(0, 1);
    Bytes before = d.stateBytes();
    EXPECT_GT(before, 0u);
    d.release(0);
    EXPECT_EQ(d.stateBytes(), 0u);
    EXPECT_EQ(d.activeRequests(), 0u);
}

} // namespace
} // namespace pimphony
