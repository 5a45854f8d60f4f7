/**
 * @file
 * PIM HUB tests: EPU latency model, instruction sequencer capacity
 * and expansion, and the DPA on-module dispatcher (VA2PA translation,
 * host-message accounting, hardware-buffer fit, and its footprint
 * against the serving allocator's chunk ledger).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "alloc/kv_allocator.hh"
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
    std::vector<PimInstruction> prog = {
        PimInstruction::wrInp(1, 4, 0, 0),
        PimInstruction::mac(1, 4, 0, 0, 0, 0),
        PimInstruction::rdOut(1, 1, 0, 0),
    };
    auto stream = expandProgram(prog);
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

TEST(Dispatcher, FootprintTracksAllocatorChunksUnderPressure)
{
    // The dispatcher's VA2PA table mirrors the LazyChunk allocator's
    // chunk ledger: the host registers a request when the allocator
    // admits it, maps one entry per chunk the allocator newly holds,
    // and releases it when it completes or a grow is refused. After
    // every step the dispatcher holds one 16 B config entry per live
    // request and one 8 B VA2PA entry per allocated chunk. 64 chunks
    // of 16 tokens against contexts of up to 256 tokens keep the pool
    // near full, so admits and grows are refused along the way.
    KvAllocator alloc(AllocatorKind::LazyChunk, 64_MiB, 64_KiB, 4096);
    OnModuleDispatcher d;
    struct Live
    {
        RequestId id;
        Tokens tokens;
        Tokens target;
    };
    std::vector<Live> live;
    std::mt19937 rng(7);
    std::uniform_int_distribution<Tokens> context(1, 256);
    std::uniform_int_distribution<Tokens> decode(1, 64);
    std::uniform_int_distribution<Tokens> step(1, 24);
    RequestId next_id = 0;
    std::uint64_t next_physical = 0;
    int refused_admits = 0, refused_grows = 0;

    auto mapNewChunks = [&](RequestId id, std::uint64_t before) {
        for (std::uint64_t c = before; c < alloc.chunksInUse(); ++c)
            d.mapChunk(id, next_physical++);
    };
    for (int i = 0; i < 4000; ++i) {
        if (live.empty() || rng() % 3 == 0) {
            Tokens tokens = context(rng);
            std::uint64_t before = alloc.chunksInUse();
            if (alloc.tryAdmit(next_id, tokens)) {
                d.registerRequest(next_id, tokens);
                mapNewChunks(next_id, before);
                live.push_back({next_id, tokens, tokens + decode(rng)});
            } else {
                ++refused_admits;
            }
            ++next_id;
        } else {
            std::size_t k = rng() % live.size();
            Live &r = live[k];
            Tokens grown = std::min(r.target, r.tokens + step(rng));
            std::uint64_t before = alloc.chunksInUse();
            bool ok = alloc.grow(r.id, grown);
            if (ok) {
                mapNewChunks(r.id, before);
                for (; r.tokens < grown; ++r.tokens)
                    d.advanceToken(r.id);
                EXPECT_EQ(d.tokens(r.id), r.tokens);
            } else {
                ++refused_grows;
            }
            if (!ok || r.tokens == r.target) {
                alloc.release(r.id);
                d.release(r.id);
                live[k] = live.back();
                live.pop_back();
            }
        }
        ASSERT_EQ(d.activeRequests(), live.size());
        ASSERT_EQ(d.stateBytes(),
                  16 * d.activeRequests() + 8 * alloc.chunksInUse())
            << "step " << i;
    }
    EXPECT_GT(refused_admits, 0);
    EXPECT_GT(refused_grows, 0);
}

} // namespace
} // namespace pimphony
