/**
 * @file
 * Unit tests for the PIM ISA layer: command validation, instruction
 * expansion semantics (Table III), and DPA programs (Dyn-Loop /
 * Dyn-Modi with runtime bounds and address translation).
 */

#include <gtest/gtest.h>

#include <utility>

#include "isa/dpa.hh"
#include "isa/pim_command.hh"
#include "isa/pim_instruction.hh"

namespace pimphony {
namespace {

TEST(CommandStream, AssignsSequentialIds)
{
    CommandStream s;
    s.append(PimCommand::wrInp(0));
    s.append(PimCommand::mac(0, 0, 0, 0));
    s.append(PimCommand::rdOut(0));
    EXPECT_EQ(s[0].id, 0u);
    EXPECT_EQ(s[1].id, 1u);
    EXPECT_EQ(s[2].id, 2u);
    EXPECT_EQ(s[0].kind, CommandKind::WrInp);
    EXPECT_EQ(s[1].kind, CommandKind::Mac);
    EXPECT_EQ(s[2].kind, CommandKind::RdOut);
}

TEST(CommandStream, ValidAccepted)
{
    CommandStream s;
    s.append(PimCommand::wrInp(0));
    s.append(PimCommand::wrInp(1));
    s.append(PimCommand::mac(0, 0, 0, 0));
    s.append(PimCommand::mac(1, 0, 0, 1));
    s.append(PimCommand::rdOut(0));
    EXPECT_EQ(s.validate(64, 16), "");
}

TEST(CommandStream, MacBeforeWriteRejected)
{
    CommandStream s;
    s.append(PimCommand::mac(0, 0, 0, 0));
    EXPECT_NE(s.validate(64, 16), "");
}

TEST(CommandStream, RdOutFromIdleEntryRejected)
{
    CommandStream s;
    s.append(PimCommand::rdOut(0));
    EXPECT_NE(s.validate(64, 16), "");
}

TEST(CommandStream, DoubleDrainRejected)
{
    CommandStream s;
    s.append(PimCommand::wrInp(0));
    s.append(PimCommand::mac(0, 0, 0, 0));
    s.append(PimCommand::rdOut(0));
    s.append(PimCommand::rdOut(0));
    EXPECT_NE(s.validate(64, 16), "");
}

TEST(CommandStream, OutOfRangeIndicesRejected)
{
    CommandStream a;
    a.append(PimCommand::wrInp(64));
    EXPECT_NE(a.validate(64, 16), "");

    CommandStream b;
    b.append(PimCommand::wrInp(0));
    b.append(PimCommand::mac(0, 16, 0, 0));
    EXPECT_NE(b.validate(64, 16), "");
}

/** The commands @p instr unrolls to, as instruction group 0. */
CommandStream
unroll(const PimInstruction &instr)
{
    CommandStream s;
    expandInstruction(instr, 0, s);
    return s;
}

TEST(Instruction, WrInpExpansionWalksGbuf)
{
    auto cmds = unroll(PimInstruction::wrInp(0x1, 4, 0, 8));
    ASSERT_EQ(cmds.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(cmds[i].kind, CommandKind::WrInp);
        EXPECT_EQ(cmds[i].gbufIdx, 8 + i);
    }
}

TEST(Instruction, MacExpansionWalksGbufAndColumns)
{
    auto cmds = unroll(PimInstruction::mac(0x1, 3, 0, 0, 5, 0, 32));
    ASSERT_EQ(cmds.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(cmds[i].gbufIdx, i);
        EXPECT_EQ(cmds[i].col, i);
        EXPECT_EQ(cmds[i].row, 5);
        EXPECT_EQ(cmds[i].outIdx, 0);
    }
}

TEST(Instruction, MacExpansionWrapsRows)
{
    auto cmds = unroll(PimInstruction::mac(0x1, 5, 0, 0, 7, 30, 32));
    ASSERT_EQ(cmds.size(), 5u);
    EXPECT_EQ(cmds[0].row, 7);
    EXPECT_EQ(cmds[0].col, 30);
    EXPECT_EQ(cmds[1].col, 31);
    EXPECT_EQ(cmds[2].row, 8);
    EXPECT_EQ(cmds[2].col, 0);
    EXPECT_EQ(cmds[4].col, 2);
}

TEST(Instruction, ExpansionCarriesStrideSourceRegionAndGroup)
{
    // An SV-style MAC reads every 8th tile column and wraps rows; a
    // WR-INP's commands carry source tiles from its GPR address; both
    // tag their commands with the instruction's region and group.
    auto mac = PimInstruction::mac(0x1, 4, 2, 3, 1, 6, 16);
    mac.colStride = 8;
    mac.region = 1;
    auto wr = PimInstruction::wrInp(0x1, 2, 40, 2);
    wr.region = 1;
    CommandStream s;
    expandInstruction(wr, 5, s);
    expandInstruction(mac, 6, s);
    ASSERT_EQ(s.size(), 6u);
    EXPECT_EQ(s[0].src, 40);
    EXPECT_EQ(s[1].src, 41);
    EXPECT_EQ(s[1].gbufIdx, 3);
    const std::pair<RowIndex, std::int32_t> row_col[] = {
        {1, 6}, {1, 14}, {2, 6}, {2, 14}};
    for (int i = 0; i < 4; ++i) {
        const PimCommand &c = s[2 + i];
        EXPECT_EQ(c.id, static_cast<CommandId>(2 + i));
        EXPECT_EQ(c.gbufIdx, 2 + i);
        EXPECT_EQ(c.outIdx, 3);
        EXPECT_EQ(c.row, row_col[i].first);
        EXPECT_EQ(c.col, row_col[i].second);
        EXPECT_EQ(c.src, -1);
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s[i].region, 1);
        EXPECT_EQ(s[i].group, i < 2 ? 5 : 6);
    }
}

TEST(Instruction, ProgramByteAccounting)
{
    std::vector<PimInstruction> prog = {
        PimInstruction::wrInp(0x1, 8, 0, 0),
        PimInstruction::mac(0x1, 8, 0, 0, 0, 0),
        PimInstruction::rdOut(0x1, 1, 0, 0),
    };
    EXPECT_EQ(programBytes(prog), 3 * kInstructionBytes);
    EXPECT_EQ(expandedCommandCount(prog), 17u);
}

TEST(Dpa, ConstantLoopExpansion)
{
    DpaProgram p;
    p.pushDynLoop(LoopBound::Constant, 3);
    p.pushInstr(PimInstruction::mac(0x1, 2, 0, 0, 0, 0));
    p.pushDynModi(ModiField::Row, 4);
    p.pushEndLoop();

    auto instrs = p.expand(/*tokens=*/0);
    ASSERT_EQ(instrs.size(), 3u);
    EXPECT_EQ(instrs[0].row, 0);
    EXPECT_EQ(instrs[1].row, 4);
    EXPECT_EQ(instrs[2].row, 8);
}

TEST(Dpa, TokenBoundLoopScalesWithContext)
{
    DpaProgram p;
    p.pushDynLoop(LoopBound::TokensDiv, 0, /*divisor=*/256);
    p.pushInstr(PimInstruction::mac(0x1, 8, 0, 0, 0, 0));
    p.pushDynModi(ModiField::Row, 1);
    p.pushEndLoop();

    EXPECT_EQ(p.expand(256).size(), 1u);
    EXPECT_EQ(p.expand(1024).size(), 4u);
    EXPECT_EQ(p.expand(1025).size(), 5u); // ceil
    // Encoded size is context-independent.
    EXPECT_EQ(p.encodedBytes(), 4 * kInstructionBytes);
}

TEST(Dpa, ZeroTripLoopSkipsBody)
{
    DpaProgram p;
    p.pushDynLoop(LoopBound::Constant, 0);
    p.pushInstr(PimInstruction::mac(0x1, 1, 0, 0, 0, 0));
    p.pushEndLoop();
    p.pushInstr(PimInstruction::rdOut(0x1, 1, 0, 0));

    auto instrs = p.expand(0);
    ASSERT_EQ(instrs.size(), 1u);
    EXPECT_EQ(instrs[0].kind, CommandKind::RdOut);
}

TEST(Dpa, NestedLoops)
{
    DpaProgram p;
    p.pushDynLoop(LoopBound::Constant, 2); // e.g. layer loop
    p.pushDynLoop(LoopBound::Constant, 3); // e.g. head loop
    p.pushInstr(PimInstruction::mac(0x1, 1, 0, 0, 0, 0));
    p.pushDynModi(ModiField::Col, 1);
    p.pushEndLoop();
    p.pushDynModi(ModiField::Row, 10);
    p.pushEndLoop();

    auto instrs = p.expand(0);
    ASSERT_EQ(instrs.size(), 6u);
    EXPECT_EQ(instrs[0].row, 0);
    EXPECT_EQ(instrs[0].col, 0);
    EXPECT_EQ(instrs[2].col, 2);
    EXPECT_EQ(instrs[3].row, 10);
    EXPECT_EQ(instrs[3].col, 0);
    EXPECT_EQ(instrs[5].col, 2);
}

TEST(Dpa, TranslationMapsVirtualRows)
{
    DpaProgram p;
    p.pushDynLoop(LoopBound::Constant, 2);
    p.pushInstr(PimInstruction::mac(0x1, 1, 0, 0, 0, 0));
    p.pushDynModi(ModiField::Row, 1);
    p.pushEndLoop();

    // VA2PA: virtual row v -> physical row 100 + 2v (as the paper's
    // dispatcher resolves different requests to different chunks).
    auto instrs = p.expand(0, [](RowIndex v) { return 100 + 2 * v; });
    ASSERT_EQ(instrs.size(), 2u);
    EXPECT_EQ(instrs[0].row, 100);
    EXPECT_EQ(instrs[1].row, 102);
}

TEST(Dpa, StaticVsDpaFootprint)
{
    // Fig. 10(c): a static program for T tokens needs O(T)
    // instructions; the DPA encoding stays constant.
    auto static_program = [](Tokens t) {
        std::vector<PimInstruction> prog;
        for (Tokens tg = 0; tg < t / 16; ++tg)
            prog.push_back(PimInstruction::mac(
                0xFFFF, 8, 0, 0, static_cast<RowIndex>(tg), 0));
        return prog;
    };

    DpaProgram dpa;
    dpa.pushDynLoop(LoopBound::TokensDiv, 0, 16);
    dpa.pushInstr(PimInstruction::mac(0xFFFF, 8, 0, 0, 0, 0));
    dpa.pushDynModi(ModiField::Row, 1);
    dpa.pushEndLoop();

    Bytes s32k = programBytes(static_program(32768));
    Bytes s128k = programBytes(static_program(131072));
    EXPECT_EQ(s128k, 4 * s32k);
    EXPECT_EQ(dpa.encodedBytes(), 4 * kInstructionBytes);
    // Same command count when expanded.
    EXPECT_EQ(expandedCommandCount(dpa.expand(32768)),
              expandedCommandCount(static_program(32768)));
}

} // namespace
} // namespace pimphony
