/**
 * @file
 * Hub-level PIM instructions (the paper's Table III).
 *
 * Instructions are what the kernel builders and the compiler emit and
 * the PIM HUB's Instruction Sequencer consumes. Each instruction
 * carries a channel mask (Ch-mask), a repetition count (Op-size) that
 * the sequencer unrolls into consecutive-address commands, a GPR base
 * address for I/O instructions, and buffer/row/column operands.
 *
 * expandProgram is the sequencer's unroll, and the only source of the
 * commands the channel controllers time: simulateKernel schedules the
 * expansion of a builder's program.
 */

#ifndef PIMPHONY_ISA_PIM_INSTRUCTION_HH
#define PIMPHONY_ISA_PIM_INSTRUCTION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/pim_command.hh"

namespace pimphony {

/** Encoded size of one fixed-format PIM instruction word. */
inline constexpr Bytes kInstructionBytes = 16;

struct PimInstruction
{
    CommandKind kind = CommandKind::Mac;

    /** Bit i set => dispatch to channel i (Multicast Interconnect). */
    std::uint32_t chMask = 0x1;

    /** Repetition count unrolled by the Instruction Sequencer. */
    std::uint32_t opSize = 1;

    /** GPR base address for WR-INP / RD-OUT data movement. WR-INP's
     *  i-th command carries source tile gprAddr + i (PimCommand::src). */
    std::uint64_t gprAddr = 0;

    /** Base GBuf entry (WR-INP destination, MAC source). */
    std::int32_t gbufIdx = -1;

    /** Base output entry (MAC destination, RD-OUT source). */
    std::int32_t outIdx = -1;

    /** Base DRAM row / tile column for MAC. */
    RowIndex row = kNoRow;
    std::int32_t col = -1;

    /** Columns per row used when unrolling wraps to the next row. */
    std::int32_t colsPerRow = 32;

    /** Tile columns a MAC advances per repetition (SV reads V tiles
     *  dh/16 apart). */
    std::int32_t colStride = 1;

    /** Ping-pong region (0/1) of the unrolled commands; -1 when the
     *  buffers are not split. */
    std::int8_t region = -1;

    static PimInstruction wrInp(std::uint32_t ch_mask, std::uint32_t op_size,
                                std::uint64_t gpr_addr,
                                std::int32_t gbuf_idx);
    static PimInstruction mac(std::uint32_t ch_mask, std::uint32_t op_size,
                              std::int32_t gbuf_idx, std::int32_t out_idx,
                              RowIndex row, std::int32_t col,
                              std::int32_t cols_per_row = 32);
    static PimInstruction rdOut(std::uint32_t ch_mask, std::uint32_t op_size,
                                std::uint64_t gpr_addr,
                                std::int32_t out_idx);
};

/**
 * Reference semantics of the Instruction Sequencer's unrolling: append
 * @p instr's @c opSize commands at consecutive addresses to @p out, all
 * in instruction group @p group and the instruction's region. WR-INP
 * walks GBuf entries and source tiles, MAC walks GBuf entries and tile
 * columns by @c colStride (wrapping to the next row after
 * @c colsPerRow), RD-OUT walks output entries.
 *
 * The expansion is the per-channel view; the Multicast Interconnect
 * replicates it to every channel selected by the mask.
 */
void expandInstruction(const PimInstruction &instr, std::int32_t group,
                       CommandStream &out);

/** Total commands a program expands to on one selected channel. */
std::uint64_t
expandedCommandCount(const std::vector<PimInstruction> &program);

/**
 * Unroll a whole program into one per-channel command stream sized
 * exactly; instruction i's commands form instruction group i.
 */
CommandStream expandProgram(const std::vector<PimInstruction> &program);

/** Encoded program footprint in bytes (Fig. 10 model). */
Bytes programBytes(const std::vector<PimInstruction> &program);

} // namespace pimphony

#endif // PIMPHONY_ISA_PIM_INSTRUCTION_HH
