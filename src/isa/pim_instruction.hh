/**
 * @file
 * Hub-level PIM instructions (the paper's Table III).
 *
 * Instructions are what the compiler emits and the PIM HUB's
 * Instruction Sequencer consumes. Each instruction carries a channel
 * mask (Ch-mask), a repetition count (Op-size) that the sequencer
 * unrolls into consecutive-address commands, a GPR base address for
 * I/O instructions, and buffer/row/column operands.
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

    /** GPR base address for WR-INP / RD-OUT data movement. */
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
 * Reference semantics of the Instruction Sequencer's unrolling: one
 * instruction expands into @c opSize commands at consecutive
 * addresses. WR-INP walks GBuf entries, MAC walks tile columns
 * (wrapping to the next row after @c colsPerRow), RD-OUT walks output
 * entries.
 *
 * The expansion is the per-channel view; the Multicast Interconnect
 * replicates it to every channel selected by the mask.
 */
std::vector<PimCommand> expandInstruction(const PimInstruction &instr);

/** Total commands a program expands to on one selected channel. */
// test oracle: DpaVsStatic.SameWorkDifferentFootprint
std::uint64_t
expandedCommandCount(const std::vector<PimInstruction> &program);

/** Encoded program footprint in bytes (Fig. 10 model). */
Bytes programBytes(const std::vector<PimInstruction> &program);

} // namespace pimphony

#endif // PIMPHONY_ISA_PIM_INSTRUCTION_HH
