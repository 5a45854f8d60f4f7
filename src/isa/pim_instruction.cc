#include "isa/pim_instruction.hh"

#include "common/logging.hh"

namespace pimphony {

PimInstruction
PimInstruction::wrInp(std::uint32_t ch_mask, std::uint32_t op_size,
                      std::uint64_t gpr_addr, std::int32_t gbuf_idx)
{
    PimInstruction i;
    i.kind = CommandKind::WrInp;
    i.chMask = ch_mask;
    i.opSize = op_size;
    i.gprAddr = gpr_addr;
    i.gbufIdx = gbuf_idx;
    return i;
}

PimInstruction
PimInstruction::mac(std::uint32_t ch_mask, std::uint32_t op_size,
                    std::int32_t gbuf_idx, std::int32_t out_idx, RowIndex row,
                    std::int32_t col, std::int32_t cols_per_row)
{
    PimInstruction i;
    i.kind = CommandKind::Mac;
    i.chMask = ch_mask;
    i.opSize = op_size;
    i.gbufIdx = gbuf_idx;
    i.outIdx = out_idx;
    i.row = row;
    i.col = col;
    i.colsPerRow = cols_per_row;
    return i;
}

PimInstruction
PimInstruction::rdOut(std::uint32_t ch_mask, std::uint32_t op_size,
                      std::uint64_t gpr_addr, std::int32_t out_idx)
{
    PimInstruction i;
    i.kind = CommandKind::RdOut;
    i.chMask = ch_mask;
    i.opSize = op_size;
    i.gprAddr = gpr_addr;
    i.outIdx = out_idx;
    return i;
}

void
expandInstruction(const PimInstruction &instr, std::int32_t group,
                   CommandStream &out)
{
    if (instr.opSize == 0)
        panic("instruction with Op-size 0");
    if (instr.kind == CommandKind::Mac && instr.colsPerRow <= 0)
        panic("MAC instruction with colsPerRow <= 0");

    for (std::uint32_t rep = 0; rep < instr.opSize; ++rep) {
        const auto step = static_cast<std::int32_t>(rep);
        PimCommand cmd;
        switch (instr.kind) {
          case CommandKind::WrInp:
            cmd = PimCommand::wrInp(instr.gbufIdx + step);
            cmd.src = static_cast<std::int32_t>(instr.gprAddr + rep);
            break;
          case CommandKind::Mac: {
            std::int64_t flat =
                instr.col + static_cast<std::int64_t>(rep) * instr.colStride;
            // Consecutive MACs of one unrolled instruction advance the
            // GBuf entry and the weight column together (one dot
            // product accumulating into the shared output entry).
            cmd = PimCommand::mac(
                instr.gbufIdx + step, instr.outIdx,
                instr.row + flat / instr.colsPerRow,
                static_cast<std::int32_t>(flat % instr.colsPerRow));
            break;
          }
          case CommandKind::RdOut:
            cmd = PimCommand::rdOut(instr.outIdx + step);
            break;
        }
        cmd.group = group;
        cmd.region = instr.region;
        out.append(cmd);
    }
}

std::uint64_t
expandedCommandCount(const std::vector<PimInstruction> &program)
{
    std::uint64_t n = 0;
    for (const auto &i : program)
        n += i.opSize;
    return n;
}

CommandStream
expandProgram(const std::vector<PimInstruction> &program)
{
    CommandStream stream;
    stream.reserve(expandedCommandCount(program));
    for (std::size_t i = 0; i < program.size(); ++i)
        expandInstruction(program[i], static_cast<std::int32_t>(i), stream);
    return stream;
}

Bytes
programBytes(const std::vector<PimInstruction> &program)
{
    return static_cast<Bytes>(program.size()) * kInstructionBytes;
}

} // namespace pimphony
