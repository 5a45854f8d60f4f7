#include "hub/sequencer.hh"

#include "common/units.hh"

namespace pimphony {

bool
InstructionSequencer::fits(const std::vector<PimInstruction> &program) const
{
    return programBytes(program) <= params_.bufferBytes;
}

std::uint64_t
InstructionSequencer::refills(
    const std::vector<PimInstruction> &program) const
{
    Bytes total = programBytes(program);
    if (total <= params_.bufferBytes)
        return 0;
    return ceilDiv<Bytes>(total, params_.bufferBytes) - 1;
}

} // namespace pimphony
