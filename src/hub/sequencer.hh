/**
 * @file
 * PIM HUB Instruction Sequencer model.
 *
 * The sequencer holds the (static or dispatcher-decoded) instruction
 * program in its instruction buffer and unrolls each instruction's
 * Op-size repetitions into the channel command stream; that unroll is
 * expandProgram (isa/pim_instruction.hh), the one source of timed
 * commands. Its buffer capacity is the scalability bottleneck
 * Fig. 10(c) highlights: fully unrolled static programs grow linearly
 * with context length and overflow it, while DPA-encoded programs stay
 * constant.
 */

#ifndef PIMPHONY_HUB_SEQUENCER_HH
#define PIMPHONY_HUB_SEQUENCER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/pim_instruction.hh"

namespace pimphony {

struct SequencerParams
{
    /** Instruction buffer capacity. */
    Bytes bufferBytes = 256 * 1024;

    /** Instructions decoded per cycle (pipelined with execution). */
    unsigned decodeRate = 1;
};

class InstructionSequencer
{
  public:
    explicit InstructionSequencer(const SequencerParams &params = {})
        : params_(params)
    {
    }

    // paper component (fits, refills): the Fig. 10(c) buffer bound
    /** Whether @p program fits in the instruction buffer. */
    bool fits(const std::vector<PimInstruction> &program) const;

    /**
     * Number of host refills needed to stream @p program through the
     * buffer when it does not fit at once.
     */
    std::uint64_t refills(const std::vector<PimInstruction> &program) const;

    const SequencerParams &params() const { return params_; }

  private:
    SequencerParams params_;
};

} // namespace pimphony

#endif // PIMPHONY_HUB_SEQUENCER_HH
