/**
 * @file
 * GEMV program builder for one PIM channel.
 *
 * Dataflow (AiM-style): the 16 banks operate in lock-step; one MAC
 * command consumes one 32 B input tile from the GBuf and one 32 B
 * weight tile per bank, accumulating 16 partial outputs (one per
 * bank). Outputs are therefore produced in groups of 16 ("output
 * groups"), each requiring dinTiles accumulating MACs before a
 * RD-OUT drains it.
 *
 * The generator adapts the loop structure to the buffer geometry:
 *
 *  - input-resident (dinTiles <= GBuf): inputs written once, output
 *    groups processed in batches of the available output entries;
 *  - input-streaming (dinTiles > GBuf): inputs streamed in blocks of
 *    half the GBuf (software double-buffering across the entry
 *    space); when the output entries cannot hold every group,
 *    partial sums are drained per block and reduced off-module by
 *    the EPU (partial-drain dataflow), costing extra RD-OUTs.
 *
 * Weight layout is co-designed with the emission order (row-reuse
 * mapping): consecutive MACs read consecutive DRAM locations, so a
 * row switch occurs every rowBytesPerChannel / 512 B MACs.
 *
 * Instructions are emitted through the Emitter (kernels/emitter.hh)
 * the attention builders share: writeInputs, macRun, and drains
 * batched by queueDrain/flushDrains into one RD-OUT each.
 */

#ifndef PIMPHONY_KERNELS_GEMV_HH
#define PIMPHONY_KERNELS_GEMV_HH

#include <cstdint>
#include <vector>

#include "dram/timing.hh"
#include "isa/pim_instruction.hh"

namespace pimphony {

struct GemvSpec
{
    /** Output tile-groups (16 fp16 outputs each). */
    std::uint32_t doutGroups = 1;

    /** Input tiles (16 fp16 elements each). */
    std::uint32_t dinTiles = 1;

    /** Derive from element dimensions. */
    static GemvSpec fromDims(std::uint64_t dout, std::uint64_t din);
};

/**
 * Build the per-channel program for @p spec.
 *
 * @param pingpong tag instructions with alternating region ids and
 *        halve the effective buffer capacities (split-buffer
 *        baseline).
 */
std::vector<PimInstruction> buildGemvProgram(const GemvSpec &spec,
                                             const AimTimingParams &params,
                                             bool pingpong = false);

/** Number of extra partial-sum reductions the EPU must perform. */
// test oracle: GemvStream.PartialDrainWhenOutputsExceedObuf
std::uint64_t gemvPartialReductions(const GemvSpec &spec,
                                    const AimTimingParams &params);

} // namespace pimphony

#endif // PIMPHONY_KERNELS_GEMV_HH
