/**
 * @file
 * Attention program builders: QK^T (score) and SV (context) GEMVs
 * over the KV cache held by one PIM channel, as Table III instruction
 * programs.
 *
 * Layout: tokens are grouped 16 at a time across the banks ("token
 * groups"). For QK^T, output group (q, tg) holds the 16 scores of
 * query q against token group tg and accumulates over dh/16 MACs.
 * For SV, output group (q, j) holds 16 context dims of query q and
 * accumulates over the token axis, which exceeds any buffer, so
 * partial sums are drained per DRAM row chunk and reduced by the EPU.
 *
 * GQA (group size g > 1) makes g queries share the row-resident KV
 * tiles. Two mappings are modelled (Sec. V-C, Fig. 9):
 *
 *  - row-reuse: finish all g queries on the open row before moving
 *    on. Minimizes ACT/PRE but swaps query/score tiles through the
 *    GBuf per row chunk — extra WR-INP traffic that only DCS hides.
 *  - input-reuse: keep one query's inputs resident and stream the
 *    whole KV range, re-activating every row g times.
 *
 * Both builders emit through the Emitter (kernels/emitter.hh) the GEMV
 * builder shares; expandProgram unrolls a program into the command
 * stream the controllers time. An SV MAC walks the V tiles at a DRAM
 * stride of dh/16 (one output dim group of consecutive tokens).
 */

#ifndef PIMPHONY_KERNELS_ATTENTION_HH
#define PIMPHONY_KERNELS_ATTENTION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"
#include "isa/pim_instruction.hh"

namespace pimphony {

struct AttentionSpec
{
    /** Tokens of KV cache assigned to this channel. */
    Tokens tokens = 0;

    /** Per-head feature dimension d_h. */
    std::uint32_t headDim = 128;

    /** Queries sharing this KV (GQA group size; 1 = MHA). */
    std::uint32_t gqaGroup = 1;

    /** Row-reuse vs input-reuse mapping. */
    bool rowReuse = true;
};

/** Build the QK^T program for one channel. */
std::vector<PimInstruction> buildQktProgram(const AttentionSpec &spec,
                                            const AimTimingParams &params,
                                            bool pingpong = false);

/** Build the SV program for one channel. */
std::vector<PimInstruction> buildSvProgram(const AttentionSpec &spec,
                                           const AimTimingParams &params,
                                           bool pingpong = false);

} // namespace pimphony

#endif // PIMPHONY_KERNELS_ATTENTION_HH
