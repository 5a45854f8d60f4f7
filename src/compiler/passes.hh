/**
 * @file
 * Compiler passes: pattern matching of PIM-amenable kernels in the
 * decoder graph and lowering to PIM instruction programs (static
 * fully unrolled form vs. compact DPA form).
 *
 * The static form is not a second model of the kernel: it is the
 * kernel builder's program (kernels/), the one simulateKernel times,
 * built at t_max for one head with the input-reuse mapping and
 * unsplit buffers. Only the DPA form is written here.
 */

#ifndef PIMPHONY_COMPILER_PASSES_HH
#define PIMPHONY_COMPILER_PASSES_HH

#include <cstdint>
#include <vector>

#include "compiler/ir.hh"
#include "isa/dpa.hh"
#include "kernels/kernel_sim.hh"

namespace pimphony {

enum class PimKernelClass : std::uint8_t {
    Qkt,  ///< MatMul(query, K-cache^T): token-parallel score GEMV
    Sv,   ///< MatMul(probs, V-cache): token-reduction GEMV
    Fc,   ///< MatMul(activation, weight): weight-stationary GEMV
};

/** One matched PIM-amenable kernel. */
struct MatchedKernel
{
    PimKernelClass kernelClass = PimKernelClass::Fc;
    NodeId node = kNoNode;

    /** Static dimensions (token axis symbolic for Qkt/Sv). */
    std::uint64_t dout = 0;
    std::uint64_t din = 0;
    bool tokenDout = false; ///< dout is the runtime token count
    bool tokenDin = false;  ///< din is the runtime token count
};

/**
 * Pattern-match @p graph: every MatMul is classified by inspecting
 * its operands (KvCache input + softmax producer/consumer structure).
 */
std::vector<MatchedKernel> matchPimKernels(const IrGraph &graph);

/**
 * Lowered program pair for one kernel: the builder's statically
 * unrolled instruction list sized for @p t_max, and the
 * context-independent DPA form (Fig. 10).
 */
struct LoweredKernel
{
    MatchedKernel match;
    std::vector<PimInstruction> staticProgram;
    DpaProgram dpaProgram;
};

/**
 * Lower a matched kernel for one channel of the given geometry.
 * Static lowering must assume @p t_max tokens; the DPA form scales
 * with the runtime token length instead.
 */
LoweredKernel lowerKernel(const MatchedKernel &match,
                          const AimTimingParams &params, Tokens t_max);

/** Fully-unrolled instruction bytes at @p t_max (Fig. 10c). */
Bytes staticProgramBytes(const LoweredKernel &kernel);

/** DPA-encoded bytes (context independent). */
Bytes dpaProgramBytes(const LoweredKernel &kernel);

} // namespace pimphony

#endif // PIMPHONY_COMPILER_PASSES_HH
