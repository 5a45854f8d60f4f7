/**
 * @file
 * Dynamic PIM Access (DPA) instructions (Sec. VI-B).
 *
 * DPA escapes the static execution model with two control constructs:
 *
 *  - @c Dyn-Loop: a loop whose bound is resolved at runtime from the
 *    request's current token length (T_cur), not a compile-time
 *    maximum.
 *  - @c Dyn-Modi: strides a target operand field of every instruction
 *    in the enclosing Dyn-Loop's body by one more step each
 *    iteration, producing *virtual* addresses that the on-module
 *    dispatcher translates through the VA2PA table.
 *
 * A DPA program is therefore compact: its encoded size is independent
 * of the context length, unlike a fully unrolled static program whose
 * size grows linearly with tokens (Fig. 10).
 */

#ifndef PIMPHONY_ISA_DPA_HH
#define PIMPHONY_ISA_DPA_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "isa/pim_instruction.hh"

namespace pimphony {

/** Where a Dyn-Loop obtains its bound at decode time. */
enum class LoopBound : std::uint8_t {
    /** Constant baked at compile time (layers, heads, dims). */
    Constant,
    /** ceil(T_cur / divisor): token-dependent trip count. */
    TokensDiv,
};

/** Which operand field a Dyn-Modi strides. */
enum class ModiField : std::uint8_t {
    Row,
    Col,
    GbufIdx,
    OutIdx,
    GprAddr,
};

enum class DpaOpKind : std::uint8_t {
    Instr,     ///< plain Table III instruction
    DynLoop,   ///< loop header
    DynModi,   ///< per-iteration operand stride
    EndLoop,   ///< loop trailer
};

struct DpaOp
{
    DpaOpKind kind = DpaOpKind::Instr;

    /** Valid when kind == Instr. */
    PimInstruction instr;

    /** Valid when kind == DynLoop. */
    LoopBound bound = LoopBound::Constant;
    std::uint64_t constBound = 1;
    std::uint64_t tokensDivisor = 1;

    /**
     * Valid when kind == DynModi: iteration i of the enclosing
     * Dyn-Loop offsets @c field of every instruction in the loop
     * body, nested loops included, by i * stride.
     */
    ModiField field = ModiField::Row;
    std::int64_t stride = 0;
};

/**
 * A compact, runtime-expandable PIM program.
 */
class DpaProgram
{
  public:
    void pushInstr(const PimInstruction &instr);
    void pushDynLoop(LoopBound bound, std::uint64_t const_bound,
                     std::uint64_t tokens_divisor = 1);
    void pushDynModi(ModiField field, std::int64_t stride);
    void pushEndLoop();

    const std::vector<DpaOp> &ops() const { return ops_; }

    /** Encoded size: every DPA op occupies one instruction word. */
    Bytes encodedBytes() const;

    /**
     * Reference expansion semantics, shared with the on-module
     * dispatcher: resolve Dyn-Loop bounds against @p tokens, apply
     * Dyn-Modi strides per iteration, and map each produced
     * instruction's virtual row through @p translate (identity when
     * null). Single-level loops cover the paper's attention kernels;
     * nesting is supported for layer/head loops.
     */
    std::vector<PimInstruction>
    expand(Tokens tokens,
           const std::function<RowIndex(RowIndex)> &translate = {}) const;

  private:
    std::vector<DpaOp> ops_;
};

} // namespace pimphony

#endif // PIMPHONY_ISA_DPA_HH
