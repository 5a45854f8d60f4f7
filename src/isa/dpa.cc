#include "isa/dpa.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace pimphony {

void
DpaProgram::pushInstr(const PimInstruction &instr)
{
    DpaOp op;
    op.kind = DpaOpKind::Instr;
    op.instr = instr;
    ops_.push_back(op);
}

void
DpaProgram::pushDynLoop(LoopBound bound, std::uint64_t const_bound,
                        std::uint64_t tokens_divisor)
{
    if (bound == LoopBound::TokensDiv && tokens_divisor == 0)
        panic("Dyn-Loop with zero tokens divisor");
    DpaOp op;
    op.kind = DpaOpKind::DynLoop;
    op.bound = bound;
    op.constBound = const_bound;
    op.tokensDivisor = tokens_divisor;
    ops_.push_back(op);
}

void
DpaProgram::pushDynModi(ModiField field, std::int64_t stride)
{
    DpaOp op;
    op.kind = DpaOpKind::DynModi;
    op.field = field;
    op.stride = stride;
    ops_.push_back(op);
}

void
DpaProgram::pushEndLoop()
{
    DpaOp op;
    op.kind = DpaOpKind::EndLoop;
    ops_.push_back(op);
}

Bytes
DpaProgram::encodedBytes() const
{
    return static_cast<Bytes>(ops_.size()) * kInstructionBytes;
}

namespace {

/** Per-iteration operand offsets accumulated by Dyn-Modi ops. */
struct ModiState
{
    std::int64_t row = 0;
    std::int64_t col = 0;
    std::int64_t gbuf = 0;
    std::int64_t out = 0;
    std::int64_t gpr = 0;

    void
    apply(ModiField field, std::int64_t delta)
    {
        switch (field) {
          case ModiField::Row:     row += delta; break;
          case ModiField::Col:     col += delta; break;
          case ModiField::GbufIdx: gbuf += delta; break;
          case ModiField::OutIdx:  out += delta; break;
          case ModiField::GprAddr: gpr += delta; break;
        }
    }

    void
    add(const ModiState &d)
    {
        row += d.row;
        col += d.col;
        gbuf += d.gbuf;
        out += d.out;
        gpr += d.gpr;
    }
};

PimInstruction
offsetInstruction(const PimInstruction &base, const ModiState &m,
                  const std::function<RowIndex(RowIndex)> &translate)
{
    PimInstruction i = base;
    if (i.row != kNoRow)
        i.row += m.row;
    if (i.col >= 0)
        i.col += static_cast<std::int32_t>(m.col);
    if (i.gbufIdx >= 0)
        i.gbufIdx += static_cast<std::int32_t>(m.gbuf);
    if (i.outIdx >= 0)
        i.outIdx += static_cast<std::int32_t>(m.out);
    i.gprAddr += static_cast<std::uint64_t>(m.gpr);
    if (translate && i.kind == CommandKind::Mac && i.row != kNoRow)
        i.row = translate(i.row);
    return i;
}

} // namespace

std::vector<PimInstruction>
DpaProgram::expand(Tokens tokens,
                   const std::function<RowIndex(RowIndex)> &translate) const
{
    std::vector<PimInstruction> out;

    // Recursive-descent interpretation over the op list: emit from
    // @p pc with the enclosing scope's offsets @p at, up to the
    // EndLoop that closes the scope.
    std::function<void(std::size_t, const ModiState &)> run =
        [&](std::size_t pc, const ModiState &at) {
        for (; pc < ops_.size(); ++pc) {
            const DpaOp &op = ops_[pc];
            switch (op.kind) {
              case DpaOpKind::Instr:
                out.push_back(offsetInstruction(op.instr, at, translate));
                break;
              case DpaOpKind::DynModi:
                // Read by the enclosing Dyn-Loop below; outside any
                // loop it is a no-op.
                break;
              case DpaOpKind::DynLoop: {
                // One scan finds the matching EndLoop and the body's
                // top-level strides: iteration i offsets the whole
                // body, nested loops included, by i * stride.
                ModiState step;
                std::size_t end = pc + 1;
                for (int depth = 0; end < ops_.size(); ++end) {
                    const DpaOp &b = ops_[end];
                    if (b.kind == DpaOpKind::DynLoop) {
                        ++depth;
                    } else if (b.kind == DpaOpKind::EndLoop) {
                        if (depth == 0)
                            break;
                        --depth;
                    } else if (b.kind == DpaOpKind::DynModi && depth == 0) {
                        step.apply(b.field, b.stride);
                    }
                }
                const std::uint64_t trip = op.bound == LoopBound::Constant
                    ? op.constBound
                    : ceilDiv<std::uint64_t>(tokens, op.tokensDivisor);
                ModiState iter = at;
                for (std::uint64_t it = 0; it < trip; ++it) {
                    run(pc + 1, iter);
                    iter.add(step);
                }
                pc = end;
                break;
              }
              case DpaOpKind::EndLoop:
                return;
            }
        }
    };

    run(0, ModiState{});
    return out;
}

} // namespace pimphony
