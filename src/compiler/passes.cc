#include "compiler/passes.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"

namespace pimphony {

std::vector<MatchedKernel>
matchPimKernels(const IrGraph &graph)
{
    std::vector<MatchedKernel> out;
    for (const auto &n : graph.nodes()) {
        if (n.kind != OpKind::MatMul || n.inputs.size() != 2)
            continue;
        const IrNode &rhs = graph.node(n.inputs[1]);
        MatchedKernel m;
        m.node = n.id;

        if (rhs.kind == OpKind::KvCache) {
            if (n.transposeB) {
                // scores = q x K^T; must feed a softmax.
                bool feeds_softmax = false;
                for (NodeId u : graph.usersOf(n.id))
                    if (graph.node(u).kind == OpKind::Softmax)
                        feeds_softmax = true;
                if (!feeds_softmax)
                    continue;
                m.kernelClass = PimKernelClass::Qkt;
                m.tokenDout = true;
                m.din = static_cast<std::uint64_t>(rhs.shape.dims[1]);
            } else {
                // ctx = probs x V; probs must come from a softmax.
                if (graph.node(n.inputs[0]).kind != OpKind::Softmax)
                    continue;
                m.kernelClass = PimKernelClass::Sv;
                m.tokenDin = true;
                m.dout = static_cast<std::uint64_t>(rhs.shape.dims[1]);
            }
            out.push_back(m);
        } else if (rhs.kind == OpKind::Weight) {
            m.kernelClass = PimKernelClass::Fc;
            // Weight stored [dout, din]; MatMul uses B^T.
            m.dout = static_cast<std::uint64_t>(rhs.shape.dims[0]);
            m.din = static_cast<std::uint64_t>(rhs.shape.dims[1]);
            out.push_back(m);
        }
    }
    return out;
}

namespace {

/**
 * Static lowering of a token-dependent attention kernel: the
 * compiler must unroll the token loop to the compiled maximum, so
 * the program grows with t_max.
 */
std::vector<PimInstruction>
lowerAttentionStatic(const MatchedKernel &match,
                     const AimTimingParams &params, Tokens t_max)
{
    std::vector<PimInstruction> prog;
    std::uint64_t token_groups = ceilDiv<Tokens>(t_max, 16);
    unsigned tiles = static_cast<unsigned>(
        ceilDiv<std::uint64_t>(
            match.kernelClass == PimKernelClass::Qkt ? match.din
                                                     : match.dout,
            16));
    unsigned ocap = std::max(1u, params.outputEntries);

    if (match.kernelClass == PimKernelClass::Qkt) {
        prog.push_back(PimInstruction::wrInp(0xFFFF, tiles, 0, 0));
        for (std::uint64_t tg = 0; tg < token_groups; ++tg) {
            prog.push_back(PimInstruction::mac(
                0xFFFF, tiles, 0,
                static_cast<std::int32_t>(tg % ocap),
                static_cast<RowIndex>(tg * tiles /
                                      std::max<std::uint64_t>(
                                          1, params.rowBytesPerChannel() /
                                                 params
                                                     .macBytesPerCommand())),
                0));
            if ((tg + 1) % ocap == 0 || tg + 1 == token_groups)
                prog.push_back(PimInstruction::rdOut(
                    0xFFFF,
                    static_cast<std::uint32_t>(tg % ocap + 1), 0, 0));
        }
        return prog;
    }

    // SV: stream score blocks; one WR-INP + per-j MACs per block.
    unsigned block = std::max(1u, params.gbufEntries / 2);
    std::uint64_t n_blocks = ceilDiv(token_groups,
                                     static_cast<std::uint64_t>(block));
    for (std::uint64_t blk = 0; blk < n_blocks; ++blk) {
        prog.push_back(PimInstruction::wrInp(0xFFFF, block, 0, 0));
        for (unsigned j = 0; j < tiles; ++j)
            prog.push_back(PimInstruction::mac(
                0xFFFF, block, 0, static_cast<std::int32_t>(j % ocap),
                static_cast<RowIndex>(blk), 0));
        prog.push_back(PimInstruction::rdOut(
            0xFFFF, std::min(tiles, ocap), 0, 0));
    }
    return prog;
}

DpaProgram
lowerAttentionDpa(const MatchedKernel &match, const AimTimingParams &params)
{
    DpaProgram p;
    unsigned tiles = static_cast<unsigned>(
        ceilDiv<std::uint64_t>(
            match.kernelClass == PimKernelClass::Qkt ? match.din
                                                     : match.dout,
            16));
    if (match.kernelClass == PimKernelClass::Qkt) {
        // for tg in ceil(T/16): MAC(tiles); drain
        p.pushInstr(PimInstruction::wrInp(0xFFFF, tiles, 0, 0));
        p.pushDynLoop(LoopBound::TokensDiv, 0, 16);
        p.pushInstr(PimInstruction::mac(0xFFFF, tiles, 0, 0, 0, 0));
        p.pushDynModi(ModiField::Row, 1);
        p.pushInstr(PimInstruction::rdOut(0xFFFF, 1, 0, 0));
        p.pushEndLoop();
        return p;
    }
    unsigned block = std::max(1u, params.gbufEntries / 2);
    p.pushDynLoop(LoopBound::TokensDiv, 0,
                  static_cast<std::uint64_t>(block) * 16);
    p.pushInstr(PimInstruction::wrInp(0xFFFF, block, 0, 0));
    for (unsigned j = 0; j < tiles; ++j)
        p.pushInstr(PimInstruction::mac(0xFFFF, block, 0,
                                        static_cast<std::int32_t>(j), 0,
                                        0));
    p.pushDynModi(ModiField::Row, 1);
    p.pushInstr(PimInstruction::rdOut(0xFFFF, tiles, 0, 0));
    p.pushEndLoop();
    return p;
}

std::vector<PimInstruction>
lowerFcStatic(const MatchedKernel &match, const AimTimingParams &params)
{
    // Weight-stationary GEMV; token independent, so the static form
    // is already compact.
    std::vector<PimInstruction> prog;
    unsigned din_tiles = static_cast<unsigned>(
        ceilDiv<std::uint64_t>(match.din, 16));
    unsigned dout_groups = static_cast<unsigned>(
        ceilDiv<std::uint64_t>(match.dout, 16));
    unsigned block = std::min(din_tiles,
                              std::max(1u, params.gbufEntries / 2));
    unsigned n_blocks = ceilDiv(din_tiles, block);
    unsigned ocap = std::max(1u, params.outputEntries);
    for (unsigned blk = 0; blk < n_blocks; ++blk) {
        prog.push_back(PimInstruction::wrInp(0xFFFF, block, 0, 0));
        for (unsigned g0 = 0; g0 < dout_groups; g0 += ocap) {
            unsigned batch = std::min(ocap, dout_groups - g0);
            for (unsigned b = 0; b < batch; ++b)
                prog.push_back(PimInstruction::mac(
                    0xFFFF, block, 0, static_cast<std::int32_t>(b),
                    static_cast<RowIndex>(blk), 0));
            prog.push_back(PimInstruction::rdOut(0xFFFF, batch, 0, 0));
        }
    }
    return prog;
}

DpaProgram
lowerFcDpa(const MatchedKernel &match, const AimTimingParams &params)
{
    // FC has constant trip counts; DPA wraps the same structure in
    // constant loops (no token dependence, near-identical size).
    DpaProgram p;
    unsigned din_tiles = static_cast<unsigned>(
        ceilDiv<std::uint64_t>(match.din, 16));
    unsigned dout_groups = static_cast<unsigned>(
        ceilDiv<std::uint64_t>(match.dout, 16));
    unsigned block = std::min(din_tiles,
                              std::max(1u, params.gbufEntries / 2));
    unsigned n_blocks = ceilDiv(din_tiles, block);
    p.pushDynLoop(LoopBound::Constant, n_blocks);
    p.pushInstr(PimInstruction::wrInp(0xFFFF, block, 0, 0));
    p.pushDynLoop(LoopBound::Constant, dout_groups);
    p.pushInstr(PimInstruction::mac(0xFFFF, block, 0, 0, 0, 0));
    p.pushDynModi(ModiField::Row, 1);
    p.pushInstr(PimInstruction::rdOut(0xFFFF, 1, 0, 0));
    p.pushEndLoop();
    p.pushEndLoop();
    return p;
}

} // namespace

LoweredKernel
lowerKernel(const MatchedKernel &match, const AimTimingParams &params,
            Tokens t_max)
{
    LoweredKernel out;
    out.match = match;
    switch (match.kernelClass) {
      case PimKernelClass::Qkt:
      case PimKernelClass::Sv:
        out.staticProgram = lowerAttentionStatic(match, params, t_max);
        out.dpaProgram = lowerAttentionDpa(match, params);
        break;
      case PimKernelClass::Fc:
        out.staticProgram = lowerFcStatic(match, params);
        out.dpaProgram = lowerFcDpa(match, params);
        break;
    }
    return out;
}

Bytes
staticProgramBytes(const LoweredKernel &kernel)
{
    return programBytes(kernel.staticProgram);
}

Bytes
dpaProgramBytes(const LoweredKernel &kernel)
{
    return kernel.dpaProgram.encodedBytes();
}

} // namespace pimphony
