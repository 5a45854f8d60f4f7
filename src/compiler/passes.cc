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
    // SV: per score block, one MAC per output dim group; the groups
    // share the output entries in batches of ocap, each drained by
    // one RD-OUT.
    unsigned block = std::max(1u, params.gbufEntries / 2);
    unsigned ocap = std::max(1u, params.outputEntries);
    p.pushDynLoop(LoopBound::TokensDiv, 0,
                  static_cast<std::uint64_t>(block) * 16);
    p.pushInstr(PimInstruction::wrInp(0xFFFF, block, 0, 0));
    for (unsigned j = 0; j < tiles; ++j) {
        p.pushInstr(PimInstruction::mac(0xFFFF, block, 0,
                                        static_cast<std::int32_t>(j % ocap),
                                        0, 0));
        const bool last = j + 1 == tiles;
        if (last)
            p.pushDynModi(ModiField::Row, 1);
        if (last || (j + 1) % ocap == 0)
            p.pushInstr(PimInstruction::rdOut(0xFFFF, j % ocap + 1, 0, 0));
    }
    p.pushEndLoop();
    return p;
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
    if (match.kernelClass == PimKernelClass::Fc) {
        out.staticProgram = buildGemvProgram(
            GemvSpec::fromDims(match.dout, match.din), params);
        out.dpaProgram = lowerFcDpa(match, params);
        return out;
    }
    // One head over t_max tokens, input-reuse mapping, one buffer
    // region: the builder's program a static compiler must unroll.
    AttentionSpec spec;
    spec.tokens = t_max;
    spec.rowReuse = false;
    if (match.kernelClass == PimKernelClass::Qkt) {
        spec.headDim = static_cast<std::uint32_t>(match.din);
        out.staticProgram = buildQktProgram(spec, params);
    } else {
        spec.headDim = static_cast<std::uint32_t>(match.dout);
        out.staticProgram = buildSvProgram(spec, params);
    }
    out.dpaProgram = lowerAttentionDpa(match, params);
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
