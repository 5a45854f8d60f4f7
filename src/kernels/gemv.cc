#include "kernels/gemv.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"
#include "kernels/emitter.hh"

namespace pimphony {

GemvSpec
GemvSpec::fromDims(std::uint64_t dout, std::uint64_t din)
{
    GemvSpec s;
    s.doutGroups = static_cast<std::uint32_t>(ceilDiv<std::uint64_t>(
        dout, 16));
    s.dinTiles = static_cast<std::uint32_t>(ceilDiv<std::uint64_t>(
        din, 16));
    return s;
}

std::vector<PimInstruction>
buildGemvProgram(const GemvSpec &spec, const AimTimingParams &params,
                 bool pingpong)
{
    if (spec.doutGroups == 0 || spec.dinTiles == 0)
        panic("GEMV spec with zero extent");

    Emitter em(params, pingpong);
    unsigned gcap = em.gbufCap();
    unsigned ocap = em.outCap();
    // Row-reuse layout: every MAC reads the next DRAM tile.
    std::uint64_t dram = 0;
    auto mac_run = [&](unsigned base, unsigned tiles, std::int32_t out,
                       int region) {
        em.macRun(base, tiles, out, dram, 1, region);
        dram += tiles;
    };

    if (spec.dinTiles <= gcap) {
        // Input-resident: one write pass, then batched output groups.
        // The output side ping-pongs by alternating batch regions.
        em.writeInputs(0, spec.dinTiles, 0);
        std::uint32_t batch_idx = 0;
        for (std::uint32_t g0 = 0; g0 < spec.doutGroups;
             g0 += ocap, ++batch_idx) {
            int region = static_cast<int>(batch_idx % 2);
            std::uint32_t batch =
                std::min<std::uint32_t>(ocap, spec.doutGroups - g0);
            for (std::uint32_t b = 0; b < batch; ++b)
                mac_run(0, spec.dinTiles, em.outEntry(b, region), region);
            for (std::uint32_t b = 0; b < batch; ++b)
                em.queueDrain(em.outEntry(b, region), region);
            em.flushDrains();
        }
        return std::move(em.program);
    }

    // Input-streaming: blocks of half the full GBuf, alternating
    // halves (software double buffering; in ping-pong mode each half
    // is one region).
    unsigned block = em.halfGbuf();
    std::uint32_t n_blocks = ceilDiv<std::uint32_t>(spec.dinTiles, block);

    if (spec.doutGroups <= ocap) {
        // All output groups accumulate in place across blocks.
        for (std::uint32_t blk = 0; blk < n_blocks; ++blk) {
            unsigned tiles = std::min<std::uint32_t>(
                block, spec.dinTiles - blk * block);
            unsigned base = (blk % 2) * block;
            em.writeInputs(base, tiles, blk % 2,
                           static_cast<std::int64_t>(blk) * block);
            for (std::uint32_t g = 0; g < spec.doutGroups; ++g)
                mac_run(base, tiles, static_cast<std::int32_t>(g), blk % 2);
        }
        for (std::uint32_t g = 0; g < spec.doutGroups; ++g)
            em.queueDrain(static_cast<std::int32_t>(g), (n_blocks - 1) % 2);
        em.flushDrains();
        return std::move(em.program);
    }

    // Partial-drain dataflow: per block, every output group produces
    // a partial sum that is drained and reduced by the EPU.
    for (std::uint32_t blk = 0; blk < n_blocks; ++blk) {
        unsigned tiles =
            std::min<std::uint32_t>(block, spec.dinTiles - blk * block);
        unsigned base = (blk % 2) * block;
        int region = blk % 2;
        em.writeInputs(base, tiles, region,
                       static_cast<std::int64_t>(blk) * block);
        for (std::uint32_t g0 = 0; g0 < spec.doutGroups; g0 += ocap) {
            std::uint32_t batch =
                std::min<std::uint32_t>(ocap, spec.doutGroups - g0);
            for (std::uint32_t b = 0; b < batch; ++b)
                mac_run(base, tiles, em.outEntry(b, region), region);
            for (std::uint32_t b = 0; b < batch; ++b)
                em.queueDrain(em.outEntry(b, region), region);
            em.flushDrains();
        }
    }
    return std::move(em.program);
}

std::uint64_t
gemvPartialReductions(const GemvSpec &spec, const AimTimingParams &params)
{
    unsigned gcap = params.gbufEntries;
    unsigned ocap = params.outputEntries == 0 ? 1 : params.outputEntries;
    if (spec.dinTiles <= gcap || spec.doutGroups <= ocap)
        return 0;
    unsigned block = std::max(1u, gcap / 2);
    std::uint32_t n_blocks = ceilDiv<std::uint32_t>(spec.dinTiles, block);
    // One partial per (block, group) beyond the first block.
    return static_cast<std::uint64_t>(n_blocks - 1) * spec.doutGroups;
}

} // namespace pimphony
