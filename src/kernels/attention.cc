#include "kernels/attention.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"
#include "kernels/emitter.hh"

namespace pimphony {

std::vector<PimInstruction>
buildQktProgram(const AttentionSpec &spec, const AimTimingParams &params,
                bool pingpong)
{
    if (spec.tokens == 0 || spec.headDim == 0 || spec.headDim % 16 != 0)
        panic("bad attention spec (tokens=%llu headDim=%u)",
              static_cast<unsigned long long>(spec.tokens), spec.headDim);

    Emitter em(params, pingpong);
    const unsigned q_tiles = spec.headDim / 16;
    const std::uint64_t token_groups = ceilDiv<Tokens>(spec.tokens, 16);
    const unsigned g = std::max(1u, spec.gqaGroup);
    const unsigned half_g = em.halfGbuf();
    const unsigned ocap = em.outCap();
    const std::uint64_t per_row = em.macsPerRow();

    // Queries stay resident when they fit in half the GBuf (the other
    // half is streaming headroom); otherwise row-reuse swaps them in
    // per row chunk -- the WR-INP pressure Fig. 9 attributes to GQA.
    const bool resident = g * q_tiles <= half_g;

    if (!spec.rowReuse) {
        // Input-reuse mapping: one pass over the whole KV range per
        // query; every row is re-activated g times.
        for (unsigned q = 0; q < g; ++q) {
            int region = static_cast<int>(q % 2);
            unsigned base = (q % 2) * half_g;
            em.writeInputs(base, q_tiles, region,
                           static_cast<std::int64_t>(q) * q_tiles);
            std::uint64_t slot = 0;
            for (std::uint64_t tg = 0; tg < token_groups; ++tg) {
                std::int32_t out = em.outEntry(slot, region);
                em.macRun(base, q_tiles, out, tg * q_tiles, 1, region);
                em.queueDrain(out, region);
                ++slot;
                if (slot % ocap == 0)
                    em.flushDrains();
            }
            em.flushDrains();
        }
        return std::move(em.program);
    }

    // Row-reuse mapping.
    const std::uint64_t tg_per_chunk = std::max<std::uint64_t>(
        1, per_row / q_tiles);
    const std::uint64_t chunks = ceilDiv(token_groups, tg_per_chunk);

    if (resident) {
        for (unsigned q = 0; q < g; ++q)
            em.writeInputs(q * q_tiles, q_tiles, 0,
                           static_cast<std::int64_t>(q) * q_tiles);
    }

    std::uint64_t slot = 0;
    const unsigned swap_slots = std::max(1u, half_g / q_tiles);
    std::uint64_t swap_counter = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        int region = static_cast<int>(c % 2);
        std::uint64_t tg_lo = c * tg_per_chunk;
        std::uint64_t tg_hi =
            std::min<std::uint64_t>(tg_lo + tg_per_chunk, token_groups);
        for (unsigned q = 0; q < g; ++q) {
            unsigned base;
            int run_region;
            if (resident) {
                base = q * q_tiles;
                // Output-side double buffering: regions alternate
                // with the drain batches.
                run_region = static_cast<int>((slot / ocap) % 2);
            } else {
                run_region = region;
                base = (pingpong ? (c % 2) * half_g : 0u) +
                       static_cast<unsigned>(swap_counter % swap_slots) *
                           q_tiles;
                ++swap_counter;
                em.writeInputs(base, q_tiles, run_region,
                               static_cast<std::int64_t>(q) * q_tiles);
            }
            for (std::uint64_t tg = tg_lo; tg < tg_hi; ++tg) {
                if (resident)
                    run_region = static_cast<int>((slot / ocap) % 2);
                std::int32_t out = em.outEntry(slot, run_region);
                em.macRun(base, q_tiles, out, tg * q_tiles, 1, run_region);
                em.queueDrain(out, run_region);
                ++slot;
                if (slot % ocap == 0)
                    em.flushDrains();
            }
        }
        if (!resident)
            em.flushDrains(); // regions switch at the chunk boundary
    }
    em.flushDrains();
    return std::move(em.program);
}

std::vector<PimInstruction>
buildSvProgram(const AttentionSpec &spec, const AimTimingParams &params,
               bool pingpong)
{
    if (spec.tokens == 0 || spec.headDim == 0 || spec.headDim % 16 != 0)
        panic("bad attention spec (tokens=%llu headDim=%u)",
              static_cast<unsigned long long>(spec.tokens), spec.headDim);

    Emitter em(params, pingpong);
    const unsigned j_tiles = spec.headDim / 16; // output dim groups
    const std::uint64_t token_groups = ceilDiv<Tokens>(spec.tokens, 16);
    const unsigned g = std::max(1u, spec.gqaGroup);
    const unsigned half_g = em.halfGbuf();
    const unsigned ocap = em.outCap();
    const std::uint64_t per_row = em.macsPerRow();

    if (!spec.rowReuse) {
        // Input-reuse: per query, stream all score tiles in half-GBuf
        // blocks; every V row re-activated per query.
        for (unsigned q = 0; q < g; ++q) {
            std::uint64_t n_blocks = ceilDiv<std::uint64_t>(
                token_groups, half_g);
            for (std::uint64_t blk = 0; blk < n_blocks; ++blk) {
                unsigned tiles = static_cast<unsigned>(
                    std::min<std::uint64_t>(half_g,
                                            token_groups - blk * half_g));
                unsigned base = (blk % 2) * half_g;
                int region = static_cast<int>(blk % 2);
                em.writeInputs(base, tiles, region,
                               static_cast<std::int64_t>(q) *
                                       static_cast<std::int64_t>(
                                           token_groups) +
                                   static_cast<std::int64_t>(blk) *
                                       half_g);
                for (unsigned j = 0; j < j_tiles; ++j) {
                    std::int32_t out = em.outEntry(j, region);
                    em.macRun(base, tiles, out, blk * half_g * j_tiles + j,
                              j_tiles, region);
                    em.queueDrain(out, region);
                    if ((j + 1) % ocap == 0)
                        em.flushDrains();
                }
                em.flushDrains();
            }
        }
        return std::move(em.program);
    }

    // Row-reuse: per DRAM row chunk, all g queries consume the open V
    // rows; (q, j) partials are drained per chunk and EPU-reduced.
    const std::uint64_t tg_per_chunk = std::max<std::uint64_t>(
        1, per_row / j_tiles);
    const std::uint64_t chunks = ceilDiv(token_groups, tg_per_chunk);
    const unsigned score_slots = std::max(
        1u, half_g / std::max(1u, static_cast<unsigned>(tg_per_chunk)));
    std::uint64_t swap_counter = 0;

    for (std::uint64_t c = 0; c < chunks; ++c) {
        std::uint64_t tg_lo = c * tg_per_chunk;
        std::uint64_t tg_hi =
            std::min<std::uint64_t>(tg_lo + tg_per_chunk, token_groups);
        unsigned tgs = static_cast<unsigned>(tg_hi - tg_lo);
        for (unsigned q = 0; q < g; ++q) {
            int region = static_cast<int>(swap_counter % 2);
            unsigned base =
                (pingpong ? (swap_counter % 2) * half_g : 0u) +
                static_cast<unsigned>((swap_counter / (pingpong ? 2 : 1)) %
                                      score_slots) *
                    static_cast<unsigned>(tg_per_chunk);
            ++swap_counter;
            // Scores of query q for this chunk's tokens.
            em.writeInputs(base, tgs, region,
                           static_cast<std::int64_t>(q) *
                                   static_cast<std::int64_t>(
                                       token_groups) +
                               static_cast<std::int64_t>(tg_lo));
            std::uint64_t slot_base =
                static_cast<std::uint64_t>(q) * j_tiles;
            for (unsigned j = 0; j < j_tiles; ++j) {
                std::int32_t out = em.outEntry(slot_base + j, region);
                em.macRun(base, tgs, out, tg_lo * j_tiles + j, j_tiles,
                          region);
                em.queueDrain(out, region);
                if (em.drain.opSize >= ocap)
                    em.flushDrains();
            }
            em.flushDrains();
        }
    }
    em.flushDrains();
    return std::move(em.program);
}

} // namespace pimphony
