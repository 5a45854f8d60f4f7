#include "kernels/attention.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"

namespace pimphony {

namespace {

/** Attention-specific emitter with explicit row placement. */
struct AttEmitter
{
    CommandStream stream;
    const AimTimingParams &params;
    bool pingpong;
    std::int32_t nextGroup = 0;
    std::vector<std::int32_t> pendingDrains;
    int pendingRegion = 0;

    AttEmitter(const AimTimingParams &p, bool pp) : params(p), pingpong(pp) {}

    /** Half of the GBuf: the streaming/double-buffer granule. */
    unsigned
    halfGbuf() const
    {
        return std::max(1u, params.gbufEntries / 2);
    }

    /** Output entries usable per region (full set when not split). */
    unsigned
    outCap() const
    {
        unsigned cap =
            pingpong ? params.outputEntries / 2 : params.outputEntries;
        return cap == 0 ? 1 : cap;
    }

    std::uint64_t
    macsPerRow() const
    {
        std::uint64_t per =
            params.rowBytesPerChannel() / params.macBytesPerCommand();
        return per == 0 ? 1 : per;
    }

    /** Concrete output entry for an abstract slot in a region. */
    std::int32_t
    outEntry(std::uint64_t slot, int region) const
    {
        unsigned cap = outCap();
        if (!pingpong || params.outputEntries < 2)
            return static_cast<std::int32_t>(slot % cap);
        return static_cast<std::int32_t>((region & 1) * cap + slot % cap);
    }

    void
    push(PimCommand cmd, std::int32_t group, int region)
    {
        cmd.group = group;
        cmd.region = pingpong ? static_cast<std::int8_t>(region & 1) : -1;
        stream.append(cmd);
    }

    /** The i-th write carries logical source tile src_base + i. */
    void
    writeInputs(unsigned base, unsigned count, int region,
                std::int64_t src_base = 0)
    {
        std::int32_t grp = nextGroup++;
        for (unsigned i = 0; i < count; ++i) {
            auto cmd =
                PimCommand::wrInp(static_cast<std::int32_t>(base + i));
            cmd.src = static_cast<std::int32_t>(src_base + i);
            push(cmd, grp, region);
        }
    }

    /**
     * One accumulation run of @p count MACs into @p out; MAC i reads
     * GBuf entry gbuf_base + i * gbuf_stride and covers DRAM tile
     * dram_base + i.
     */
    void
    macRun(unsigned gbuf_base, int gbuf_stride, unsigned count,
           std::int32_t out, std::uint64_t dram_base, int region)
    {
        std::int32_t grp = nextGroup++;
        std::uint64_t per_row = macsPerRow();
        for (unsigned i = 0; i < count; ++i) {
            std::uint64_t pos = dram_base + i;
            RowIndex row = static_cast<RowIndex>(pos / per_row);
            std::int32_t col = static_cast<std::int32_t>(pos % per_row);
            push(PimCommand::mac(
                     static_cast<std::int32_t>(
                         gbuf_base + static_cast<unsigned>(gbuf_stride) * i),
                     out, row, col),
                 grp, region);
        }
    }

    /** Queue a drain; flushes carry the region of their batch. */
    void
    queueDrain(std::int32_t out, int region)
    {
        if (!pendingDrains.empty() && region != pendingRegion)
            flushDrains();
        pendingRegion = region;
        pendingDrains.push_back(out);
    }

    void
    flushDrains()
    {
        if (pendingDrains.empty())
            return;
        std::int32_t grp = nextGroup++;
        for (std::int32_t out : pendingDrains)
            push(PimCommand::rdOut(out), grp, pendingRegion);
        pendingDrains.clear();
    }
};

} // namespace

CommandStream
buildQktStream(const AttentionSpec &spec, const AimTimingParams &params,
               bool pingpong)
{
    if (spec.tokens == 0 || spec.headDim == 0 || spec.headDim % 16 != 0)
        panic("bad attention spec (tokens=%llu headDim=%u)",
              static_cast<unsigned long long>(spec.tokens), spec.headDim);

    AttEmitter em(params, pingpong);
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
                em.macRun(base, 1, q_tiles, out, tg * q_tiles, region);
                em.queueDrain(out, region);
                ++slot;
                if (slot % ocap == 0)
                    em.flushDrains();
            }
            em.flushDrains();
        }
        return std::move(em.stream);
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
                em.macRun(base, 1, q_tiles, out, tg * q_tiles,
                          run_region);
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
    return std::move(em.stream);
}

CommandStream
buildSvStream(const AttentionSpec &spec, const AimTimingParams &params,
              bool pingpong)
{
    if (spec.tokens == 0 || spec.headDim == 0 || spec.headDim % 16 != 0)
        panic("bad attention spec (tokens=%llu headDim=%u)",
              static_cast<unsigned long long>(spec.tokens), spec.headDim);

    AttEmitter em(params, pingpong);
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
                    std::int32_t grp = em.nextGroup++;
                    for (unsigned i = 0; i < tiles; ++i) {
                        std::uint64_t tg = blk * half_g + i;
                        std::uint64_t pos = tg * j_tiles + j;
                        RowIndex row =
                            static_cast<RowIndex>(pos / per_row);
                        std::int32_t col =
                            static_cast<std::int32_t>(pos % per_row);
                        em.push(PimCommand::mac(
                                    static_cast<std::int32_t>(base + i),
                                    out, row, col),
                                grp, region);
                    }
                    em.queueDrain(out, region);
                    if ((j + 1) % ocap == 0)
                        em.flushDrains();
                }
                em.flushDrains();
            }
        }
        return std::move(em.stream);
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
                std::int32_t grp = em.nextGroup++;
                for (unsigned i = 0; i < tgs; ++i) {
                    std::uint64_t tg = tg_lo + i;
                    std::uint64_t pos = tg * j_tiles + j;
                    RowIndex row = static_cast<RowIndex>(pos / per_row);
                    std::int32_t col =
                        static_cast<std::int32_t>(pos % per_row);
                    em.push(PimCommand::mac(
                                static_cast<std::int32_t>(base + i), out,
                                row, col),
                            grp, region);
                }
                em.queueDrain(out, region);
                if (em.pendingDrains.size() >= ocap)
                    em.flushDrains();
            }
            em.flushDrains();
        }
    }
    em.flushDrains();
    return std::move(em.stream);
}

} // namespace pimphony
