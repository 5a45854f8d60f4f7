/**
 * @file
 * The command emitter the GEMV and attention builders share.
 *
 * It carries the stream under construction, the instruction-group
 * numbering and the buffer geometry (halved per region for a ping-pong
 * controller), and emits the three command patterns every kernel is
 * made of: a burst of input writes, an accumulation run of MACs, and a
 * batch of output drains.
 */

#ifndef PIMPHONY_KERNELS_EMITTER_HH
#define PIMPHONY_KERNELS_EMITTER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dram/timing.hh"
#include "isa/pim_command.hh"

namespace pimphony {

struct Emitter
{
    CommandStream stream;
    const AimTimingParams &params;
    bool pingpong;
    std::int32_t nextGroup = 0;
    std::vector<std::int32_t> pendingDrains;
    int pendingRegion = 0;

    Emitter(const AimTimingParams &p, bool pp) : params(p), pingpong(pp) {}

    /** GBuf entries usable per region (full set when not split). */
    unsigned
    gbufCap() const
    {
        return pingpong ? params.gbufEntries / 2 : params.gbufEntries;
    }

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

    /** MACs that fit in one open row across the channel. */
    std::uint64_t
    macsPerRow() const
    {
        std::uint64_t per =
            params.rowBytesPerChannel() / params.macBytesPerCommand();
        return per == 0 ? 1 : per;
    }

    /**
     * Map an abstract output slot to a concrete entry. In ping-pong
     * mode each region owns one half of the output entries, so the
     * slot also determines the region of the commands touching it.
     */
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

    /** Write @p count tiles into GBuf starting at @p base; the i-th
     *  command carries logical source tile @p src_base + i. */
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
     * One accumulation run of @p count MACs into @p out: MAC i reads
     * GBuf entry gbuf_base + i and the weight/KV tile at DRAM position
     * dram_base + i * dram_stride (row = position / macsPerRow()).
     */
    void
    macRun(unsigned gbuf_base, unsigned count, std::int32_t out,
           std::uint64_t dram_base, std::uint64_t dram_stride, int region)
    {
        std::int32_t grp = nextGroup++;
        std::uint64_t per_row = macsPerRow();
        for (unsigned i = 0; i < count; ++i) {
            std::uint64_t pos = dram_base + i * dram_stride;
            RowIndex row = static_cast<RowIndex>(pos / per_row);
            std::int32_t col = static_cast<std::int32_t>(pos % per_row);
            push(PimCommand::mac(static_cast<std::int32_t>(gbuf_base + i),
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

    /** Drain the queued entries as one instruction group. */
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

} // namespace pimphony

#endif // PIMPHONY_KERNELS_EMITTER_HH
