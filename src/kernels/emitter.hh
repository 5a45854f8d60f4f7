/**
 * @file
 * The instruction emitter the GEMV and attention builders share.
 *
 * It carries the program under construction and the buffer geometry
 * (halved per region for a ping-pong controller), and emits the three
 * Table III instructions every kernel is made of: a WR-INP burst of
 * input tiles, a MAC accumulation run, and a RD-OUT batch of output
 * drains. expandProgram (isa/pim_instruction.hh) unrolls the program
 * into the commands the controllers time, one instruction group per
 * instruction.
 */

#ifndef PIMPHONY_KERNELS_EMITTER_HH
#define PIMPHONY_KERNELS_EMITTER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dram/timing.hh"
#include "isa/pim_instruction.hh"

namespace pimphony {

struct Emitter
{
    std::vector<PimInstruction> program;
    const AimTimingParams &params;
    bool pingpong;

    /** The RD-OUT batch being gathered; Op-size 0 while empty. */
    PimInstruction drain = PimInstruction::rdOut(0x1, 0, 0, 0);
    int drainRegion = 0;

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
    push(PimInstruction instr, int region)
    {
        instr.region = pingpong ? static_cast<std::int8_t>(region & 1) : -1;
        program.push_back(instr);
    }

    /** Write @p count tiles into GBuf starting at @p base; the i-th
     *  command carries logical source tile @p src_base + i. */
    void
    writeInputs(unsigned base, unsigned count, int region,
                std::int64_t src_base = 0)
    {
        push(PimInstruction::wrInp(0x1, count,
                                   static_cast<std::uint64_t>(src_base),
                                   static_cast<std::int32_t>(base)),
             region);
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
        std::uint64_t per_row = macsPerRow();
        auto mac = PimInstruction::mac(
            0x1, count, static_cast<std::int32_t>(gbuf_base), out,
            static_cast<RowIndex>(dram_base / per_row),
            static_cast<std::int32_t>(dram_base % per_row),
            static_cast<std::int32_t>(per_row));
        mac.colStride = static_cast<std::int32_t>(dram_stride);
        push(mac, region);
    }

    /** Add a drain to the batch; a change of region, or an entry that
     *  does not follow the batch's last, flushes the batch first. */
    void
    queueDrain(std::int32_t out, int region)
    {
        if (drain.opSize > 0 &&
            (region != drainRegion ||
             out != drain.outIdx + static_cast<std::int32_t>(drain.opSize)))
            flushDrains();
        if (drain.opSize == 0)
            drain.outIdx = out;
        drainRegion = region;
        ++drain.opSize;
    }

    /** Drain the batch as one RD-OUT instruction. */
    void
    flushDrains()
    {
        if (drain.opSize == 0)
            return;
        push(drain, drainRegion);
        drain.opSize = 0;
    }
};

} // namespace pimphony

#endif // PIMPHONY_KERNELS_EMITTER_HH
