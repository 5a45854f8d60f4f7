/**
 * @file
 * GDDR6-AiM timing and geometry parameters.
 *
 * The values model an AiMX-class PIM channel: 16 banks, a 2 KB shared
 * Global Buffer (64 x 32 B tiles), per-bank output registers, and a
 * command bus with a minimum command-to-command spacing (tCCDS).
 * Absolute values are calibrated so that the worked example of the
 * paper's Fig. 7 (static = 34 cycles) is reproduced; everything the
 * evaluation reports is a ratio, so only relative magnitudes matter.
 */

#ifndef PIMPHONY_DRAM_TIMING_HH
#define PIMPHONY_DRAM_TIMING_HH

#include <string>

#include "common/types.hh"
#include "common/units.hh"

namespace pimphony {

/**
 * Timing (command-clock cycles) and geometry of one PIM channel.
 */
struct AimTimingParams
{
    /** Command clock frequency, used to convert cycles to seconds. */
    double clockGhz = 1.0;

    /** Minimum issue-to-issue spacing on the shared command/data bus. */
    Cycle tCcds = 2;

    /**
     * WR-INP: one 32 B tile transferred from GPR into a GBuf entry.
     * The value reflects the effective per-tile landing latency over
     * the module-internal bus the PIM HUB shares across channels.
     */
    Cycle tWrInp = 24;

    /** MAC: one GBuf tile against one 32 B tile per bank, all banks. */
    Cycle tMac = 12;

    /** RD-OUT: drain 2 B from every bank (32 B total) into the GPR. */
    Cycle tRdOut = 24;

    /**
     * Row activate (closed -> open) latency; effective value, with
     * AiM's bank-parallel activation already folded in.
     */
    Cycle tRcdRd = 16;

    /** Row precharge (open -> closed) latency (effective). */
    Cycle tRp = 16;

    /** Average refresh interval. */
    Cycle tRefi = 3900;

    /** Refresh cycle time: channel stalls this long per refresh. */
    Cycle tRfc = 280;

    /** Banks operated in lock-step by each MAC command. */
    unsigned banksPerChannel = 16;

    /** GBuf capacity in 32 B entries (2 KB total). */
    unsigned gbufEntries = 64;

    /**
     * Output staging entries per channel.
     * Baseline hardware exposes a single accumulator set (OutRegs,
     * 4 B per bank); PIMphony's I/O-aware buffering widens this into
     * a multi-entry, dual-port Output Buffer (OBuf).
     */
    unsigned outputEntries = 1;

    /** Tile granularity moved by WR-INP / consumed by MAC. */
    Bytes tileBytes = 32;

    /** Row-buffer bytes per bank (one open row worth of weights). */
    Bytes rowBytesPerBank = 2048;

    /** Seconds per command-clock cycle. */
    double
    secondsPerCycle() const
    {
        return 1e-9 / clockGhz;
    }

    /** Bytes of weight data covered by one all-bank open row. */
    Bytes
    rowBytesPerChannel() const
    {
        return rowBytesPerBank * banksPerChannel;
    }

    /** Bytes consumed from DRAM by a single all-bank MAC command. */
    Bytes
    macBytesPerCommand() const
    {
        return tileBytes * banksPerChannel;
    }

    /**
     * fatal() on a channel no schedule can run on, naming the field
     * under @p path: clockGhz must be positive, tCcds at least 1,
     * tRfc below tRefi unless refresh is off (tRefi == 0), and both
     * buffers must hold at least one entry.
     */
    void validate(const std::string &path = "AimTimingParams::") const;

    /** Baseline AiMX-calibrated preset (static OutRegs). */
    static AimTimingParams aimx();

    /** AiMX preset with PIMphony's I/O-aware buffering (OBuf). */
    static AimTimingParams aimxWithObuf(unsigned obuf_entries = 16);

    /**
     * Pedagogical parameters of the paper's Fig. 7 worked example
     * (tCCDS=2, tWR-INP=4, tMAC=3, tRD-OUT=4, no refresh), chosen so
     * the 11-command GEMV schedules in exactly 34 cycles statically.
     */
    static AimTimingParams illustrative();
};

} // namespace pimphony

#endif // PIMPHONY_DRAM_TIMING_HH
