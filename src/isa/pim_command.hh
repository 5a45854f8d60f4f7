/**
 * @file
 * Channel-level PIM command primitives.
 *
 * A command is the unit the PIM controller schedules (Sec. V of the
 * paper): WR-INP moves one 32 B tile from the GPR into a Global
 * Buffer entry, MAC consumes one GBuf entry against one weight tile
 * per bank (all banks in lock-step) accumulating into an output
 * entry, and RD-OUT drains one output entry (2 B per bank) back to
 * the GPR.
 */

#ifndef PIMPHONY_ISA_PIM_COMMAND_HH
#define PIMPHONY_ISA_PIM_COMMAND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/row_state.hh"

namespace pimphony {

enum class CommandKind : std::uint8_t {
    WrInp,
    Mac,
    RdOut,
};

/** True for the commands that move data over the channel I/O path. */
inline bool
isIoCommand(CommandKind kind)
{
    return kind == CommandKind::WrInp || kind == CommandKind::RdOut;
}

struct PimCommand
{
    CommandKind kind = CommandKind::Mac;

    /** Position in the stream. */
    CommandId id = 0;

    /** GBuf entry written (WR-INP) or read (MAC); -1 when unused. */
    std::int32_t gbufIdx = -1;

    /** Output entry accumulated (MAC) or drained (RD-OUT); -1 unused. */
    std::int32_t outIdx = -1;

    /** DRAM row holding the weight tiles (MAC only). */
    RowIndex row = kNoRow;

    /** Tile column within the row (MAC only). */
    std::int32_t col = -1;

    /**
     * Instruction group: commands unrolled from the same hub
     * instruction (same kind, consecutive addresses). A static
     * controller streams commands of one group at tCCDS and applies
     * its conservative timing gap only at group boundaries.
     */
    std::int32_t group = -1;

    /**
     * Ping-pong region tag (0/1) when the stream was generated for a
     * split-buffer controller; -1 otherwise.
     */
    std::int8_t region = -1;

    /**
     * Logical source-tile id carried by WR-INP commands (which input
     * tile of the kernel lands in the GBuf entry). Timing-neutral;
     * consumed by the dataflow checker to validate that kernels
     * compute exactly the right products.
     */
    std::int32_t src = -1;

    static PimCommand wrInp(std::int32_t gbuf_idx);
    static PimCommand mac(std::int32_t gbuf_idx, std::int32_t out_idx,
                          RowIndex row, std::int32_t col);
    static PimCommand rdOut(std::int32_t out_idx);

    std::string toString() const;
};

/**
 * An ordered command stream for one channel, with IDs assigned in
 * program order.
 */
class CommandStream
{
  public:
    void append(PimCommand cmd);
    void reserve(std::size_t n) { commands_.reserve(n); }

    const std::vector<PimCommand> &commands() const { return commands_; }
    std::size_t size() const { return commands_.size(); }
    bool empty() const { return commands_.empty(); }
    const PimCommand &operator[](std::size_t i) const { return commands_[i]; }

    /**
     * Structural validation: every MAC reads a GBuf entry that some
     * earlier WR-INP produced, every RD-OUT drains an output entry
     * some earlier MAC accumulated into, and indices stay within the
     * given buffer geometries.
     *
     * @return empty string when valid, else a diagnostic.
     */
    std::string validate(unsigned gbuf_entries,
                         unsigned output_entries) const;

  private:
    std::vector<PimCommand> commands_;
};

} // namespace pimphony

#endif // PIMPHONY_ISA_PIM_COMMAND_HH
