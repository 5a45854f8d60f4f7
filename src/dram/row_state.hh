/**
 * @file
 * Lock-step row state for an AiM channel.
 *
 * All-bank MAC commands activate the same row index in every bank of
 * the channel simultaneously, so the channel behaves as one wide bank
 * with respect to row open/close dynamics. This tracker accounts for
 * the activate/precharge latency incurred when a command stream moves
 * between rows, and counts row switches for the energy model.
 */

#ifndef PIMPHONY_DRAM_ROW_STATE_HH
#define PIMPHONY_DRAM_ROW_STATE_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/timing.hh"

namespace pimphony {

/** Logical row index within a channel's weight/KV layout. */
using RowIndex = std::int64_t;

/** Sentinel meaning "no row open". */
inline constexpr RowIndex kNoRow = -1;

class RowStateTracker
{
  public:
    explicit RowStateTracker(const AimTimingParams &params)
        : params_(params)
    {
    }

    /**
     * Prepare @p row for access.
     *
     * @return the extra cycles (precharge + activate) the access must
     * wait before the row buffer holds @p row; 0 when it is already
     * open.
     */
    Cycle
    prepare(RowIndex row)
    {
        if (row == openRow_)
            return 0;
        Cycle penalty = 0;
        if (openRow_ != kNoRow) {
            penalty += params_.tRp;
            ++precharges_;
        }
        penalty += params_.tRcdRd;
        ++activates_;
        openRow_ = row;
        return penalty;
    }

    /** Close the open row (end-of-kernel or refresh). */
    void
    close()
    {
        if (openRow_ != kNoRow) {
            ++precharges_;
            openRow_ = kNoRow;
        }
    }

    RowIndex openRow() const { return openRow_; }
    std::uint64_t activates() const { return activates_; }
    std::uint64_t precharges() const { return precharges_; }

  private:
    const AimTimingParams &params_;
    RowIndex openRow_ = kNoRow;
    std::uint64_t activates_ = 0;
    std::uint64_t precharges_ = 0;
};

} // namespace pimphony

#endif // PIMPHONY_DRAM_ROW_STATE_HH
