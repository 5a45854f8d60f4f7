/**
 * @file
 * All-bank refresh model.
 *
 * The channel must pause command issue for tRFC every tREFI on
 * average. The tracker tells the channel simulator, for a given issue
 * time, how far the issue must be pushed back to account for any
 * refresh windows that have become due.
 */

#ifndef PIMPHONY_DRAM_REFRESH_HH
#define PIMPHONY_DRAM_REFRESH_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/timing.hh"

namespace pimphony {

class RefreshModel
{
  public:
    explicit RefreshModel(const AimTimingParams &params)
        : params_(params), nextDue_(params.tRefi)
    {
    }

    /**
     * Adjust a tentative issue time for refresh interference.
     *
     * Any refresh whose due time precedes @p tentative stalls the bus
     * for tRFC; dues accumulate while a long command burst runs.
     *
     * @return the adjusted issue time (>= @p tentative).
     */
    Cycle
    adjust(Cycle tentative)
    {
        Cycle t = tentative;
        while (params_.tRefi > 0 && nextDue_ <= t) {
            t = nextDue_ + params_.tRfc > t ? nextDue_ + params_.tRfc : t;
            nextDue_ += params_.tRefi;
            ++refreshes_;
        }
        return t;
    }

    std::uint64_t refreshes() const { return refreshes_; }

  private:
    const AimTimingParams &params_;
    Cycle nextDue_;
    std::uint64_t refreshes_ = 0;
};

} // namespace pimphony

#endif // PIMPHONY_DRAM_REFRESH_HH
