/**
 * @file
 * Results produced by scheduling a command stream on one PIM channel.
 *
 * The latency breakdown follows the categories of the paper's Fig. 8:
 * MAC computation, DRAM activate/precharge, refresh, I/O transfer time
 * into the Global Buffer (DT-GBuf) and out of the output registers
 * (DT-OutReg), and a residual pipeline penalty capturing cumulative
 * scheduling stalls. The components always sum to the makespan.
 */

#ifndef PIMPHONY_PIM_SCHEDULE_RESULT_HH
#define PIMPHONY_PIM_SCHEDULE_RESULT_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/pim_command.hh"

namespace pimphony {

struct ScheduledCommand
{
    PimCommand cmd;
    Cycle issue = 0;
    Cycle complete = 0;
};

struct LatencyBreakdown
{
    Cycle macCycles = 0;
    Cycle actPreCycles = 0;
    Cycle refreshCycles = 0;
    Cycle dtGbufCycles = 0;
    Cycle dtOutregCycles = 0;
    Cycle pipelinePenaltyCycles = 0;

    Cycle
    total() const
    {
        return macCycles + actPreCycles + refreshCycles + dtGbufCycles +
               dtOutregCycles + pipelinePenaltyCycles;
    }
};

struct ScheduleResult
{
    /** Completion time of the last command. */
    Cycle makespan = 0;

    LatencyBreakdown breakdown;

    /** Ideal MAC occupancy: #MAC commands x tCCDS. */
    Cycle macBusyCycles = 0;

    /** macBusyCycles / makespan. */
    double macUtilization = 0.0;

    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t refreshes = 0;

    std::uint64_t wrInpCount = 0;
    std::uint64_t macCount = 0;
    std::uint64_t rdOutCount = 0;

    /** Populated only when the caller asked to keep the timeline. */
    std::vector<ScheduledCommand> timeline;
};

} // namespace pimphony

#endif // PIMPHONY_PIM_SCHEDULE_RESULT_HH
