#include "pim/scheduler.hh"

#include <utility>

#include "pim/dcs_scheduler.hh"
#include "pim/pingpong_scheduler.hh"
#include "pim/static_scheduler.hh"

namespace pimphony {

std::string
schedulerName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Static:   return "static";
      case SchedulerKind::PingPong: return "ping-pong";
      case SchedulerKind::Dcs:      return "dcs";
    }
    return "?";
}

CommandScheduler::CommandScheduler(const AimTimingParams &params)
    : params_(params)
{
    params_.validate();
}

ScheduleResult
CommandScheduler::Channel::finalize()
{
    ScheduleResult &result = result_;
    const AimTimingParams &params = sched_.params_;
    result.activates = rows_.activates();
    result.precharges = rows_.precharges();
    result.refreshes = refresh_.refreshes();

    result.macBusyCycles = result.macCount * params.tCcds;
    result.breakdown.macCycles = result.macBusyCycles;

    // Bus occupancy of the I/O commands themselves counts as data
    // transfer time; the issue step charged the stalls. Whatever
    // remains of the makespan is the pipeline penalty (issue slots
    // lost to scheduling, ramp-up and drain).
    result.breakdown.dtGbufCycles += result.wrInpCount * params.tCcds;
    result.breakdown.dtOutregCycles += result.rdOutCount * params.tCcds;

    Cycle accounted = result.breakdown.total();
    if (result.makespan > accounted) {
        result.breakdown.pipelinePenaltyCycles += result.makespan - accounted;
    } else if (accounted > result.makespan) {
        // Attribution overlapped (e.g., refresh during a gap); shave
        // the surplus off the pipeline penalty first, then clamp.
        Cycle surplus = accounted - result.makespan;
        Cycle &pp = result.breakdown.pipelinePenaltyCycles;
        pp = pp > surplus ? pp - surplus : 0;
    }

    result.macUtilization =
        safeRatio(static_cast<double>(result.macBusyCycles),
                  static_cast<double>(result.makespan));
    return std::move(result);
}

std::unique_ptr<CommandScheduler>
makeScheduler(SchedulerKind kind, const AimTimingParams &params)
{
    switch (kind) {
      case SchedulerKind::Static:
        return std::make_unique<StaticScheduler>(params);
      case SchedulerKind::PingPong:
        return std::make_unique<PingPongScheduler>(params);
      case SchedulerKind::Dcs:
        return std::make_unique<DcsScheduler>(params);
    }
    panic("unknown scheduler kind");
}

} // namespace pimphony
