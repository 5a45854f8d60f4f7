#include "pim/pingpong_scheduler.hh"

namespace pimphony {

ScheduleResult
PingPongScheduler::schedule(const CommandStream &stream, bool keep_timeline)
{
    // The split-buffer controller tracks hazards only at region
    // granularity: an I/O command on region r must order after every
    // compute command on r that precedes it, and vice versa.
    struct Rule
    {
        const PingPongScheduler &sched;
        // Commands per region the leading queue has passed and that
        // have not issued yet.
        int held[2] = {0, 0};
        int curRegion[2] = {-1, -1}; // [0] compute, [1] I/O
        // Completion horizons: per class, overall and per region.
        Cycle horizon[2] = {0, 0};
        Cycle regionHorizon[2][2] = {{0, 0}, {0, 0}};
        Cycle prevIssue[2] = {0, 0};
        std::int32_t prevGroup[2] = {-2, -2};
        CommandKind prevKind[2] = {CommandKind::Mac, CommandKind::Mac};
        bool have[2] = {false, false};

        static int
        region(const PimCommand &c)
        {
            if (c.region != 0 && c.region != 1)
                panic("ping-pong scheduler requires region tags (got %d)",
                      c.region);
            return c.region;
        }

        Readiness
        ready(const PimCommand &c, bool io, bool lead) const
        {
            // Region hand-offs and cross-class waits are the
            // structural stalls this controller suffers.
            Readiness r{0, true, CommandKind::Mac};
            const int reg = region(c);
            if (lead && held[reg] > 0) {
                r.at = kNever;
                return r;
            }
            const AimTimingParams &p = sched.params_;
            // With nothing of the opposite class held on this region,
            // its region horizon covers every command of that class
            // on the region that precedes this one.
            r.at = regionHorizon[!io][reg];
            if (have[io]) {
                bool streaming = c.kind == prevKind[io] && c.group >= 0 &&
                                 c.group == prevGroup[io];
                Cycle gap =
                    streaming ? p.tCcds : sched.duration(prevKind[io]);
                r.at = std::max(r.at, prevIssue[io] + gap);
            }
            // Hand-off: both regions must drain before a stream swaps
            // sides.
            if (reg != curRegion[io] && curRegion[io] >= 0)
                r.at = std::max(r.at, horizon[!io]);
            return r;
        }

        void
        hold(const PimCommand &c, int delta)
        {
            held[region(c)] += delta;
        }

        void
        onIssue(const PimCommand &c, bool io, Issued at)
        {
            curRegion[io] = c.region;
            prevIssue[io] = at.issue;
            prevGroup[io] = c.group;
            prevKind[io] = c.kind;
            have[io] = true;
            horizon[io] = std::max(horizon[io], at.complete);
            regionHorizon[io][c.region] =
                std::max(regionHorizon[io][c.region], at.complete);
        }
    } rule{*this};
    return scheduleTwoQueues(stream, keep_timeline, rule, "ping-pong");
}

} // namespace pimphony
