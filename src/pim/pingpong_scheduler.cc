#include "pim/pingpong_scheduler.hh"

namespace pimphony {

ScheduleResult
PingPongScheduler::schedule(const CommandStream &stream, bool keep_timeline)
{
    const auto &cmds = stream.commands();

    // --- Region-level ordering pass (program order). ---
    // The split-buffer controller tracks hazards only at region
    // granularity: an I/O command on region r must order after every
    // compute command on r that precedes it, and vice versa. We
    // record the last such command; per-region completion horizons at
    // schedule time cover the rest of the prefix.
    std::vector<CommandId> dep(cmds.size(), kNoCommand);
    CommandId last_io[2] = {kNoCommand, kNoCommand};
    CommandId last_comp[2] = {kNoCommand, kNoCommand};

    for (std::size_t i = 0; i < cmds.size(); ++i) {
        int r = cmds[i].region;
        if (r != 0 && r != 1)
            panic("ping-pong scheduler requires region tags (got %d)", r);
        if (isIoCommand(cmds[i].kind)) {
            dep[i] = last_comp[r];
            last_io[r] = cmds[i].id;
        } else {
            dep[i] = last_io[r];
            last_comp[r] = cmds[i].id;
        }
    }

    // --- Issue: region horizons, instruction gaps and hand-offs. ---
    struct Rule
    {
        const PingPongScheduler &sched;
        const std::vector<PimCommand> &cmds;
        const std::vector<CommandId> &dep;
        int curRegion[2] = {-1, -1}; // [0] compute, [1] I/O
        // Completion horizons: per class, overall and per region.
        Cycle horizon[2] = {0, 0};
        Cycle regionHorizon[2][2] = {{0, 0}, {0, 0}};
        Cycle prevIssue[2] = {0, 0};
        std::int32_t prevGroup[2] = {-2, -2};
        CommandKind prevKind[2] = {CommandKind::Mac, CommandKind::Mac};
        bool have[2] = {false, false};

        Rule(const PingPongScheduler &s, const std::vector<PimCommand> &c,
             const std::vector<CommandId> &d)
            : sched(s), cmds(c), dep(d)
        {
        }

        Readiness
        ready(std::size_t idx, bool io, const std::vector<bool> &issued,
              const std::vector<Cycle> &) const
        {
            // Region hand-offs and cross-class waits are the
            // structural stalls this controller suffers.
            Readiness r{0, true, CommandKind::Mac};
            if (dep[idx] != kNoCommand && !issued[dep[idx]]) {
                r.at = kNever;
                return r;
            }
            const PimCommand &c = cmds[idx];
            const AimTimingParams &p = sched.params_;
            // Region horizon of the opposite class covers every
            // already issued command of that class on this region;
            // the explicit dep guarantees the program-order prefix is
            // issued.
            r.at = regionHorizon[!io][c.region];
            if (have[io]) {
                bool streaming = c.kind == prevKind[io] && c.group >= 0 &&
                                 c.group == prevGroup[io];
                Cycle gap =
                    streaming ? p.tCcds : sched.duration(prevKind[io]);
                r.at = std::max(r.at, prevIssue[io] + gap);
            }
            // Hand-off: both regions must drain before a stream swaps
            // sides.
            if (c.region != curRegion[io] && curRegion[io] >= 0)
                r.at = std::max(r.at, horizon[!io]);
            return r;
        }

        void
        onIssue(std::size_t idx, bool io, Issued at)
        {
            const PimCommand &c = cmds[idx];
            curRegion[io] = c.region;
            prevIssue[io] = at.issue;
            prevGroup[io] = c.group;
            prevKind[io] = c.kind;
            have[io] = true;
            horizon[io] = std::max(horizon[io], at.complete);
            regionHorizon[io][c.region] =
                std::max(regionHorizon[io][c.region], at.complete);
        }
    } rule(*this, cmds, dep);
    return scheduleTwoQueues(stream, keep_timeline, rule, "ping-pong");
}

} // namespace pimphony
