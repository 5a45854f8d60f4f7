/**
 * @file
 * Abstract PIM command scheduler interface and factory.
 *
 * Three controllers are modelled (Sec. V / Fig. 18 of the paper):
 *
 *  - Static: in-order issue with conservative type-based timing gaps
 *    derived from fixed command execution times; commands unrolled
 *    from one instruction stream at tCCDS.
 *  - PingPong: buffers split into two regions; I/O on one region may
 *    overlap compute on the other, with hand-off stalls at region
 *    swaps (the prior-work baseline of Fig. 18).
 *  - Dcs: PIMphony's Dynamic Command Scheduling with a D-Table and
 *    S-Table tracking per-entry dependencies, an I/O queue and a
 *    compute queue issued out-of-order with respect to each other.
 *
 * The pieces they share live here, once. Channel::issue is the issue
 * step every controller calls: row opening, refresh, completion,
 * makespan, timeline, stall attribution and kind counts.
 * scheduleTwoQueues is the I/O-queue/compute-queue loop of ping-pong
 * and DCS; each of the two supplies only its readiness rule and its
 * bookkeeping after an issue.
 */

#ifndef PIMPHONY_PIM_SCHEDULER_HH
#define PIMPHONY_PIM_SCHEDULER_HH

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "dram/refresh.hh"
#include "dram/row_state.hh"
#include "dram/timing.hh"
#include "isa/pim_command.hh"
#include "pim/schedule_result.hh"

namespace pimphony {

enum class SchedulerKind {
    Static,
    PingPong,
    Dcs,
};

std::string schedulerName(SchedulerKind kind);

class CommandScheduler
{
  public:
    /** Validates @p params (AimTimingParams::validate). */
    explicit CommandScheduler(const AimTimingParams &params);

    virtual ~CommandScheduler() = default;

    /**
     * Schedule @p stream on one channel starting at cycle 0.
     *
     * @param stream commands in program order.
     * @param keep_timeline retain per-command issue/complete times.
     */
    virtual ScheduleResult schedule(const CommandStream &stream,
                                    bool keep_timeline = false) = 0;

    const AimTimingParams &params() const { return params_; }

  protected:
    static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

    /** Execution duration of a command by kind. */
    Cycle
    duration(CommandKind kind) const
    {
        switch (kind) {
          case CommandKind::WrInp: return params_.tWrInp;
          case CommandKind::Mac:   return params_.tMac;
          case CommandKind::RdOut: return params_.tRdOut;
        }
        return 0;
    }

    struct Issued
    {
        Cycle issue;
        Cycle complete;
    };

    /** The channel during one schedule: rows, refresh, the result. */
    class Channel
    {
      public:
        Channel(const CommandScheduler &sched, std::size_t commands,
                bool keep_timeline)
            : sched_(sched), rows_(sched.params_),
              refresh_(sched.params_), keepTimeline_(keep_timeline)
        {
            if (keep_timeline)
                result_.timeline.resize(commands);
        }

        /**
         * The issue step: issue @p cmd at @p earliest, later when a
         * MAC must open its row or a refresh falls due. @p stall
         * cycles of the wait before @p earliest are charged to
         * @p cause: WR-INP to DT-GBuf, RD-OUT to DT-OutReg, MAC to
         * the pipeline penalty.
         */
        Issued
        issue(const PimCommand &cmd, Cycle earliest, Cycle stall,
              CommandKind cause)
        {
            LatencyBreakdown &b = result_.breakdown;
            switch (cause) {
              case CommandKind::WrInp: b.dtGbufCycles += stall; break;
              case CommandKind::RdOut: b.dtOutregCycles += stall; break;
              case CommandKind::Mac: b.pipelinePenaltyCycles += stall; break;
            }
            Cycle tentative = earliest;
            switch (cmd.kind) {
              case CommandKind::WrInp: ++result_.wrInpCount; break;
              case CommandKind::RdOut: ++result_.rdOutCount; break;
              case CommandKind::Mac: {
                ++result_.macCount;
                Cycle act_pre = rows_.prepare(cmd.row);
                b.actPreCycles += act_pre;
                tentative += act_pre;
                break;
              }
            }
            Cycle issue = refresh_.adjust(tentative);
            b.refreshCycles += issue - tentative;
            Cycle complete = issue + sched_.duration(cmd.kind);
            result_.makespan = std::max(result_.makespan, complete);
            if (keepTimeline_)
                result_.timeline[cmd.id] = {cmd, issue, complete};
            return {issue, complete};
        }

        /** Fill the derived fields (utilization, residual penalty). */
        ScheduleResult finalize();

      private:
        const CommandScheduler &sched_;
        RowStateTracker rows_;
        RefreshModel refresh_;
        bool keepTimeline_;
        ScheduleResult result_;
    };

    /** A two-queue readiness rule's verdict on a queue head. */
    struct Readiness
    {
        /** Earliest issue cycle; kNever while a dependency waits. */
        Cycle at = 0;

        /** Whether bus idle time up to `at` is a stall of `cause`. */
        bool charged = false;
        CommandKind cause = CommandKind::Mac;
    };

    /**
     * Issue @p stream from two in-order queues, I/O (WR-INP, RD-OUT)
     * and compute (MAC), out of order with respect to each other.
     * Each step issues the head with the earlier candidate cycle
     * max(readiness, bus free); a tie goes to compute to keep the
     * MACs fed.
     *
     * @p rule supplies `Readiness ready(std::size_t idx, bool io,
     * const std::vector<bool> &issued, const std::vector<Cycle>
     * &complete)` for a queue head, given which commands have issued
     * and when they complete, and `void onIssue(std::size_t idx,
     * bool io, Issued at)`.
     */
    template <class Rule>
    ScheduleResult
    scheduleTwoQueues(const CommandStream &stream, bool keep_timeline,
                      Rule &rule, const char *controller) const
    {
        const auto &cmds = stream.commands();
        std::vector<std::size_t> queue[2]; // [0] compute, [1] I/O
        queue[0].reserve(cmds.size());
        queue[1].reserve(cmds.size());
        for (std::size_t i = 0; i < cmds.size(); ++i)
            queue[isIoCommand(cmds[i].kind)].push_back(i);

        std::vector<Cycle> complete(cmds.size(), kNever);
        // Says what complete == kNever says, but dropping it lets
        // glibc trim the heap after each kernel: the paper benches'
        // stream builds then fault every page again (30x the minor
        // faults in bench_fig17_scaling --smoke).
        std::vector<bool> issued(cmds.size(), false);
        Channel channel(*this, cmds.size(), keep_timeline);
        std::size_t head[2] = {0, 0};
        Cycle bus_free = 0;
        for (std::size_t left = cmds.size(); left > 0; --left) {
            Readiness ready[2];
            Cycle cand[2];
            for (int io = 0; io < 2; ++io) {
                if (head[io] < queue[io].size())
                    ready[io] =
                        rule.ready(queue[io][head[io]], io, issued, complete);
                else
                    ready[io].at = kNever;
                cand[io] = ready[io].at == kNever
                    ? kNever : std::max(ready[io].at, bus_free);
            }
            if (ready[0].at == kNever && ready[1].at == kNever)
                panic("%s deadlock: both queue heads blocked", controller);

            const int io = cand[1] < cand[0];
            const std::size_t idx = queue[io][head[io]++];
            const Cycle stall = ready[io].charged ? cand[io] - bus_free : 0;
            Issued at =
                channel.issue(cmds[idx], cand[io], stall, ready[io].cause);
            complete[idx] = at.complete;
            issued[idx] = true;
            rule.onIssue(idx, io, at);
            bus_free = at.issue + params_.tCcds;
        }
        return channel.finalize();
    }

    AimTimingParams params_;
};

/** Create a scheduler of the requested kind. */
std::unique_ptr<CommandScheduler>
makeScheduler(SchedulerKind kind, const AimTimingParams &params);

} // namespace pimphony

#endif // PIMPHONY_PIM_SCHEDULER_HH
