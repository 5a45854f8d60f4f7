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
 *  - Dcs: PIMphony's Dynamic Command Scheduling with one table row
 *    per GBuf and output entry tracking its dependencies, an I/O
 *    queue and a compute queue issued out-of-order with respect to
 *    each other.
 *
 * The pieces they share live here, once. Channel::issue is the issue
 * step every controller calls: row opening, refresh, completion,
 * makespan, timeline, stall attribution and kind counts.
 * scheduleTwoQueues is the I/O-queue/compute-queue loop of ping-pong
 * and DCS; each of the two supplies only its readiness rule and its
 * per-resource bookkeeping, sized by the buffers, never by the stream.
 */

#ifndef PIMPHONY_PIM_SCHEDULER_HH
#define PIMPHONY_PIM_SCHEDULER_HH

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

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
     * Each queue is a cursor over the stream. The cursor further
     * ahead, the leading one, has passed the other class's commands
     * that have not issued yet; those, and only those, precede its
     * head in program order without having issued. @p rule supplies:
     *
     *  - `Readiness ready(const PimCommand &head, bool io, bool lead)`
     *    for a queue head; @p lead says whether its cursor leads.
     *  - `void hold(const PimCommand &cmd, int delta)`: +1 when the
     *    leading cursor passes @p cmd, -1 when @p cmd then issues. A
     *    rule counts these per resource (a buffer entry, a region);
     *    a leading head whose resource holds a command must wait.
     *  - `void onIssue(const PimCommand &cmd, bool io, Issued at)`.
     */
    template <class Rule>
    ScheduleResult
    scheduleTwoQueues(const CommandStream &stream, bool keep_timeline,
                      Rule &rule, const char *controller) const
    {
        const auto &cmds = stream.commands();
        const std::size_t n = cmds.size();
        std::size_t head[2] = {0, 0}; // [0] compute, [1] I/O; n when done
        // Move cursor @p io to its next command at or after @p from.
        auto advance = [&](int io, std::size_t from) {
            for (; from < n && isIoCommand(cmds[from].kind) != io; ++from)
                if (from >= head[!io])
                    rule.hold(cmds[from], +1);
            head[io] = from;
        };
        advance(0, 0);
        advance(1, 0);

        Channel channel(*this, n, keep_timeline);
        Cycle bus_free = 0;
        for (std::size_t left = n; left > 0; --left) {
            Readiness ready[2];
            Cycle cand[2];
            for (int io = 0; io < 2; ++io) {
                if (head[io] < n)
                    ready[io] = rule.ready(cmds[head[io]], io,
                                           head[io] > head[!io]);
                else
                    ready[io].at = kNever;
                cand[io] = ready[io].at == kNever
                    ? kNever : std::max(ready[io].at, bus_free);
            }
            if (ready[0].at == kNever && ready[1].at == kNever)
                panic("%s deadlock: both queue heads blocked", controller);

            const int io = cand[1] < cand[0];
            const PimCommand &cmd = cmds[head[io]];
            if (head[!io] > head[io])
                rule.hold(cmd, -1);
            const Cycle stall = ready[io].charged ? cand[io] - bus_free : 0;
            Issued at = channel.issue(cmd, cand[io], stall, ready[io].cause);
            rule.onIssue(cmd, io, at);
            bus_free = at.issue + params_.tCcds;
            advance(io, head[io] + 1);
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
