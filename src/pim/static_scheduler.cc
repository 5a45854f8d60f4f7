#include "pim/static_scheduler.hh"

namespace pimphony {

ScheduleResult
StaticScheduler::schedule(const CommandStream &stream, bool keep_timeline)
{
    Channel channel(*this, stream.size(), keep_timeline);
    Cycle prev_issue = 0;
    bool have_prev = false;
    CommandKind prev_kind = CommandKind::Mac;
    std::int32_t prev_group = -1;

    for (const auto &cmd : stream.commands()) {
        Cycle earliest = 0;
        Cycle gap_penalty = 0;
        if (have_prev) {
            bool streaming =
                cmd.kind == prev_kind && cmd.group >= 0 &&
                cmd.group == prev_group;
            Cycle gap = streaming ? params_.tCcds : duration(prev_kind);
            if (gap < params_.tCcds)
                gap = params_.tCcds;
            earliest = prev_issue + gap;
            gap_penalty = gap - params_.tCcds;
        }
        // The gap waits out the previous command: charge it by kind.
        prev_issue =
            channel.issue(cmd, earliest, gap_penalty, prev_kind).issue;
        prev_kind = cmd.kind;
        prev_group = cmd.group;
        have_prev = true;
    }
    return channel.finalize();
}

} // namespace pimphony
