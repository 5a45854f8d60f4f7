/**
 * @file
 * Scheduler deep-dive: build one GQA attention kernel's PIM
 * instruction program, unroll it into the channel command stream
 * (expandProgram, the Instruction Sequencer's unroll), schedule it
 * under all three controllers, and print an ASCII occupancy timeline
 * plus the latency breakdown -- a miniature of the paper's Fig. 7/9
 * analysis you can edit and rerun.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "kernels/attention.hh"
#include "pim/scheduler.hh"

using namespace pimphony;

namespace {

void
asciiTimeline(const ScheduleResult &r, Cycle horizon)
{
    // One lane per command kind; '#' marks occupancy.
    const int width = 100;
    std::string lanes[3];
    for (auto &l : lanes)
        l.assign(width, '.');
    for (const auto &sc : r.timeline) {
        if (sc.issue >= horizon)
            continue;
        int lane = sc.cmd.kind == CommandKind::WrInp ? 0
            : sc.cmd.kind == CommandKind::Mac        ? 1
                                                     : 2;
        int lo = static_cast<int>(sc.issue * width / horizon);
        int hi = static_cast<int>(sc.complete * width / horizon);
        hi = std::min(hi, width - 1);
        for (int i = lo; i <= hi; ++i)
            lanes[lane][static_cast<std::size_t>(i)] = '#';
    }
    std::printf("    WR-INP |%s|\n", lanes[0].c_str());
    std::printf("    MAC    |%s|\n", lanes[1].c_str());
    std::printf("    RD-OUT |%s|\n", lanes[2].c_str());
}

} // namespace

int
main()
{
    setLogThreshold(LogLevel::Warn);

    AttentionSpec spec;
    spec.tokens = 512; // small enough to see the pipeline
    spec.headDim = 128;
    spec.gqaGroup = 4;
    spec.rowReuse = true;

    std::printf("QK^T kernel: %llu tokens, d_h=%u, GQA g=%u, "
                "row-reuse mapping\n\n",
                static_cast<unsigned long long>(spec.tokens),
                spec.headDim, spec.gqaGroup);

    Cycle horizon = 0;
    for (auto kind : {SchedulerKind::Static, SchedulerKind::PingPong,
                      SchedulerKind::Dcs}) {
        bool pingpong = kind == SchedulerKind::PingPong;
        AimTimingParams params = kind == SchedulerKind::Static
            ? AimTimingParams::aimx()
            : AimTimingParams::aimxWithObuf(16);
        auto stream = expandProgram(buildQktProgram(spec, params, pingpong));
        auto r = makeScheduler(kind, params)->schedule(stream, true);
        if (horizon == 0)
            horizon = r.makespan; // scale all lanes to the static run

        std::printf("[%s] %llu commands, %llu cycles, MAC util %.1f%%\n",
                    schedulerName(kind).c_str(),
                    static_cast<unsigned long long>(stream.size()),
                    static_cast<unsigned long long>(r.makespan),
                    r.macUtilization * 100.0);
        asciiTimeline(r, horizon);
        const auto &b = r.breakdown;
        std::printf("    breakdown: MAC %llu | ACT/PRE %llu | REF %llu "
                    "| DT-GBuf %llu | DT-OutReg %llu | pipeline %llu\n\n",
                    static_cast<unsigned long long>(b.macCycles),
                    static_cast<unsigned long long>(b.actPreCycles),
                    static_cast<unsigned long long>(b.refreshCycles),
                    static_cast<unsigned long long>(b.dtGbufCycles),
                    static_cast<unsigned long long>(b.dtOutregCycles),
                    static_cast<unsigned long long>(
                        b.pipelinePenaltyCycles));
    }
    return 0;
}
