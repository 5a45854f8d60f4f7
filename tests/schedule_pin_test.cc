/**
 * @file
 * Bit-exact pins of kernel schedules.
 *
 * schedule_pins.inc lists every distinct kernel descriptor the paper
 * benches (bench_fig*, bench_table*, bench_ablation*) build in --smoke
 * mode: 902 GEMV, QKT and SV kernels under the static, ping-pong and
 * DCS controllers, ping-pong streams included, on AiMX channels with
 * 1 to 64 output entries. Each row carries the ScheduleResult the
 * kernel produced when the pins were recorded. Every field must match
 * exactly, macUtilization by its bits, and every breakdown must sum to
 * its makespan. The Fig. 7 worked example also pins its per-command
 * timeline.
 *
 * A change that moves a schedule on purpose re-pins by pasting the
 * "got" rows the failures print.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "kernels/kernel_sim.hh"
#include "pim/scheduler.hh"

namespace pimphony {
namespace {

struct ResultPin
{
    std::uint64_t makespan;
    std::uint64_t macCycles;
    std::uint64_t actPreCycles;
    std::uint64_t refreshCycles;
    std::uint64_t dtGbufCycles;
    std::uint64_t dtOutregCycles;
    std::uint64_t pipelinePenaltyCycles;
    std::uint64_t macBusyCycles;
    std::uint64_t macUtilizationBits;
    std::uint64_t activates;
    std::uint64_t precharges;
    std::uint64_t refreshes;
    std::uint64_t wrInpCount;
    std::uint64_t macCount;
    std::uint64_t rdOutCount;
};

struct KernelPin
{
    std::uint32_t kind;
    std::uint32_t doutGroups;
    std::uint32_t dinTiles;
    std::uint64_t tokens;
    std::uint32_t headDim;
    std::uint32_t gqaGroup;
    std::uint32_t rowReuse;
    std::uint32_t scheduler;
    std::uint32_t pingpong;
    std::uint32_t outputEntries;
    ResultPin result;
};

const KernelPin kKernelPins[] = {
#include "schedule_pins.inc"
};

ResultPin
pinOf(const ScheduleResult &r)
{
    std::uint64_t bits;
    std::memcpy(&bits, &r.macUtilization, sizeof bits);
    const LatencyBreakdown &b = r.breakdown;
    return {r.makespan,        b.macCycles,
            b.actPreCycles,    b.refreshCycles,
            b.dtGbufCycles,    b.dtOutregCycles,
            b.pipelinePenaltyCycles, r.macBusyCycles,
            bits,              r.activates,
            r.precharges,      r.refreshes,
            r.wrInpCount,      r.macCount,
            r.rdOutCount};
}

/** The row as schedule_pins.inc writes it. */
std::string
format(const ResultPin &p)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", 0x%016" PRIx64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "}",
                  p.makespan, p.macCycles, p.actPreCycles, p.refreshCycles,
                  p.dtGbufCycles, p.dtOutregCycles, p.pipelinePenaltyCycles,
                  p.macBusyCycles, p.macUtilizationBits, p.activates,
                  p.precharges, p.refreshes, p.wrInpCount, p.macCount,
                  p.rdOutCount);
    return buf;
}

std::string
format(const KernelPin &k)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{%u, %u, %u, %" PRIu64 ", %u, %u, %u, %u, %u, %u, ",
                  k.kind, k.doutGroups, k.dinTiles, k.tokens, k.headDim,
                  k.gqaGroup, k.rowReuse, k.scheduler, k.pingpong,
                  k.outputEntries);
    return buf;
}

KernelRequest
requestOf(const KernelPin &k)
{
    KernelRequest req;
    req.kind = static_cast<KernelKind>(k.kind);
    req.gemv.doutGroups = k.doutGroups;
    req.gemv.dinTiles = k.dinTiles;
    req.att.tokens = k.tokens;
    req.att.headDim = k.headDim;
    req.att.gqaGroup = k.gqaGroup;
    req.att.rowReuse = k.rowReuse != 0;
    req.scheduler = static_cast<SchedulerKind>(k.scheduler);
    req.pingpong = k.pingpong != 0;
    return req;
}

TEST(SchedulePins, CoverEveryControllerAndKernelKind)
{
    EXPECT_EQ(std::size(kKernelPins), 902u);
    unsigned per_sched[3] = {0, 0, 0};
    unsigned per_kind[3] = {0, 0, 0};
    unsigned pingpong_streams = 0;
    for (const KernelPin &k : kKernelPins) {
        ++per_sched[k.scheduler];
        ++per_kind[k.kind];
        pingpong_streams += k.pingpong;
    }
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_GT(per_sched[i], 0u) << "scheduler " << i;
        EXPECT_GT(per_kind[i], 0u) << "kernel kind " << i;
    }
    EXPECT_GT(pingpong_streams, 0u);
}

TEST(SchedulePins, EveryPaperBenchKernelIsBitIdentical)
{
    unsigned mismatches = 0;
    for (const KernelPin &k : kKernelPins) {
        ScheduleResult r = simulateKernel(
            requestOf(k), AimTimingParams::aimxWithObuf(k.outputEntries));
        EXPECT_EQ(r.breakdown.total(), r.makespan) << format(k);
        std::string want = format(k.result);
        std::string got = format(pinOf(r));
        if (got != want && ++mismatches <= 20)
            ADD_FAILURE() << format(k) << "\n  want " << want
                          << "\n  got  " << got;
    }
    EXPECT_EQ(mismatches, 0u);
}

/** The command stream simulateKernel schedules for @p k. */
CommandStream
streamOf(const KernelPin &k)
{
    return expandProgram(kernelProgram(
        requestOf(k), AimTimingParams::aimxWithObuf(k.outputEntries)));
}

/**
 * Every field of every command the pinned kernels schedule, hashed
 * with FNV-1a per kernel kind. ScheduleResult cannot see a command's
 * src or region, nor an operand that leaves the timing unchanged; a
 * change to how streams are generated must leave these digests as
 * they are.
 */
TEST(SchedulePins, EveryCommandStreamIsBitIdentical)
{
    const std::uint64_t want[3] = {
        0xe28b8a6cd5cfcdfdull, // GEMV
        0x1154330aae1b1a94ull, // QKT
        0x7d2ba2bb707cc85full, // SV
    };
    std::uint64_t got[3] = {1469598103934665603ull, 1469598103934665603ull,
                            1469598103934665603ull};
    std::uint64_t commands = 0;
    for (const KernelPin &k : kKernelPins) {
        std::uint64_t &h = got[k.kind];
        auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
        };
        const CommandStream stream = streamOf(k);
        commands += stream.size();
        for (const PimCommand &c : stream.commands()) {
            mix(c.id);
            mix(static_cast<std::uint64_t>(c.kind));
            mix(static_cast<std::uint64_t>(c.gbufIdx));
            mix(static_cast<std::uint64_t>(c.outIdx));
            mix(static_cast<std::uint64_t>(c.row));
            mix(static_cast<std::uint64_t>(c.col));
            mix(static_cast<std::uint64_t>(c.group));
            mix(static_cast<std::uint64_t>(c.region));
            mix(static_cast<std::uint64_t>(c.src));
        }
    }
    EXPECT_EQ(commands, 15405664u);
    const char *kinds[3] = {"GEMV", "QKT", "SV"};
    for (int i = 0; i < 3; ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", got[i]);
        EXPECT_EQ(got[i], want[i]) << kinds[i] << " got " << buf;
    }
}

/**
 * The first hazard in @p r's timeline, read in issue order; empty when
 * there is none. Commands on one GBuf or output entry conflict unless
 * both are MACs (reads of one GBuf entry, or an accumulation chain on
 * one output entry): a command must not issue before every conflicting
 * command earlier in program order has completed. That covers RAW
 * (a MAC after the WR-INP that filled its GBuf entry, a RD-OUT after
 * the MACs it drains) and WAR (a WR-INP after the MACs that read the
 * old tile, a MAC after the RD-OUT that emptied its entry). Issues
 * must also be at least tCCDS apart on the channel bus.
 */
std::string
hazardIn(const ScheduleResult &r, const AimTimingParams &params)
{
    // Latest completion per entry, of its MACs and of its I/O commands.
    std::vector<Cycle> gbuf_mac(params.gbufEntries, 0);
    std::vector<Cycle> gbuf_io(params.gbufEntries, 0);
    std::vector<Cycle> out_mac(params.outputEntries, 0);
    std::vector<Cycle> out_io(params.outputEntries, 0);
    std::vector<Cycle> issues;
    issues.reserve(r.timeline.size());
    char buf[160];
    for (const ScheduledCommand &sc : r.timeline) {
        const PimCommand &c = sc.cmd;
        Cycle need = 0;
        switch (c.kind) {
          case CommandKind::WrInp:
            need = std::max(gbuf_mac[c.gbufIdx], gbuf_io[c.gbufIdx]);
            gbuf_io[c.gbufIdx] = std::max(gbuf_io[c.gbufIdx], sc.complete);
            break;
          case CommandKind::Mac:
            need = std::max(gbuf_io[c.gbufIdx], out_io[c.outIdx]);
            gbuf_mac[c.gbufIdx] =
                std::max(gbuf_mac[c.gbufIdx], sc.complete);
            out_mac[c.outIdx] = std::max(out_mac[c.outIdx], sc.complete);
            break;
          case CommandKind::RdOut:
            need = std::max(out_mac[c.outIdx], out_io[c.outIdx]);
            out_io[c.outIdx] = std::max(out_io[c.outIdx], sc.complete);
            break;
        }
        if (sc.issue < need) {
            std::snprintf(buf, sizeof buf,
                          "%s issues at %" PRIu64 " before a conflicting "
                          "command completes at %" PRIu64,
                          c.toString().c_str(), sc.issue, need);
            return buf;
        }
        issues.push_back(sc.issue);
    }
    std::sort(issues.begin(), issues.end());
    for (std::size_t i = 1; i < issues.size(); ++i) {
        if (issues[i] - issues[i - 1] < params.tCcds) {
            std::snprintf(buf, sizeof buf,
                          "issues at %" PRIu64 " and %" PRIu64
                          " are closer than tCCDS",
                          issues[i - 1], issues[i]);
            return buf;
        }
    }
    return {};
}

TEST(SchedulePins, EveryScheduleIsHazardFreeInIssueOrder)
{
    unsigned flagged = 0;
    for (const KernelPin &k : kKernelPins) {
        const auto params = AimTimingParams::aimxWithObuf(k.outputEntries);
        ScheduleResult r =
            makeScheduler(static_cast<SchedulerKind>(k.scheduler), params)
                ->schedule(streamOf(k), true);
        std::string hazard = hazardIn(r, params);
        if (!hazard.empty() && ++flagged <= 20)
            ADD_FAILURE() << format(k) << "\n  " << hazard;
    }
    EXPECT_EQ(flagged, 0u);
}

/**
 * A seeded random stream on a small geometry: 2-16 GBuf entries, 1-8
 * output entries, bursts of one kind so that one queue runs far ahead
 * of the other on shared entries, groups that sometimes continue
 * across a burst, and region tags 0/1. Every dependency points to an
 * earlier command, so no controller can deadlock on it.
 */
CommandStream
randomStream(Mt19937_64 &eng, AimTimingParams &params)
{
    auto draw = [&eng](std::uint64_t n) {
        return static_cast<std::int32_t>(eng() % n);
    };
    params.gbufEntries = 2 + draw(15);
    params.outputEntries = 1 + draw(8);
    const auto gbuf = static_cast<std::uint64_t>(params.gbufEntries);
    const auto out = static_cast<std::uint64_t>(params.outputEntries);
    CommandStream s;
    std::int32_t group = 0;
    for (std::int32_t left = 1 + draw(240); left > 0;) {
        const auto kind = static_cast<CommandKind>(draw(3));
        if (draw(4) != 0)
            ++group;
        for (std::int32_t burst = 1 + draw(12); burst > 0 && left > 0;
             --burst, --left) {
            PimCommand c;
            switch (kind) {
              case CommandKind::WrInp:
                c = PimCommand::wrInp(draw(gbuf));
                break;
              case CommandKind::Mac:
                c = PimCommand::mac(draw(gbuf), draw(out), draw(3),
                                    draw(32));
                break;
              case CommandKind::RdOut:
                c = PimCommand::rdOut(draw(out));
                break;
            }
            c.group = draw(8) != 0 ? group : -1;
            c.region = static_cast<std::int8_t>(draw(2));
            s.append(c);
        }
    }
    return s;
}

/**
 * Random streams under every controller, each hashed with FNV-1a over
 * its ScheduleResult and every command's issue and complete cycle.
 * Bursts of one kind let one queue run far ahead of the other on
 * shared entries and regions, in patterns and on buffer geometries no
 * kernel builder produces, so these pin how each two-queue controller
 * blocks a queue head on commands the other queue has not issued yet.
 */
TEST(SchedulePins, RandomStreamsAreBitIdentical)
{
    const std::uint64_t want[3] = {
        0x6caae66ae7a2c2c9ull, // static
        0xab74d2333622eda4ull, // ping-pong
        0xf1f556fa42891777ull, // DCS
    };
    const SchedulerKind kinds[3] = {SchedulerKind::Static,
                                    SchedulerKind::PingPong,
                                    SchedulerKind::Dcs};
    for (int k = 0; k < 3; ++k) {
        std::uint64_t h = 1469598103934665603ull;
        auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
        };
        Mt19937_64 eng(20261020);
        for (int i = 0; i < 400; ++i) {
            AimTimingParams params = i % 2 ? AimTimingParams::illustrative()
                                           : AimTimingParams::aimx();
            const CommandStream stream = randomStream(eng, params);
            ScheduleResult r =
                makeScheduler(kinds[k], params)->schedule(stream, true);
            EXPECT_EQ(r.breakdown.total(), r.makespan);
            const ResultPin p = pinOf(r);
            for (std::uint64_t v :
                 {p.makespan, p.macCycles, p.actPreCycles, p.refreshCycles,
                  p.dtGbufCycles, p.dtOutregCycles, p.pipelinePenaltyCycles,
                  p.macBusyCycles, p.macUtilizationBits, p.activates,
                  p.precharges, p.refreshes, p.wrInpCount, p.macCount,
                  p.rdOutCount})
                mix(v);
            for (const ScheduledCommand &sc : r.timeline) {
                mix(sc.issue);
                mix(sc.complete);
            }
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", h);
        EXPECT_EQ(h, want[k]) << schedulerName(kinds[k]) << " got " << buf;
    }
}

/** The 11-command GEMV of the paper's Fig. 7. */
CommandStream
fig7Stream()
{
    CommandStream s;
    auto push = [&s](PimCommand c, std::int32_t group) {
        c.group = group;
        s.append(c);
    };
    int grp = 0;
    push(PimCommand::wrInp(0), grp);
    push(PimCommand::wrInp(1), grp);
    push(PimCommand::wrInp(2), grp);
    push(PimCommand::mac(0, 0, 0, 0), ++grp);
    push(PimCommand::mac(1, 0, 0, 1), ++grp);
    push(PimCommand::mac(2, 0, 0, 2), ++grp);
    push(PimCommand::rdOut(0), ++grp);
    push(PimCommand::mac(0, 1, 0, 3), ++grp);
    push(PimCommand::mac(1, 1, 0, 4), ++grp);
    push(PimCommand::mac(2, 1, 0, 5), ++grp);
    push(PimCommand::rdOut(1), ++grp);
    return s;
}

struct TimelinePin
{
    SchedulerKind scheduler;
    bool illustrative; // else aimxWithObuf(4), as bench_fig7 prints
    ResultPin result;
    std::vector<std::pair<Cycle, Cycle>> issueComplete;
};

TEST(SchedulePins, Fig7TimelineIsBitIdentical)
{
    const TimelinePin pins[] = {
        {SchedulerKind::Static, true,
         {34, 12, 0, 0, 8, 6, 8, 12, 0x3fd6969696969697, 1, 0, 0, 3, 6, 2},
         {{0, 4}, {2, 6}, {4, 8}, {8, 11}, {11, 14}, {14, 17}, {17, 21},
          {21, 24}, {24, 27}, {27, 30}, {30, 34}}},
        {SchedulerKind::Dcs, true,
         {26, 12, 0, 0, 8, 4, 2, 12, 0x3fdd89d89d89d89e, 1, 0, 0, 3, 6, 2},
         {{0, 4}, {2, 6}, {8, 12}, {4, 7}, {6, 9}, {12, 15}, {20, 24},
          {14, 17}, {16, 19}, {18, 21}, {22, 26}}},
        {SchedulerKind::Static, false,
         {164, 12, 16, 0, 28, 26, 82, 12, 0x3fb2bb512bb512bb, 1, 0, 0, 3,
          6, 2},
         {{0, 24}, {2, 26}, {4, 28}, {44, 56}, {56, 68}, {68, 80},
          {80, 104}, {104, 116}, {116, 128}, {128, 140}, {140, 164}}},
        {SchedulerKind::Dcs, false,
         {86, 12, 16, 0, 24, 4, 30, 12, 0x3fc1dc47711dc477, 1, 0, 0, 3, 6,
          2},
         {{0, 24}, {2, 26}, {4, 28}, {40, 52}, {42, 54}, {44, 56},
          {56, 80}, {46, 58}, {48, 60}, {50, 62}, {62, 86}}},
    };
    const CommandStream stream = fig7Stream();
    for (const TimelinePin &pin : pins) {
        auto params = pin.illustrative ? AimTimingParams::illustrative()
                                       : AimTimingParams::aimxWithObuf(4);
        ScheduleResult r =
            makeScheduler(pin.scheduler, params)->schedule(stream, true);
        SCOPED_TRACE(schedulerName(pin.scheduler) +
                     (pin.illustrative ? " illustrative" : " aimx"));
        EXPECT_EQ(r.breakdown.total(), r.makespan);
        EXPECT_EQ(format(pinOf(r)), format(pin.result));
        ASSERT_EQ(r.timeline.size(), stream.size());
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const ScheduledCommand &sc = r.timeline[i];
            EXPECT_EQ(sc.cmd.id, stream[i].id);
            EXPECT_EQ(sc.issue, pin.issueComplete[i].first) << "cmd " << i;
            EXPECT_EQ(sc.complete, pin.issueComplete[i].second)
                << "cmd " << i;
        }
    }
}

} // namespace
} // namespace pimphony
