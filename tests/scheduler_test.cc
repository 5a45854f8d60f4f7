/**
 * @file
 * Scheduler tests: the paper's Fig. 7 worked example, ordering and
 * hazard-freedom properties over randomized command streams for all
 * three controllers, DCS metadata cost, and refresh/row accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "dram/refresh.hh"
#include "dram/row_state.hh"
#include "isa/pim_command.hh"
#include "pim/dcs_scheduler.hh"
#include "pim/scheduler.hh"

namespace pimphony {
namespace {

/**
 * The 11-command GEMV of Fig. 7(a): three input tiles, two output
 * groups of three accumulating MACs each, one RD-OUT per group. Each
 * MAC is its own instruction, as drawn in the figure's command stack.
 */
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
    ++grp;
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

TEST(Fig7, StaticScheduleTakes34Cycles)
{
    auto params = AimTimingParams::illustrative();
    auto sched = makeScheduler(SchedulerKind::Static, params);
    auto r = sched->schedule(fig7Stream(), true);
    EXPECT_EQ(r.makespan, 34u);
}

TEST(Fig7, DcsBeatsStaticByAboutAThird)
{
    auto params = AimTimingParams::illustrative();
    auto st = makeScheduler(SchedulerKind::Static, params)
                  ->schedule(fig7Stream());
    auto dc = makeScheduler(SchedulerKind::Dcs, params)
                  ->schedule(fig7Stream());
    EXPECT_LT(dc.makespan, st.makespan);
    // Paper: 34 -> 22 cycles. Our issue-policy detail lands within a
    // few cycles of that.
    EXPECT_LE(dc.makespan, 26u);
    EXPECT_GE(dc.makespan, 20u);
}

TEST(Fig7, DcsIssuesMacBeforeUnrelatedInputWrite)
{
    // The hallmark of DCS: M3 (dependent only on W0) issues before
    // all WR-INPs are done, unlike the static schedule.
    auto params = AimTimingParams::illustrative();
    auto r = makeScheduler(SchedulerKind::Dcs, params)
                 ->schedule(fig7Stream(), true);
    Cycle m3 = 0, w2_complete = 0;
    for (const auto &sc : r.timeline) {
        if (sc.cmd.kind == CommandKind::Mac && sc.cmd.id == 3)
            m3 = sc.issue;
        if (sc.cmd.kind == CommandKind::WrInp && sc.cmd.id == 2)
            w2_complete = sc.complete;
    }
    EXPECT_LT(m3, w2_complete);
}

TEST(Fig7, BreakdownSumsToMakespan)
{
    auto params = AimTimingParams::illustrative();
    for (auto kind : {SchedulerKind::Static, SchedulerKind::Dcs}) {
        auto r = makeScheduler(kind, params)->schedule(fig7Stream());
        EXPECT_EQ(r.breakdown.total(), r.makespan)
            << schedulerName(kind);
    }
}

/** Build a random, structurally valid stream. */
CommandStream
randomStream(Rng &rng, const AimTimingParams &params, std::size_t n,
             bool regions)
{
    CommandStream s;
    unsigned g = params.gbufEntries;
    unsigned o = params.outputEntries;
    std::vector<bool> gw(g, false), ow(o, false);
    std::int32_t grp = 0;
    auto region_of_gbuf = [&](std::int32_t idx) {
        return static_cast<std::int8_t>(idx < static_cast<std::int32_t>(
                                            g / 2)
                                            ? 0
                                            : 1);
    };
    auto region_of_out = [&](std::int32_t idx) {
        return static_cast<std::int8_t>(idx < static_cast<std::int32_t>(
                                            o / 2)
                                            ? 0
                                            : 1);
    };
    std::uint64_t row = 0;
    while (s.size() < n) {
        int pick = static_cast<int>(rng.uniformInt(0, 2));
        if (pick == 0) {
            auto idx =
                static_cast<std::int32_t>(rng.uniformInt(0, g - 1));
            auto c = PimCommand::wrInp(idx);
            c.group = grp++;
            if (regions)
                c.region = region_of_gbuf(idx);
            s.append(c);
            gw[idx] = true;
        } else if (pick == 1) {
            // Pick a written gbuf entry if any.
            std::vector<std::int32_t> cand;
            for (unsigned i = 0; i < g; ++i)
                if (gw[i])
                    cand.push_back(static_cast<std::int32_t>(i));
            if (cand.empty())
                continue;
            auto gi = cand[rng.uniformInt(0, cand.size() - 1)];
            std::int32_t oi;
            if (regions) {
                // Region consistency contract: a MAC's output entry
                // lives in the same buffer half as its input entry.
                unsigned half = o / 2;
                unsigned base = region_of_gbuf(gi) ? half : 0;
                oi = static_cast<std::int32_t>(
                    rng.uniformInt(base, base + half - 1));
            } else {
                oi = static_cast<std::int32_t>(rng.uniformInt(0, o - 1));
            }
            auto c = PimCommand::mac(gi, oi,
                                     static_cast<RowIndex>(row / 8),
                                     static_cast<std::int32_t>(row % 8));
            ++row;
            c.group = grp++;
            if (regions)
                c.region = region_of_gbuf(gi);
            s.append(c);
            ow[oi] = true;
        } else {
            std::vector<std::int32_t> cand;
            for (unsigned i = 0; i < o; ++i)
                if (ow[i])
                    cand.push_back(static_cast<std::int32_t>(i));
            if (cand.empty())
                continue;
            auto oi = cand[rng.uniformInt(0, cand.size() - 1)];
            auto c = PimCommand::rdOut(oi);
            c.group = grp++;
            if (regions)
                c.region = region_of_out(oi);
            s.append(c);
            ow[oi] = false;
        }
    }
    return s;
}

/**
 * Hazard checker: replays a timeline against the per-entry dependency
 * semantics. For every command, the most recent prior access to the
 * same buffer entry must have completed before issue, except that a
 * MAC may chain tCCDS behind a preceding MAC on the same OBuf entry.
 */
void
checkHazards(const std::vector<ScheduledCommand> &timeline,
             const AimTimingParams &params)
{
    std::vector<ScheduledCommand> by_id(timeline);
    std::sort(by_id.begin(), by_id.end(),
              [](const auto &a, const auto &b) {
                  return a.cmd.id < b.cmd.id;
              });

    std::vector<std::int64_t> gbuf_last(params.gbufEntries, -1);
    std::vector<std::int64_t> obuf_last(params.outputEntries, -1);

    for (const auto &sc : by_id) {
        const PimCommand &c = sc.cmd;
        auto check_dep = [&](std::int64_t dep, bool allow_chain) {
            if (dep < 0)
                return;
            const auto &d = by_id[static_cast<std::size_t>(dep)];
            if (allow_chain && d.cmd.kind == CommandKind::Mac) {
                EXPECT_GE(sc.issue, d.issue + params.tCcds)
                    << "chain violation at id " << c.id;
            } else {
                EXPECT_GE(sc.issue, d.complete)
                    << "hazard at id " << c.id << " dep " << d.cmd.id;
            }
        };
        switch (c.kind) {
          case CommandKind::WrInp:
            check_dep(gbuf_last[c.gbufIdx], false);
            gbuf_last[c.gbufIdx] = static_cast<std::int64_t>(c.id);
            break;
          case CommandKind::Mac:
            // Read-after-read on the GBuf entry (previous accessor
            // also a MAC) is hazard-free and may chain; a write
            // (WR-INP) must have landed.
            check_dep(gbuf_last[c.gbufIdx], true);
            check_dep(obuf_last[c.outIdx], true);
            gbuf_last[c.gbufIdx] = static_cast<std::int64_t>(c.id);
            obuf_last[c.outIdx] = static_cast<std::int64_t>(c.id);
            break;
          case CommandKind::RdOut:
            check_dep(obuf_last[c.outIdx], false);
            obuf_last[c.outIdx] = static_cast<std::int64_t>(c.id);
            break;
        }
    }
}

class SchedulerProperty
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, int>>
{
};

TEST_P(SchedulerProperty, HazardFreeOnRandomStreams)
{
    auto [kind, seed] = GetParam();
    AimTimingParams params = AimTimingParams::aimxWithObuf(8);
    Rng rng(static_cast<std::uint64_t>(seed));
    auto stream = randomStream(rng, params, 300,
                               kind == SchedulerKind::PingPong);
    ASSERT_EQ(stream.validate(params.gbufEntries, params.outputEntries),
              "");
    auto r = makeScheduler(kind, params)->schedule(stream, true);
    ASSERT_EQ(r.timeline.size(), stream.size());
    checkHazards(r.timeline, params);
    // Bus discipline: issues at least tCCDS apart.
    std::vector<Cycle> issues;
    for (const auto &sc : r.timeline)
        issues.push_back(sc.issue);
    std::sort(issues.begin(), issues.end());
    for (std::size_t i = 1; i < issues.size(); ++i)
        EXPECT_GE(issues[i], issues[i - 1] + params.tCcds);
    // Accounting closes.
    EXPECT_EQ(r.breakdown.total(), r.makespan);
    EXPECT_GT(r.makespan, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerProperty,
    ::testing::Combine(::testing::Values(SchedulerKind::Static,
                                         SchedulerKind::PingPong,
                                         SchedulerKind::Dcs),
                       ::testing::Range(0, 8)));

TEST(Scheduler, DcsNeverSlowerThanStatic)
{
    AimTimingParams params = AimTimingParams::aimxWithObuf(8);
    for (int seed = 0; seed < 6; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) + 100);
        auto stream = randomStream(rng, params, 400, false);
        auto st = makeScheduler(SchedulerKind::Static, params)
                      ->schedule(stream);
        auto dc =
            makeScheduler(SchedulerKind::Dcs, params)->schedule(stream);
        EXPECT_LE(dc.makespan, st.makespan) << "seed " << seed;
    }
}

TEST(Scheduler, EmptyStreamIsZero)
{
    AimTimingParams params;
    CommandStream empty;
    for (auto kind : {SchedulerKind::Static, SchedulerKind::Dcs}) {
        auto r = makeScheduler(kind, params)->schedule(empty);
        EXPECT_EQ(r.makespan, 0u);
    }
}

TEST(Scheduler, StaticStreamsSameGroupWrInpAtTccds)
{
    AimTimingParams params = AimTimingParams::illustrative();
    CommandStream s;
    for (int i = 0; i < 4; ++i) {
        auto c = PimCommand::wrInp(i);
        c.group = 0;
        s.append(c);
    }
    auto r = makeScheduler(SchedulerKind::Static, params)
                 ->schedule(s, true);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(r.timeline[i].issue,
                  static_cast<Cycle>(i) * params.tCcds);
}

TEST(Scheduler, StaticSeparatesMacGroupsByTmac)
{
    AimTimingParams params = AimTimingParams::illustrative();
    CommandStream s;
    auto w = PimCommand::wrInp(0);
    w.group = 0;
    s.append(w);
    for (int i = 0; i < 3; ++i) {
        auto m = PimCommand::mac(0, 0, 0, i);
        m.group = 1 + i; // separate instructions
        s.append(m);
    }
    auto r = makeScheduler(SchedulerKind::Static, params)
                 ->schedule(s, true);
    EXPECT_EQ(r.timeline[1].issue, params.tWrInp);
    EXPECT_EQ(r.timeline[2].issue, params.tWrInp + params.tMac);
    EXPECT_EQ(r.timeline[3].issue, params.tWrInp + 2 * params.tMac);
}

TEST(Dcs, ChainedMacsIssueAtTccds)
{
    AimTimingParams params = AimTimingParams::illustrative();
    CommandStream s;
    auto w = PimCommand::wrInp(0);
    w.group = 0;
    s.append(w);
    for (int i = 0; i < 4; ++i) {
        auto m = PimCommand::mac(0, 0, 0, i);
        m.group = 1 + i;
        s.append(m);
    }
    auto r = makeScheduler(SchedulerKind::Dcs, params)->schedule(s, true);
    // First MAC waits for the write to land; the rest chain at tCCDS.
    EXPECT_EQ(r.timeline[1].issue, params.tWrInp);
    for (int i = 2; i <= 4; ++i)
        EXPECT_EQ(r.timeline[i].issue,
                  r.timeline[i - 1].issue + params.tCcds);
}

TEST(Dcs, MetadataBytesMatchPaperScale)
{
    AimTimingParams params = AimTimingParams::aimxWithObuf(16);
    DcsScheduler dcs(params);
    // The paper reports a 576 B D-Table + S-Table per controller; our
    // structure lands within the same order (64+16 entries x 9 B).
    EXPECT_EQ(dcs.metadataBytes(), (64u + 16u) * 9u);
    EXPECT_LT(dcs.metadataBytes(), 1024u);
}

TEST(RowState, CountsActivatesAndPrecharges)
{
    AimTimingParams params;
    RowStateTracker rows(params);
    EXPECT_EQ(rows.prepare(0), params.tRcdRd); // cold activate
    EXPECT_EQ(rows.prepare(0), 0u);            // hit
    EXPECT_EQ(rows.prepare(1), params.tRp + params.tRcdRd);
    EXPECT_EQ(rows.activates(), 2u);
    EXPECT_EQ(rows.precharges(), 1u);
    rows.close();
    EXPECT_EQ(rows.precharges(), 2u);
    EXPECT_EQ(rows.openRow(), kNoRow);
}

TEST(Refresh, PeriodicStallsAccounted)
{
    AimTimingParams params;
    params.tRefi = 100;
    params.tRfc = 10;
    RefreshModel refresh(params);
    EXPECT_EQ(refresh.adjust(50), 50u);   // before first due
    EXPECT_EQ(refresh.adjust(105), 110u); // pushed past the window
    EXPECT_EQ(refresh.refreshes(), 1u);
    // Refreshes overdue inside a long idle gap complete for free;
    // only the one landing at the issue point pushes it back.
    EXPECT_EQ(refresh.adjust(500), 510u);
    EXPECT_EQ(refresh.refreshes(), 5u);
}

TEST(Refresh, DisabledWhenTrefiZero)
{
    AimTimingParams params;
    params.tRefi = 0;
    RefreshModel refresh(params);
    EXPECT_EQ(refresh.adjust(123456), 123456u);
    EXPECT_EQ(refresh.refreshes(), 0u);
}

/** A scheduler of every kind on @p params; dies on a bad channel. */
void
makeAll(const AimTimingParams &params)
{
    for (auto kind : {SchedulerKind::Static, SchedulerKind::PingPong,
                      SchedulerKind::Dcs})
        makeScheduler(kind, params);
}

TEST(TimingValidation, PresetsAreValid)
{
    makeAll(AimTimingParams::aimx());
    makeAll(AimTimingParams::aimxWithObuf(16));
    makeAll(AimTimingParams::illustrative()); // tRefi = tRfc = 0
}

TEST(TimingValidation, NonPositiveClockDies)
{
    auto p = AimTimingParams::aimx();
    p.clockGhz = 0.0;
    EXPECT_EXIT(makeAll(p), ::testing::ExitedWithCode(1),
                "AimTimingParams::clockGhz must be finite and positive");
}

TEST(TimingValidation, ZeroTccdsDies)
{
    auto p = AimTimingParams::aimx();
    p.tCcds = 0;
    EXPECT_EXIT(makeAll(p), ::testing::ExitedWithCode(1),
                "AimTimingParams::tCcds must be at least 1");
}

TEST(TimingValidation, RefreshLongerThanIntervalDies)
{
    // Refresh would never let a command issue: RefreshModel::adjust
    // would loop forever on the first command past tRefi.
    auto p = AimTimingParams::aimx();
    p.tRefi = 200;
    p.tRfc = 280;
    EXPECT_EXIT(makeAll(p), ::testing::ExitedWithCode(1),
                "AimTimingParams::tRfc must be below tRefi");
    p.tRfc = 200;
    EXPECT_EXIT(makeAll(p), ::testing::ExitedWithCode(1),
                "AimTimingParams::tRfc must be below tRefi");
}

TEST(TimingValidation, EmptyGbufDies)
{
    auto p = AimTimingParams::aimx();
    p.gbufEntries = 0;
    EXPECT_EXIT(makeAll(p), ::testing::ExitedWithCode(1),
                "AimTimingParams::gbufEntries must be at least 1");
}

TEST(TimingValidation, EmptyOutputBufferDies)
{
    auto p = AimTimingParams::aimx();
    p.outputEntries = 0;
    EXPECT_EXIT(makeAll(p), ::testing::ExitedWithCode(1),
                "AimTimingParams::outputEntries must be at least 1");
}

} // namespace
} // namespace pimphony
