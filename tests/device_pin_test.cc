/**
 * @file
 * Bit-exact pins of the serving device layer.
 *
 * Seeded random streams of decode FC shares (tiers 0-2, with and
 * without a fused charge) and prefill chunks, with bursty ready times
 * and some submissions made ahead of their ready time, run through:
 *
 *  - an XpuStageDevice (a sim::QueuedDevice) with a null arbiter (the
 *    reservation timeline), the base sim::QueueArbiter (FIFO in event
 *    time), the tier-priority arbiter and DecodeFirstArbiter, unsliced
 *    and sliced;
 *  - StageDeviceSet pipelines of 1-4 PipelineStages under the same
 *    arbiters, fed decode chains (some PIM-only, with no FC share) and
 *    prefill chunk sequences, with dropSequences() called mid-run in
 *    every other stream.
 *
 * Each configuration is hashed with FNV-1a over every completion
 * time, every completed item's charge, served seconds and slice count,
 * every busy, prefill and FC second, and every counter the devices
 * report. A change that moves the device layer on purpose re-pins by
 * pasting the digests the failures print.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/device.hh"
#include "sim/event_queue.hh"
#include "system/sched_policy.hh"
#include "system/stage_device.hh"
#include "test_arbiters.hh"

namespace pimphony {
namespace {

/** FNV-1a over 64-bit words; doubles enter by their bits. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        h_ ^= v;
        h_ *= 1099511628211ull;
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    std::uint64_t value() const { return h_; }

    std::string
    hex() const
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", h_);
        return buf;
    }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Bursty ready times: arrivals cluster at one instant, spread over a
 *  few milliseconds, and now and then the stream idles. */
class BurstClock
{
  public:
    explicit BurstClock(Rng &rng) : rng_(rng) {}

    double
    next()
    {
        double u = rng_.uniform();
        if (u < 0.35)
            return t_; // same instant as the previous item
        if (u < 0.95)
            t_ += 2e-3 * rng_.exponential();
        else
            t_ += 20e-3 + 30e-3 * rng_.uniform();
        return t_;
    }

  private:
    Rng &rng_;
    double t_ = 0.0;
};

double
between(Rng &rng, double lo, double hi)
{
    return lo + (hi - lo) * rng.uniform();
}

std::uint32_t
drawTier(Rng &rng)
{
    double u = rng.uniform();
    return u < 0.5 ? 0u : (u < 0.8 ? 1u : 2u);
}

/** A decode FC share; half carry a fused charge. */
sim::WorkItem
randomShare(Rng &rng)
{
    sim::WorkItem w;
    w.seconds = between(rng, 0.1e-3, 5e-3);
    if (rng.uniform() < 0.5)
        w.fusedFcSeconds = w.seconds * between(rng, 0.05, 0.6);
    w.tier = drawTier(rng);
    return w;
}

sim::WorkItem
randomChunk(Rng &rng, double lo, double hi)
{
    sim::WorkItem w;
    w.kind = sim::WorkItem::Kind::PrefillChunk;
    w.seconds = between(rng, lo, hi);
    w.tier = drawTier(rng);
    return w;
}

/** An XpuStageDevice that records every completed item. */
class RecordingXpu : public XpuStageDevice
{
  public:
    using XpuStageDevice::XpuStageDevice;

    std::vector<sim::WorkItem> done;

  protected:
    void
    onComplete(const sim::WorkItem &item, double t) override
    {
        XpuStageDevice::onComplete(item, t);
        done.push_back(item);
    }
};

void
digestXpu(Digest &d, XpuStageDevice &x)
{
    d.add(x.busyUntil());
    d.add(x.busySeconds());
    d.add(x.prefillBusySeconds());
    d.add(x.fcBusySeconds());
    d.add(x.completedItems());
    d.add(x.preemptionSlices());
    d.add(x.decodePreemptionSlices());
    d.add(x.overtakes());
    d.add(x.fusedShares());
    d.add(x.maxDecodeWaitSeconds());
}

constexpr int kDeviceStreams = 40;
constexpr int kPipelineStreams = 24;

/** One stream of 40-120 items through one device, digested. */
void
runDeviceStream(Digest &d, const sim::QueueArbiter *arbiter,
                std::uint64_t seed)
{
    Rng rng(seed);
    sim::EventQueue q;
    RecordingXpu dev("xpu", arbiter);
    const int n = 40 + static_cast<int>(rng.uniformInt(0, 80));
    std::vector<double> completion(n, -1.0);
    BurstClock clock(rng);
    for (int i = 0; i < n; ++i) {
        sim::WorkItem w = rng.uniform() < 0.3
                              ? randomChunk(rng, 0.5e-3, 12e-3)
                              : randomShare(rng);
        w.cohort = static_cast<std::uint32_t>(i);
        double ready = clock.next();
        // A quarter of the items are submitted ahead of their ready
        // time (a reservation on the FIFO timeline, a wake-up under
        // an arbiter).
        double at = rng.uniform() < 0.25
                        ? std::max(0.0, ready - between(rng, 0.0, 3e-3))
                        : ready;
        q.schedule(at, [&, w, ready, i](double) {
            dev.submit(q, w, ready,
                       [&completion, i](double t) { completion[i] = t; });
        });
    }
    q.runAll();
    for (double t : completion)
        d.add(t);
    for (const sim::WorkItem &w : dev.done) {
        d.add(static_cast<std::uint64_t>(w.cohort));
        d.add(w.seconds);
        d.add(w.servedSeconds);
        d.add(static_cast<std::uint64_t>(w.slices));
    }
    digestXpu(d, dev);
}

/** One stream of decode chains and prefill sequences through a
 *  @p pp-stage pipeline, digested; @p drop drops the sequences
 *  mid-run. */
void
runPipelineStream(Digest &d, unsigned pp, const sim::QueueArbiter *arbiter,
                  std::uint64_t seed, bool drop)
{
    Rng rng(seed);
    sim::EventQueue q;
    StageDeviceSet set(pp, arbiter);
    const int n = 30 + static_cast<int>(rng.uniformInt(0, 50));
    std::vector<double> completion(n, -1.0);
    BurstClock clock(rng);
    double last = 0.0;
    for (int i = 0; i < n; ++i) {
        double ready = clock.next();
        last = ready;
        auto record = [&completion, i](double t) { completion[i] = t; };
        if (rng.uniform() < 0.3) {
            // One request's prefill: 1-5 chunks, each a per-stage item.
            std::vector<std::vector<sim::WorkItem>> elements(
                1 + rng.uniformInt(0, 4));
            const std::uint32_t tier = drawTier(rng);
            for (auto &element : elements)
                for (unsigned s = 0; s < pp; ++s) {
                    sim::WorkItem w = randomChunk(rng, 0.5e-3, 8e-3);
                    w.tier = tier;
                    w.request = static_cast<std::uint32_t>(i);
                    element.push_back(w);
                }
            q.schedule(ready, [&, elements, ready, record](double) {
                set.pipeline().submitSequence(q, elements, ready, record);
            });
        } else {
            // One cohort's decode cycle; some are PIM-only (no FC).
            std::vector<sim::WorkItem> chain;
            const bool pim_only = rng.uniform() < 0.15;
            const std::uint32_t tier = drawTier(rng);
            for (unsigned s = 0; s < pp; ++s) {
                sim::WorkItem w;
                w.cohort = static_cast<std::uint32_t>(i);
                w.seconds = between(rng, 0.5e-3, 4e-3);
                if (!pim_only) {
                    w.fcSeconds = w.seconds * between(rng, 0.2, 0.9);
                    if (rng.uniform() < 0.6)
                        w.fusedFcSeconds =
                            w.fcSeconds * between(rng, 0.1, 0.5);
                }
                w.tier = tier;
                chain.push_back(w);
            }
            q.schedule(ready, [&, chain, ready, record](double) {
                set.pipeline().submitChain(q, chain, ready, record);
            });
        }
    }
    if (drop)
        q.schedule(0.5 * last,
                   [&set](double) { set.pipeline().dropSequences(); });
    q.runAll();
    for (double t : completion)
        d.add(t);
    for (unsigned s = 0; s < pp; ++s) {
        PipelineStage &stage = set.stage(s);
        d.add(stage.busyUntil());
        d.add(stage.busySeconds());
        d.add(stage.completedItems());
        digestXpu(d, stage.xpu());
    }
}

/** The arbiters every configuration runs under. */
struct Arbiters
{
    sim::QueueArbiter base;
    TierPriorityArbiter tier;
    DecodeFirstArbiter decodeFirst;
    DecodeFirstArbiter decodeFirstSliced{1e-3};
};

struct Config
{
    const char *name;
    const sim::QueueArbiter *arbiter;
};

TEST(DevicePins, QueuedDeviceStreamsAreBitIdentical)
{
    Arbiters a;
    const Config configs[] = {
        {"null", nullptr},
        {"base", &a.base},
        {"tier-priority", &a.tier},
        {"decode-first", &a.decodeFirst},
        {"decode-first sliced", &a.decodeFirstSliced},
    };
    const std::uint64_t want[5] = {
        0x867da42f8af9addbull, // null
        0x422ca8ac452d68b5ull, // base
        0xa7772b128f167e13ull, // tier-priority
        0x210eb8c7a5ed57bbull, // decode-first
        0xcc62257493a1dd34ull, // decode-first sliced
    };
    for (std::size_t k = 0; k < 5; ++k) {
        const Config &c = configs[k];
        Digest d;
        for (int i = 0; i < kDeviceStreams; ++i)
            runDeviceStream(d, c.arbiter, 20261021 + i);
        EXPECT_EQ(d.value(), want[k]) << c.name << " got " << d.hex();
    }
}

TEST(DevicePins, PipelineStreamsAreBitIdentical)
{
    Arbiters a;
    const Config configs[] = {
        {"null", nullptr},
        {"base", &a.base},
        {"tier-priority", &a.tier},
        {"decode-first", &a.decodeFirst},
    };
    // Rows: pp 1-4; columns: null, base, tier-priority, decode-first.
    // At pp 1, base and decode-first make the same picks.
    const std::uint64_t want[4][4] = {
        {0xc626a08cbc94a2e0ull, 0x053767f4b4f8eee9ull,
         0xae845da193e9a04full, 0x053767f4b4f8eee9ull},
        {0xf86669fdd8b8ad25ull, 0xe2fa2b74b82d8cb4ull,
         0x9f3dee96702d4fbfull, 0x7f2304e76e0c9cfbull},
        {0x407d3fc968fa5f26ull, 0x465b158abf6f9cc1ull,
         0x1b5a8f89e3c3223eull, 0xe7cefbc907099df9ull},
        {0x83780f57cfa83f55ull, 0x4890ac30b4456d04ull,
         0x09b9a512d6112dd3ull, 0x74bc526791c7a51cull},
    };
    for (unsigned pp = 1; pp <= 4; ++pp) {
        for (std::size_t k = 0; k < 4; ++k) {
            const Config &c = configs[k];
            Digest d;
            for (int i = 0; i < kPipelineStreams; ++i)
                runPipelineStream(d, pp, c.arbiter, 7000 + 100 * pp + i,
                                  i % 2 == 1);
            EXPECT_EQ(d.value(), want[pp - 1][k])
                << "pp " << pp << " " << c.name << " got " << d.hex();
        }
    }
}

} // namespace
} // namespace pimphony
