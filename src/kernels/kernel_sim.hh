/**
 * @file
 * Kernel-level simulation facade: build a kernel descriptor's
 * instruction program, schedule its unroll (expandProgram) on a
 * channel model, and cache the result. The builder's program is the
 * one kernel model: the compiler's static program (lowerKernel) is the
 * same builder's program at t_max.
 *
 * End-to-end serving simulations evaluate millions of kernel
 * instances whose latency depends only on (shape, mapping, scheduler,
 * channel geometry); the cache plus token bucketing keeps the system
 * simulator fast without changing any reported trend.
 */

#ifndef PIMPHONY_KERNELS_KERNEL_SIM_HH
#define PIMPHONY_KERNELS_KERNEL_SIM_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/timing.hh"
#include "kernels/attention.hh"
#include "kernels/gemv.hh"
#include "pim/scheduler.hh"

namespace pimphony {

enum class KernelKind : std::uint8_t {
    Gemv,
    Qkt,
    Sv,
};

struct KernelRequest
{
    KernelKind kind = KernelKind::Gemv;
    GemvSpec gemv;
    AttentionSpec att;
    SchedulerKind scheduler = SchedulerKind::Static;
    bool pingpong = false;

    static KernelRequest makeGemv(GemvSpec spec, SchedulerKind sched);
    static KernelRequest makeQkt(AttentionSpec spec, SchedulerKind sched,
                                 bool pingpong = false);
    static KernelRequest makeSv(AttentionSpec spec, SchedulerKind sched,
                                bool pingpong = false);
};

/** The builder's per-channel program for @p req. */
std::vector<PimInstruction> kernelProgram(const KernelRequest &req,
                                          const AimTimingParams &params);

/** Build, unroll and schedule a kernel (uncached). */
ScheduleResult simulateKernel(const KernelRequest &req,
                              const AimTimingParams &params);

/**
 * Round a token count up to a simulation bucket (~3% resolution,
 * minimum granularity 64 tokens). Monotone: t <= bucketTokens(t).
 */
Tokens bucketTokens(Tokens t);

/**
 * Memoizing kernel evaluator bound to one channel configuration.
 */
class KernelCache
{
  public:
    explicit KernelCache(const AimTimingParams &params) : params_(params) {}

    /** Simulate (or recall) @p req; attention token counts should be
     *  pre-bucketed by the caller for high hit rates. */
    const ScheduleResult &get(const KernelRequest &req);

    std::size_t entries() const { return cache_.size(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    const AimTimingParams &params() const { return params_; }

  private:
    std::uint64_t keyOf(const KernelRequest &req) const;

    AimTimingParams params_;
    std::unordered_map<std::uint64_t, ScheduleResult> cache_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace pimphony

#endif // PIMPHONY_KERNELS_KERNEL_SIM_HH
