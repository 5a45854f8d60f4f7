#include "kernels/kernel_sim.hh"

#include "common/logging.hh"

namespace pimphony {

KernelRequest
KernelRequest::makeGemv(GemvSpec spec, SchedulerKind sched)
{
    KernelRequest r;
    r.kind = KernelKind::Gemv;
    r.gemv = spec;
    r.scheduler = sched;
    return r;
}

KernelRequest
KernelRequest::makeQkt(AttentionSpec spec, SchedulerKind sched,
                       bool pingpong)
{
    KernelRequest r;
    r.kind = KernelKind::Qkt;
    r.att = spec;
    r.scheduler = sched;
    r.pingpong = pingpong;
    return r;
}

KernelRequest
KernelRequest::makeSv(AttentionSpec spec, SchedulerKind sched, bool pingpong)
{
    KernelRequest r;
    r.kind = KernelKind::Sv;
    r.att = spec;
    r.scheduler = sched;
    r.pingpong = pingpong;
    return r;
}

std::vector<PimInstruction>
kernelProgram(const KernelRequest &req, const AimTimingParams &params)
{
    switch (req.kind) {
      case KernelKind::Gemv:
        return buildGemvProgram(req.gemv, params, req.pingpong);
      case KernelKind::Qkt:
        return buildQktProgram(req.att, params, req.pingpong);
      case KernelKind::Sv:
        break;
    }
    return buildSvProgram(req.att, params, req.pingpong);
}

ScheduleResult
simulateKernel(const KernelRequest &req, const AimTimingParams &params)
{
    // The program is freed once unrolled, before the schedule runs.
    const CommandStream stream = expandProgram(kernelProgram(req, params));
    return makeScheduler(req.scheduler, params)->schedule(stream, false);
}

Tokens
bucketTokens(Tokens t)
{
    if (t <= 64)
        return 64;
    // Round up to 1/32 of the enclosing power of two (~3% buckets).
    Tokens pow2 = 1;
    while (pow2 < t)
        pow2 <<= 1;
    Tokens step = pow2 / 32 ? pow2 / 32 : 1;
    return ((t + step - 1) / step) * step;
}

std::uint64_t
KernelCache::keyOf(const KernelRequest &req) const
{
    // FNV-1a over the descriptor fields.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(req.kind));
    mix(static_cast<std::uint64_t>(req.scheduler));
    mix(req.pingpong ? 1 : 0);
    switch (req.kind) {
      case KernelKind::Gemv:
        mix(req.gemv.doutGroups);
        mix(req.gemv.dinTiles);
        break;
      case KernelKind::Qkt:
      case KernelKind::Sv:
        mix(req.att.tokens);
        mix(req.att.headDim);
        mix(req.att.gqaGroup);
        mix(req.att.rowReuse ? 1 : 0);
        break;
    }
    return h;
}

const ScheduleResult &
KernelCache::get(const KernelRequest &req)
{
    std::uint64_t key = keyOf(req);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        ++hits_;
        return it->second;
    }
    ++misses_;
    auto [ins, ok] = cache_.emplace(key, simulateKernel(req, params_));
    if (!ok)
        panic("kernel cache insertion failed");
    return ins->second;
}

} // namespace pimphony
