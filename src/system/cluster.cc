#include "system/cluster.hh"

namespace pimphony {

std::string
systemKindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::PimOnly: return "PIM-only (CENT-like)";
      case SystemKind::XpuPim:  return "xPU+PIM (NeuPIMs-like)";
    }
    return "?";
}

Bytes
ClusterConfig::usableKvBytes(const LlmConfig &model) const
{
    Bytes cap = totalCapacity();
    Bytes weights = model.weightBytes();
    if (weights >= cap)
        return 0;
    return cap - weights;
}

unsigned
ClusterConfig::prefillEngines() const
{
    if (kind == SystemKind::XpuPim)
        return nModules; // one NPU per module, chunk-pipelined
    return plan.tp > 0 ? plan.tp : nModules; // PNMs of one stage
}

ClusterConfig
ClusterConfig::centLike(const LlmConfig &model)
{
    ClusterConfig c;
    c.kind = SystemKind::PimOnly;
    bool big = model.dModel > 4096;
    c.nModules = big ? 32 : 8;
    c.plan = ParallelPlan{c.nModules, 1};
    c.module.nChannels = 32;
    c.module.capacityBytes = 16_GiB;
    c.module.timing = AimTimingParams::aimx();
    c.module.scheduler = SchedulerKind::Static;
    c.module.partitioning = Partitioning::Hfp;
    c.xpu = XpuConfig::centPnm();
    return c;
}

ClusterConfig
ClusterConfig::neupimsLike(const LlmConfig &model)
{
    ClusterConfig c;
    c.kind = SystemKind::XpuPim;
    bool big = model.dModel > 4096;
    c.nModules = big ? 16 : 4;
    c.plan = ParallelPlan{c.nModules, 1};
    c.module.nChannels = 32;
    c.module.capacityBytes = 32_GiB;
    c.module.timing = AimTimingParams::aimx();
    c.module.scheduler = SchedulerKind::Static;
    c.module.partitioning = Partitioning::Hfp;
    c.xpu = XpuConfig::neupimsNpu();
    return c;
}

std::string
PimphonyOptions::label() const
{
    if (!tcp && !dcs && !dpa)
        return "baseline";
    std::string s;
    if (tcp)
        s += "+TCP";
    if (dcs)
        s += "+DCS";
    if (dpa)
        s += "+DPA";
    return s;
}

void
applyOptions(ClusterConfig &config, const PimphonyOptions &options)
{
    config.module.partitioning =
        options.tcp ? Partitioning::Tcp : Partitioning::Hfp;
    config.module.scheduler =
        options.dcs ? SchedulerKind::Dcs : SchedulerKind::Static;
    config.module.timing.outputEntries = options.dcs ? 16 : 1;
    // DPA selects the engine's allocator (allocatorKind()).
}

} // namespace pimphony
