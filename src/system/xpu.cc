#include "system/xpu.hh"

#include <algorithm>

namespace pimphony {

XpuConfig
XpuConfig::neupimsNpu()
{
    XpuConfig c;
    c.peakFlops = tflops(256); // 8 matrix units (Table IV)
    c.memBandwidth = tbPerSec(1.0);
    return c;
}

XpuConfig
XpuConfig::centPnm()
{
    XpuConfig c;
    c.peakFlops = tflops(3); // Table IV
    c.memBandwidth = tbPerSec(0.5);
    c.halfSaturationBatch = 4.0;
    return c;
}

double
XpuModel::gemmSeconds(double flops, Bytes weight_bytes,
                      std::uint32_t batch) const
{
    double b = std::max<std::uint32_t>(batch, 1);
    double efficiency = b / (b + config_.halfSaturationBatch);
    double compute = flops / (config_.peakFlops * efficiency);
    double memory = static_cast<double>(weight_bytes) /
                    config_.memBandwidth;
    return std::max(compute, memory);
}

double
XpuModel::fusedGemmSeconds(double flops) const
{
    return flops / (config_.peakFlops * XpuConfig::kSaturatedGemmEfficiency);
}

GpuConfig
GpuConfig::a100()
{
    return GpuConfig{};
}

} // namespace pimphony
