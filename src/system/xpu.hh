/**
 * @file
 * Roofline models for the non-PIM compute engines: the NPU matrix
 * units of the NeuPIMs-like heterogeneous system, the PNM processor
 * of the CENT-like system, and the A100 GPU baseline of Fig. 20.
 */

#ifndef PIMPHONY_SYSTEM_XPU_HH
#define PIMPHONY_SYSTEM_XPU_HH

#include <cstdint>

#include "common/types.hh"
#include "common/units.hh"

namespace pimphony {

struct XpuConfig
{
    /** Peak FP16 throughput. */
    FlopsPerSecond peakFlops = tflops(256);

    /** Memory bandwidth available for weight/activation streaming. */
    BytesPerSecond memBandwidth = tbPerSec(1.0);

    /** Batch size at which GEMM efficiency reaches one half. */
    double halfSaturationBatch = 16.0;

    /**
     * Fraction of peak the matrix units sustain on compute-bound
     * GEMMs: prefill passes, and the rows of a decode FC share
     * launched together with a prefill chunk (which streams the
     * weights for both).
     */
    static constexpr double kSaturatedGemmEfficiency = 0.8;

    /** Table IV presets. */
    static XpuConfig neupimsNpu();
    static XpuConfig centPnm();
};

class XpuModel
{
  public:
    explicit XpuModel(const XpuConfig &config) : config_(config) {}

    /**
     * Seconds to run a batched GEMM: @p batch input rows against
     * @p weight_bytes of FP16 weights performing @p flops total
     * floating-point operations. Weights stream once per batch; the
     * matrix units saturate with batch size.
     */
    double gemmSeconds(double flops, Bytes weight_bytes,
                       std::uint32_t batch) const;

    /**
     * Seconds for @p flops of GEMM rows that ride another GEMM over
     * the same weights (a decode FC share launched with a prefill
     * chunk): the weights stream once for both, so only the rows'
     * compute is charged, at the saturated efficiency.
     */
    double fusedGemmSeconds(double flops) const;

    const XpuConfig &config() const { return config_; }

  private:
    XpuConfig config_;
};

struct GpuConfig
{
    FlopsPerSecond peakFlops = tflops(312);
    BytesPerSecond hbmBandwidth = tbPerSec(2.0);
    Bytes memoryBytes = 80_GiB;

    /** Flash-decoding efficiency on the KV scan. */
    double flashDecodingEfficiency = 0.75;

    /** GEMM efficiency on decode-size batches. */
    double gemmEfficiency = 0.55;

    /** Paged-attention capacity efficiency (vs. raw capacity). */
    double pagedAttentionUtilization = 0.88;

    static GpuConfig a100();
};

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_XPU_HH
