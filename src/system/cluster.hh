/**
 * @file
 * Multi-module system configurations (the paper's Table IV plus the
 * evaluation-section deployments): a CENT-like PIM-only system and a
 * NeuPIMs-like xPU+PIM system, arranged in a TP x PP module grid.
 */

#ifndef PIMPHONY_SYSTEM_CLUSTER_HH
#define PIMPHONY_SYSTEM_CLUSTER_HH

#include <string>

#include "alloc/kv_allocator.hh"
#include "mapping/parallel.hh"
#include "model/llm.hh"
#include "system/pim_module.hh"
#include "system/xpu.hh"

namespace pimphony {

enum class SystemKind {
    PimOnly, ///< CENT-like: FC and attention both on PIM
    XpuPim,  ///< NeuPIMs-like: FC on the NPU, attention on PIM
};

std::string systemKindName(SystemKind kind);

struct ClusterConfig
{
    SystemKind kind = SystemKind::PimOnly;
    unsigned nModules = 8;
    ParallelPlan plan{8, 1};
    PimModuleConfig module;
    XpuConfig xpu = XpuConfig::neupimsNpu();

    /** Inter-module link (CXL-class) for TP all-reduces. */
    double linkBandwidth = 64e9;
    double linkAlpha = 1.5e-6;

    Bytes
    totalCapacity() const
    {
        return static_cast<Bytes>(nModules) * module.capacityBytes;
    }

    /** Capacity left for KV after the weight shards. */
    Bytes usableKvBytes(const LlmConfig &model) const;

    /**
     * Compute engines cooperating on one request's prefill. The
     * NeuPIMs-like system chunk-pipelines prefill across PP stages,
     * so every module's NPU contributes; the CENT-like system's PNMs
     * execute the admitted request layer by layer without chunked
     * prefill, so only the tp PNMs of one stage work at a time (with
     * PP=1 deployments the two coincide at nModules).
     */
    unsigned prefillEngines() const;

    /**
     * Table IV + Sec. VIII-A presets. PIM-only: 16 GB modules, 8
     * for 7B (128 GB) and 32 for 72B (512 GB). xPU+PIM: 32 GB
     * modules, 4 for 7B and 16 for 72B.
     */
    static ClusterConfig centLike(const LlmConfig &model);
    static ClusterConfig neupimsLike(const LlmConfig &model);
};

/** Apply the PIMphony technique set to a configuration. */
struct PimphonyOptions
{
    bool tcp = false;
    bool dcs = false;
    bool dpa = false;

    static PimphonyOptions baseline() { return {}; }
    static PimphonyOptions all() { return {true, true, true}; }

    /** The engine's KV allocator: DPA maps chunks on demand, without
     *  it each request reserves T_max (applyOptions sets TCP and DCS
     *  on the cluster; DPA is this). */
    AllocatorKind
    allocatorKind() const
    {
        return dpa ? AllocatorKind::LazyChunk : AllocatorKind::Static;
    }

    std::string label() const;
};

void applyOptions(ClusterConfig &config, const PimphonyOptions &options);

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_CLUSTER_HH
