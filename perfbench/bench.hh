/**
 * @file
 * Shared pieces of the repository benchmark: the workload catalogue,
 * the in-memory span log of the traced run, and the layer
 * microbenches' entry point.
 *
 * The benchmark drives the library only through its public API
 * (buildWorkload, ServingEngine's resumable protocol, FleetEngine)
 * and times calls into each layer from these files; nothing inside
 * src/ is instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/llm.hh"
#include "system/cluster.hh"
#include "system/engine.hh"
#include "system/fleet.hh"
#include "workload/spec.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One named workload: its inputs, its engine or fleet, its limits. */
struct Workload
{
    std::string name;

    pimphony::WorkloadSpec spec;

    /** Run through a FleetEngine (fleet options) instead of one engine. */
    bool fleet = false;
    pimphony::EngineOptions engine;
    pimphony::FleetOptions fleetOptions;

    /** TTFT limit of the sim_ttft_slo_share metric (simulated s). */
    double ttftLimitSeconds = 0.0;

    /** Simulated window of the traced run's advanceTo() loop. */
    double traceWindowSeconds = 1.0;
};

/** LLM-7B-128K-GQA, the model every workload serves. */
pimphony::LlmConfig benchModel();

/** NeuPIMs-like xPU+PIM cluster, PP=4, with TCP+DCS+DPA on. */
pimphony::ClusterConfig benchCluster(const pimphony::LlmConfig &model);

/** The named workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Workload called @p name, or null. */
const Workload *findWorkload(const std::string &name);

/**
 * Spans kept in memory during the traced run and written out at the
 * end as Chrome trace-event JSON (opens in Perfetto). A disabled log
 * records nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under @p parent (-1 = root); returns its id. */
    int open(const std::string &name, int parent = -1);

    /** Close span @p id now; returns its duration in seconds. */
    double close(int id);

    /** Write every closed span to @p path; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        Clock::time_point start;
        Clock::time_point end;
    };

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/**
 * Run the layer microbenches attributed to @p workload: each times
 * one layer's public calls on an operation mix shaped like that
 * workload and stores ns/op under its metric name in @p out. Every
 * call is a span under @p parent. Returns false (with @p error set)
 * if a microbench's own sanity check fails.
 */
bool runMicrobenches(const Workload &workload, std::uint64_t seed,
                     SpanLog &spans, int parent,
                     std::map<std::string, double> &out,
                     std::string &error);

/** Names of every microbench metric, in output order. */
const std::vector<std::string> &microbenchMetrics();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
