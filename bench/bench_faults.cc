/**
 * @file
 * Fault-tolerance benchmark: goodput degradation of the fleet under
 * the seeded MTBF/MTTR fault model (system/fault), swept over
 * MTBF x replicas x routing policy.
 *
 * Each grid cell builds one fleet over its own trace (work per
 * replica held constant, like bench_fleet) and a generative fault
 * schedule from buildFaultSchedule(spec, seed). Because schedules
 * with the same seed share the same uniform-draw sequence, shrinking
 * the MTBF compresses the identical failure pattern in time: the
 * number of outages inside the horizon grows monotonically as MTBF
 * falls, so the goodput fraction (delivered decode tokens over
 * requested decode tokens) must be nonincreasing along each
 * (replicas, policy) row. The bench enforces that curve — a
 * non-monotone row is a routing/failover bug, not noise — and also
 * replays one cell on the thread pool to check that fault runs stay
 * bit-identical to serial.
 *
 * A scripted crash-mid-decode scenario closes the accounting books:
 * completed + lost + rejected must equal the requests generated, and
 * generated tokens must split exactly into goodput plus tokens
 * discarded by the kill.
 *
 * Reading BENCH_faults.json: deterministic fields (fault_events,
 * goodput_tokens, goodput_fraction, lost_requests, retried_requests,
 * availability_mean, generated_tokens) must be bit-stable run to run
 * and across --threads values — the CI determinism job diffs them.
 * Timing fields (wall_ms) vary with the host.
 *
 * usage: bench_faults [--smoke] [--json[=PATH]] [--threads N]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "system/fault.hh"
#include "system/fleet.hh"
#include "workload/arrival.hh"

using namespace pimphony;

namespace {

struct FaultConfig
{
    unsigned replicas;
    RoutePolicy policy;
    /** Mean seconds between failures per replica; 0 = no faults. */
    double mtbfSeconds;
};

std::string
mtbfName(double mtbf)
{
    if (mtbf <= 0.0)
        return "inf";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", mtbf);
    return buf;
}

std::string
configName(const FaultConfig &cfg)
{
    return "faults.r" + std::to_string(cfg.replicas) + "." +
           routePolicyName(cfg.policy) + ".mtbf" +
           mtbfName(cfg.mtbfSeconds);
}

struct CellResult
{
    FleetResult fleet;
    std::size_t requests = 0;
    std::uint64_t decodeTokens = 0;
    std::size_t faultEvents = 0;
    double wall = 0.0;
};

CellResult
runCell(const FaultConfig &cfg, unsigned threads)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());

    // Work per replica and the offered rate per replica are held
    // constant, so the fault-free makespan (~1.3 s) is the same in
    // every cell and one MTBF axis serves all replica counts.
    CellResult cell;
    cell.requests = static_cast<std::size_t>(cfg.replicas) * 32;
    std::vector<Request> reqs;
    for (RequestId i = 0; i < cell.requests; ++i) {
        reqs.push_back({i, (i % 4 == 0) ? Tokens(30000) : Tokens(2000),
                        32});
        cell.decodeTokens += 32;
    }
    auto trace =
        poissonArrivals(reqs, 24.0 * cfg.replicas, 17);

    FaultSpec spec;
    spec.replicas = cfg.replicas;
    spec.horizonSeconds = cfg.mtbfSeconds > 0.0 ? 3.0 : 0.0;
    spec.mtbfSeconds = cfg.mtbfSeconds;
    spec.mttrSeconds = 0.25;
    spec.modelReloadSeconds = 0.1;
    spec.degradeProbability = 0.25;
    spec.slowdownFactor = 2.0;

    FleetOptions fopts;
    fopts.replicas = cfg.replicas;
    fopts.policy = cfg.policy;
    fopts.dispatchLatencySeconds = 0.002;
    fopts.threads = std::min(threads, cfg.replicas);
    fopts.retryBackoffSeconds = 0.05;
    fopts.engine.allocator = AllocatorKind::LazyChunk;
    fopts.engine.prefillChunkTokens = 2048;
    fopts.faults = buildFaultSchedule(spec, 29);
    cell.faultEvents = fopts.faults.eventCount();

    auto t0 = std::chrono::steady_clock::now();
    cell.fleet = FleetEngine(cluster, model, trace, fopts).run();
    cell.wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    return cell;
}

double
meanAvailability(const FleetResult &fleet)
{
    if (fleet.availability.empty())
        return 1.0;
    return std::accumulate(fleet.availability.begin(),
                           fleet.availability.end(), 0.0) /
           static_cast<double>(fleet.availability.size());
}

/**
 * Scripted crash mid-decode on a two-replica fleet: the books must
 * balance exactly — every generated request is completed, lost, or
 * rejected, and every generated token is goodput or was discarded by
 * the kill. fatal() on any imbalance.
 */
void
runAccountingScenario()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());

    std::vector<Request> reqs;
    for (RequestId i = 0; i < 24; ++i)
        reqs.push_back({i, (i % 4 == 0) ? Tokens(20000) : Tokens(2000),
                        256});
    auto trace = poissonArrivals(reqs, 64.0, 24);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.002;
    fopts.engine.allocator = AllocatorKind::LazyChunk;
    fopts.engine.prefillChunkTokens = 2048;
    fopts.faults.replicas.resize(2);
    fopts.faults.replicas[1].push_back(crashAt(0.5));
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    const EngineResult &agg = fleet.aggregate;
    std::uint64_t accounted = agg.completedRequests +
                              fleet.lostRequests +
                              agg.rejectedRequests;
    if (accounted != trace.size())
        fatal("bench_faults: crash-mid-decode accounting broke: "
              "%llu completed + %llu lost + %llu rejected != %zu "
              "generated",
              static_cast<unsigned long long>(agg.completedRequests),
              static_cast<unsigned long long>(fleet.lostRequests),
              static_cast<unsigned long long>(agg.rejectedRequests),
              trace.size());
    if (agg.generatedTokens != fleet.goodputTokens + fleet.lostTokens)
        fatal("bench_faults: token books do not balance: "
              "%llu generated != %llu goodput + %llu lost",
              static_cast<unsigned long long>(agg.generatedTokens),
              static_cast<unsigned long long>(fleet.goodputTokens),
              static_cast<unsigned long long>(fleet.lostTokens));
    std::cout << "[faults] crash-mid-decode accounting: "
              << agg.completedRequests << " completed + "
              << fleet.lostRequests << " lost + "
              << agg.rejectedRequests << " rejected == " << trace.size()
              << " generated; " << fleet.lostTokens
              << " decode tokens discarded by the kill\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        "fleet goodput degradation under the seeded MTBF/MTTR fault "
        "model: MTBF x replicas x routing policy");

    // MTBF axis, most reliable first; 0 is the fault-free baseline.
    std::vector<double> mtbfs;
    std::vector<FaultConfig> configs;
    if (args.smoke) {
        mtbfs = {0.0, 1.0, 0.25};
        for (double mtbf : mtbfs)
            configs.push_back({2, RoutePolicy::RoundRobin, mtbf});
    } else {
        mtbfs = {0.0, 4.0, 1.0, 0.25};
        for (unsigned replicas : {2u, 4u, 8u})
            for (RoutePolicy policy :
                 {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded})
                for (double mtbf : mtbfs)
                    configs.push_back({replicas, policy, mtbf});
    }

    printBanner(std::cout,
                "Fleet goodput under faults (MTBF x replicas x "
                "policy), xPU+PIM, LLM-7B-128K-GQA");
    bench::JsonRows json("bench_faults");
    TablePrinter t({"config", "events", "avail", "goodput tok",
                    "goodput frac", "goodput tok/s", "evac", "retried",
                    "lost", "wall (ms)"});

    // Warm-up (first-touch kernel simulation, pool growth).
    (void)runCell({1, RoutePolicy::RoundRobin, 0.0}, 1);

    double prev_fraction = 0.0;
    double prev_mtbf = 0.0;
    bool have_prev = false;
    for (const auto &cfg : configs) {
        auto cell = runCell(cfg, args.threads);
        double fraction =
            cell.decodeTokens > 0
                ? static_cast<double>(cell.fleet.goodputTokens) /
                      static_cast<double>(cell.decodeTokens)
                : 0.0;

        // The degradation curve must be monotone along each
        // (replicas, policy) row: rows are emitted MTBF-descending
        // (baseline first), so each cell may not beat its
        // more-reliable predecessor. mtbf 0 restarts the row.
        if (cfg.mtbfSeconds == 0.0)
            have_prev = false;
        if (have_prev && fraction > prev_fraction + 1e-9)
            fatal("bench_faults: goodput curve is not monotone on "
                  "%s: fraction %.6f at mtbf %s beats %.6f at "
                  "mtbf %s",
                  configName(cfg).c_str(), fraction,
                  mtbfName(cfg.mtbfSeconds).c_str(), prev_fraction,
                  mtbfName(prev_mtbf).c_str());
        prev_fraction = fraction;
        prev_mtbf = cfg.mtbfSeconds;
        have_prev = true;

        t.addRow({configName(cfg), std::to_string(cell.faultEvents),
                  TablePrinter::fmt(meanAvailability(cell.fleet), 4),
                  std::to_string(cell.fleet.goodputTokens),
                  TablePrinter::fmt(fraction, 4),
                  TablePrinter::fmt(cell.fleet.goodputTokensPerSecond,
                                    1),
                  std::to_string(cell.fleet.evacuatedRequests),
                  std::to_string(cell.fleet.retriedRequests),
                  std::to_string(cell.fleet.lostRequests),
                  TablePrinter::fmt(cell.wall * 1e3, 2)});
        if (args.json) {
            json.beginRow();
            json.field("config", configName(cfg));
            json.field("replicas", cfg.replicas);
            json.field("policy", routePolicyName(cfg.policy));
            json.field("mtbf_s", cfg.mtbfSeconds);
            json.field("requests",
                       static_cast<std::uint64_t>(cell.requests));
            // Deterministic fields (diffed by the CI determinism
            // job across runs and --threads values)...
            json.field("fault_events",
                       static_cast<std::uint64_t>(cell.faultEvents));
            json.field("availability_mean",
                       meanAvailability(cell.fleet));
            json.field("goodput_tokens", cell.fleet.goodputTokens);
            json.field("goodput_fraction", fraction);
            json.field("generated_tokens",
                       cell.fleet.aggregate.generatedTokens);
            json.field("evacuated_requests",
                       cell.fleet.evacuatedRequests);
            json.field("retried_requests", cell.fleet.retriedRequests);
            json.field("lost_requests", cell.fleet.lostRequests);
            json.field("lost_tokens", cell.fleet.lostTokens);
            json.field("reload_seconds", cell.fleet.reloadSeconds);
            // ...and host-dependent timing fields (excluded there).
            json.field("wall_ms", cell.wall * 1e3);
            json.field("threads", args.threads);
        }
    }
    t.print(std::cout);

    // Fault runs must be bit-identical serial vs pooled, exactly
    // like fault-free fleets (fault_test pins the full surface; the
    // bench spot-checks the headline fields on one faulty cell).
    if (args.threads > 1) {
        FaultConfig probe{4, RoutePolicy::LeastLoaded,
                          args.smoke ? 1.0 : 0.25};
        auto serial = runCell(probe, 1);
        auto pooled = runCell(probe, args.threads);
        if (serial.fleet.goodputTokens != pooled.fleet.goodputTokens ||
            serial.fleet.lostRequests != pooled.fleet.lostRequests ||
            serial.fleet.retriedRequests !=
                pooled.fleet.retriedRequests ||
            serial.fleet.aggregate.simEvents !=
                pooled.fleet.aggregate.simEvents)
            fatal("bench_faults: pooled fault run diverged from "
                  "serial on %s",
                  configName(probe).c_str());
        std::cout << "[faults] pooled fault run bit-identical to "
                     "serial on "
                  << configName(probe) << " at --threads "
                  << args.threads << "\n";
    }

    runAccountingScenario();

    bench::writeJsonIfRequested(json, args);
    return 0;
}
