/**
 * @file
 * Fleet-simulation benchmark: wall-clock scaling of the conservative
 * time-window replica advance (system/fleet) in replica count and
 * thread count.
 *
 * Each grid cell builds one fleet (replicas x routing policy x
 * arrival rate, fixed router dispatch latency) over its own trace
 * and runs it twice: serially (threads = 1, the exact inline path)
 * and on the requested thread pool. The two runs are bit-identical
 * in every simulated metric by construction — the bench asserts the
 * headline fields match — so the interesting number is the wall
 * ratio: with replicas >> threads >= cores the windowed advance
 * should approach linear scaling, because replicas only synchronize
 * at window barriers and the router's serial work is O(arrivals).
 *
 * The 8-replica speedup row is the headline CI watches. On a
 * single-core host the parallel leg cannot beat the serial one, so
 * the speedup expectation is skipped with a note rather than
 * reported as a regression.
 *
 * Reading BENCH_fleet.json: deterministic fields (sim_events,
 * generated_tokens, tokens_per_second, gap_p95_s, windows) must be
 * bit-stable run to run and across --threads values — the CI
 * determinism job diffs them. Timing fields (serial_wall_ms,
 * parallel_wall_ms, speedup_x, wall_ms, events_per_sec) vary with
 * the host.
 *
 * usage: bench_fleet [--smoke] [--json[=PATH]] [--threads N]
 */

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "system/fleet.hh"
#include "workload/arrival.hh"

using namespace pimphony;

namespace {

struct FleetConfig
{
    unsigned replicas;
    RoutePolicy policy;
    double ratePerSecond;
};

std::string
configName(const FleetConfig &cfg)
{
    return "fleet.r" + std::to_string(cfg.replicas) + "." +
           routePolicyName(cfg.policy) + ".rate" +
           std::to_string(static_cast<int>(cfg.ratePerSecond));
}

FleetResult
runFleetOnce(const FleetConfig &cfg, unsigned threads, double &wall)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());

    // Work per replica is held constant (requests scale with the
    // fleet), so the serial wall grows ~linearly in replicas and the
    // parallel speedup is read directly from the ratio.
    std::size_t n = static_cast<std::size_t>(cfg.replicas) * 32;
    std::vector<Request> reqs;
    for (RequestId i = 0; i < n; ++i)
        reqs.push_back({i, (i % 4 == 0) ? Tokens(30000) : Tokens(2000),
                        32});
    PoissonProcess arrivals(cfg.ratePerSecond);
    auto trace = attachArrivals(reqs, arrivals, 17);

    FleetOptions fopts;
    fopts.replicas = cfg.replicas;
    fopts.policy = cfg.policy;
    fopts.dispatchLatencySeconds = 0.002;
    fopts.threads = std::min(threads, cfg.replicas);
    fopts.engine.allocator = AllocatorKind::LazyChunk;
    fopts.engine.prefillChunkTokens = 2048;

    auto t0 = std::chrono::steady_clock::now();
    auto result = FleetEngine(cluster, model, trace, fopts).run();
    wall = std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
               .count();
    return result;
}

/** Best-of-@p reps wall (the most reproducible estimator). */
FleetResult
runFleetBest(const FleetConfig &cfg, unsigned threads, int reps,
             double &best_wall)
{
    FleetResult r;
    best_wall = 0.0;
    for (int i = 0; i < reps; ++i) {
        double wall = 0.0;
        r = runFleetOnce(cfg, threads, wall);
        if (best_wall == 0.0 || wall < best_wall)
            best_wall = wall;
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        "fleet simulation wall-clock scaling: replicas x policy x "
        "arrival rate, serial vs --threads N window advance");

    std::vector<FleetConfig> configs;
    if (args.smoke) {
        configs = {
            {2, RoutePolicy::RoundRobin, 24.0},
            {4, RoutePolicy::LeastLoaded, 24.0},
            {8, RoutePolicy::RoundRobin, 24.0},
        };
    } else {
        for (unsigned replicas : {1u, 2u, 4u, 8u})
            for (RoutePolicy policy :
                 {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded})
                for (double rate : {16.0, 48.0})
                    configs.push_back({replicas, policy, rate});
    }
    int reps = args.smoke ? 1 : 2;

    printBanner(std::cout,
                "Fleet window-advance scaling (replicas x policy x "
                "rate), xPU+PIM, LLM-7B-128K-GQA");
    bench::JsonRows json("bench_fleet");
    TablePrinter t({"config", "requests", "windows", "events",
                    "sim tok/s", "serial (ms)",
                    "T=" + std::to_string(args.threads) + " (ms)",
                    "speedup"});

    // One warm-up (first-touch kernel simulation, pool growth) so
    // the first cell's serial leg is not penalized.
    {
        double w = 0.0;
        (void)runFleetOnce({1, RoutePolicy::RoundRobin, 24.0}, 1, w);
    }

    double headline_speedup = 0.0;
    for (const auto &cfg : configs) {
        double serial_wall = 0.0;
        auto serial = runFleetBest(cfg, 1, reps, serial_wall);

        // The parallel leg re-runs the identical fleet on the pool;
        // simulated results must not move.
        double parallel_wall = serial_wall;
        if (args.threads > 1) {
            auto parallel =
                runFleetBest(cfg, args.threads, reps, parallel_wall);
            if (parallel.aggregate.simEvents !=
                    serial.aggregate.simEvents ||
                parallel.aggregate.generatedTokens !=
                    serial.aggregate.generatedTokens ||
                parallel.windows != serial.windows)
                fatal("bench_fleet: parallel run diverged from serial "
                      "on %s",
                      configName(cfg).c_str());
        }
        double speedup =
            parallel_wall > 0.0 ? serial_wall / parallel_wall : 0.0;
        if (cfg.replicas == 8 && args.threads > 1)
            headline_speedup = std::max(headline_speedup, speedup);

        const EngineResult &r = serial.aggregate;
        double eps = serial_wall > 0.0
                         ? static_cast<double>(r.simEvents) / serial_wall
                         : 0.0;
        t.addRow({configName(cfg), std::to_string(
                      static_cast<std::size_t>(cfg.replicas) * 32),
                  std::to_string(serial.windows),
                  std::to_string(r.simEvents),
                  TablePrinter::fmt(r.tokensPerSecond, 1),
                  TablePrinter::fmt(serial_wall * 1e3, 2),
                  TablePrinter::fmt(parallel_wall * 1e3, 2),
                  bench::fmtSpeedup(speedup)});
        if (args.json) {
            json.beginRow();
            json.field("config", configName(cfg));
            json.field("replicas", cfg.replicas);
            json.field("policy", routePolicyName(cfg.policy));
            json.field("rate_rps", cfg.ratePerSecond);
            json.field("requests", static_cast<std::uint64_t>(
                                       static_cast<std::size_t>(
                                           cfg.replicas) *
                                       32));
            // Deterministic fields (diffed by the CI determinism
            // job across runs and --threads values)...
            json.field("windows", serial.windows);
            json.field("sim_events", r.simEvents);
            json.field("generated_tokens", r.generatedTokens);
            json.field("tokens_per_second", r.tokensPerSecond);
            json.field("gap_p95_s", r.p95TokenGapSeconds);
            json.field("completed_requests", r.completedRequests);
            // ...and host-dependent timing fields (excluded there).
            json.field("wall_ms", serial_wall * 1e3);
            json.field("events_per_sec", eps);
            json.field("serial_wall_ms", serial_wall * 1e3);
            json.field("parallel_wall_ms", parallel_wall * 1e3);
            json.field("speedup_x", speedup);
            json.field("threads", args.threads);
        }
    }
    t.print(std::cout);

    // Headline: near-linear scaling in replicas. Meaningless on a
    // single-core host (the pool cannot beat the inline path), so
    // skip with a note instead of reporting a regression.
    if (args.threads <= 1) {
        std::cout << "[fleet] serial run (--threads 1): speedup "
                     "headline skipped\n";
    } else if (SweepRunner::hardwareThreads() < 2) {
        std::cout << "[fleet] single-core host: 8-replica speedup "
                     "expectation skipped (measured "
                  << TablePrinter::fmt(headline_speedup, 2) << "x)\n";
    } else {
        std::cout << "[fleet] 8-replica speedup at --threads "
                  << args.threads << ": "
                  << TablePrinter::fmt(headline_speedup, 2) << "x\n";
    }

    bench::writeJsonIfRequested(json, args);
    return 0;
}
