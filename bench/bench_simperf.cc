/**
 * @file
 * Benchmarks of the simulator itself — the numbers that bound how
 * large a sweep the figure harnesses can afford.
 *
 * Two sections:
 *
 * 1. Serving-scale (default): wall-clock the full event-driven
 *    ServingEngine across PP x cohorts x policy configurations and
 *    report events/second (EngineResult::simEvents / wall time).
 *    This is the end-to-end trajectory metric CI tracks: the PR 4
 *    hot-path overhaul (allocation-free event core, memoized device
 *    models, streaming SLO percentile) is asserted >= 3x the PR 3
 *    engine on the pp4.c64.fifo row.
 *
 * 2. Microbenchmarks (--micro): google-benchmark kernels for command
 *    scheduling, stream generation, and the kernel cache.
 *
 * Perf notes (what to expect from the hot path):
 *  - EventQueue schedule/dispatch: O(log E) heap sift, no per-event
 *    heap allocation (sim::SimFn small-buffer callbacks, counted
 *    fallback asserted zero in tests/sim_core_test.cc).
 *  - Device submit/complete: O(1) amortized (in-flight ring).
 *  - StagePipeline chain/sequence: pooled state, O(1) per stage
 *    hand-off.
 *  - SLO gate: O(log W) per decode gap (WindowedQuantile), O(1) per
 *    admission check.
 *  - finalize: each latency stream is an exact run-length store
 *    (SampleRuns), so memory grows with runs of repeated values, not
 *    with decoded tokens; a percentile sorts the r runs once,
 *    O(r log r).
 *
 * Reading BENCH_simperf.json: rows[] carry the per-config results.
 * Deterministic fields (sim_events, generated_tokens,
 * tokens_per_second, gap_p95_s) must be bit-stable run to run — the
 * CI determinism job diffs them across two runs (and a --threads 4
 * run against the serial rows). Timing fields (wall_ms,
 * events_per_sec) vary with the machine; the CI perf gate compares
 * events_per_sec against the committed baseline BENCH_simperf.json
 * at the repo root to keep the perf trajectory visible per commit.
 *
 * Interpretation note for the sweep runner: wall_ms and
 * events_per_sec are *per-config* timings measured inside the cell —
 * the single-run hot-path numbers the PR 4 baseline tracks — so they
 * are unaffected by how many configs the runner executes at once,
 * except for host core contention when --threads > 1 oversubscribes
 * the machine. The committed baseline and the CI perf gate therefore
 * use serial (--threads 1) runs; threads and config_wall_ms record
 * each row's provenance. config_wall_ms spans the whole cell: the
 * warm-up run plus every timed repetition, 1 + reps runs (6 full, 4
 * with --smoke), while wall_ms is the best single repetition — so
 * config_wall_ms is roughly (1 + reps) x wall_ms.
 *
 * usage: bench_simperf [--smoke] [--json[=PATH]] [--threads N] |
 * --micro [gbench flags]
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "kernels/kernel_sim.hh"
#include "system/engine.hh"
#include "system/fleet.hh"
#include "system/sched_policy.hh"
#include "workload/arrival.hh"

using namespace pimphony;

namespace {

// --- Serving-scale section. ------------------------------------------

struct ServingConfig
{
    unsigned pp;
    unsigned cohorts; ///< target cohort count (requests = 4x)
    SchedPolicyKind policy;
};

std::string
configName(const ServingConfig &cfg)
{
    return "pp" + std::to_string(cfg.pp) + ".c" +
           std::to_string(cfg.cohorts) + "." +
           schedPolicyName(cfg.policy);
}

/** One timed engine run; returns (result, best wall seconds). */
EngineResult
runServingConfig(const ServingConfig &cfg, int reps, double &best_wall)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / cfg.pp, cfg.pp};
    applyOptions(cluster, PimphonyOptions::all());

    // Bimodal contexts (1/4 long) with bursty open-loop arrivals:
    // the serving shape the policy sweeps use, at a scale where the
    // event core's own cost is visible.
    std::size_t n = static_cast<std::size_t>(cfg.cohorts) * 4;
    std::vector<Request> reqs;
    for (RequestId i = 0; i < n; ++i)
        reqs.push_back({i, (i % 4 == 0) ? Tokens(30000) : Tokens(2000),
                        48});
    PoissonProcess arrivals(8.0);
    auto timed = attachArrivals(reqs, arrivals, 17);

    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.sched.kind = cfg.policy;

    // One warm-up run (first-touch kernel simulation, pool growth),
    // then the best of @p reps timed runs: the minimum is the most
    // reproducible wall estimator on a noisy host.
    (void)ServingEngine(cluster, model, timed, opts).run();
    EngineResult r;
    best_wall = 0.0;
    for (int i = 0; i < reps; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        r = ServingEngine(cluster, model, timed, opts).run();
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (best_wall == 0.0 || wall < best_wall)
            best_wall = wall;
    }
    return r;
}

// --- Fleet rows (multi-replica windowed advance). --------------------

struct FleetRowConfig
{
    unsigned replicas;
    RoutePolicy policy;
};

std::string
fleetConfigName(const FleetRowConfig &cfg)
{
    return "fleet.r" + std::to_string(cfg.replicas) +
           (cfg.policy == RoutePolicy::RoundRobin ? ".rr"
                                                  : ".least-loaded");
}

/**
 * One timed fleet run. The fleet's internal window advance is pinned
 * serial (FleetOptions::threads = 1) so the row tracks the event
 * core + window protocol cost itself, comparable across hosts the
 * way the engine rows are; bench_fleet owns the scaling story.
 */
EngineResult
runFleetConfig(const FleetRowConfig &cfg, int reps, double &best_wall)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());

    std::size_t n = static_cast<std::size_t>(cfg.replicas) * 32;
    std::vector<Request> reqs;
    for (RequestId i = 0; i < n; ++i)
        reqs.push_back({i, (i % 4 == 0) ? Tokens(30000) : Tokens(2000),
                        32});
    PoissonProcess arrivals(24.0);
    auto trace = attachArrivals(reqs, arrivals, 17);

    FleetOptions fopts;
    fopts.replicas = cfg.replicas;
    fopts.policy = cfg.policy;
    fopts.dispatchLatencySeconds = 0.002;
    fopts.threads = 1;
    fopts.engine.allocator = AllocatorKind::LazyChunk;
    fopts.engine.prefillChunkTokens = 2048;

    (void)FleetEngine(cluster, model, trace, fopts).run();
    EngineResult r;
    best_wall = 0.0;
    for (int i = 0; i < reps; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        r = FleetEngine(cluster, model, trace, fopts).run().aggregate;
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (best_wall == 0.0 || wall < best_wall)
            best_wall = wall;
    }
    return r;
}

void
servingScale(const bench::BenchArgs &args)
{
    std::vector<ServingConfig> configs;
    if (args.smoke) {
        configs = {
            {1, 16, SchedPolicyKind::Fifo},
            {4, 64, SchedPolicyKind::Fifo},
            {4, 64, SchedPolicyKind::SloAdmission},
        };
    } else {
        for (unsigned pp : {1u, 2u, 4u})
            for (unsigned cohorts : {16u, 64u})
                for (SchedPolicyKind policy :
                     {SchedPolicyKind::Fifo,
                      SchedPolicyKind::SloAdmission})
                    configs.push_back({pp, cohorts, policy});
    }
    int reps = args.smoke ? 3 : 5;

    printBanner(std::cout,
                "Event-core serving throughput (events/sec), xPU+PIM, "
                "LLM-7B-128K-GQA");
    bench::JsonRows json("bench_simperf");
    TablePrinter t({"config", "requests", "events", "tokens", "wall (ms)",
                    "events/s", "sim tok/s", "gap p95 (ms)"});

    // Each config is an independent engine sweep cell; the runner
    // executes them concurrently (--threads) and hands results back
    // in submission order, so rows below are emitted exactly as the
    // serial loop would.
    struct ConfigRun
    {
        EngineResult result;
        double bestWall = 0.0;
    };
    auto cells =
        bench::runSweep(args, configs.size(), [&](std::size_t i) {
            ConfigRun run;
            run.result =
                runServingConfig(configs[i], reps, run.bestWall);
            return run;
        });

    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto &cfg = configs[i];
        const EngineResult &r = cells[i].value.result;
        double wall = cells[i].value.bestWall;
        double eps = wall > 0.0
                         ? static_cast<double>(r.simEvents) / wall
                         : 0.0;
        t.addRow({configName(cfg),
                  std::to_string(static_cast<std::size_t>(cfg.cohorts) *
                                 4),
                  std::to_string(r.simEvents),
                  std::to_string(r.generatedTokens),
                  TablePrinter::fmt(wall * 1e3, 2),
                  TablePrinter::fmt(eps, 0),
                  TablePrinter::fmt(r.tokensPerSecond, 1),
                  TablePrinter::fmt(r.p95TokenGapSeconds * 1e3, 1)});
        if (args.json) {
            json.beginRow();
            json.field("config", configName(cfg));
            json.field("pp", cfg.pp);
            json.field("cohorts", cfg.cohorts);
            json.field("policy", schedPolicyName(cfg.policy));
            json.field("requests", static_cast<std::uint64_t>(
                                       static_cast<std::size_t>(
                                           cfg.cohorts) *
                                       4));
            // Deterministic fields (diffed by the CI determinism
            // job)...
            json.field("sim_events", r.simEvents);
            json.field("generated_tokens", r.generatedTokens);
            json.field("tokens_per_second", r.tokensPerSecond);
            json.field("gap_p95_s", r.p95TokenGapSeconds);
            // ...and host-dependent timing fields (excluded there,
            // compared warn-only against the committed baseline).
            json.field("wall_ms", wall * 1e3);
            json.field("events_per_sec", eps);
            json.field("threads", args.threads);
            json.field("config_wall_ms",
                       cells[i].wallSeconds * 1e3);
        }
    }
    // Fleet rows ride the same sweep machinery: multi-replica
    // windowed advance, serial inside (see runFleetConfig), so the
    // perf gate tracks the window protocol's own cost per commit.
    std::vector<FleetRowConfig> fleet_configs = {
        {4, RoutePolicy::RoundRobin},
        {8, RoutePolicy::LeastLoaded},
    };
    auto fleet_cells = bench::runSweep(
        args, fleet_configs.size(), [&](std::size_t i) {
            ConfigRun run;
            run.result =
                runFleetConfig(fleet_configs[i], reps, run.bestWall);
            return run;
        });
    for (std::size_t i = 0; i < fleet_configs.size(); ++i) {
        const auto &cfg = fleet_configs[i];
        const EngineResult &r = fleet_cells[i].value.result;
        double wall = fleet_cells[i].value.bestWall;
        double eps = wall > 0.0
                         ? static_cast<double>(r.simEvents) / wall
                         : 0.0;
        t.addRow({fleetConfigName(cfg),
                  std::to_string(static_cast<std::size_t>(cfg.replicas) *
                                 32),
                  std::to_string(r.simEvents),
                  std::to_string(r.generatedTokens),
                  TablePrinter::fmt(wall * 1e3, 2),
                  TablePrinter::fmt(eps, 0),
                  TablePrinter::fmt(r.tokensPerSecond, 1),
                  TablePrinter::fmt(r.p95TokenGapSeconds * 1e3, 1)});
        if (args.json) {
            json.beginRow();
            json.field("config", fleetConfigName(cfg));
            json.field("replicas", cfg.replicas);
            json.field("policy", routePolicyName(cfg.policy));
            json.field("requests", static_cast<std::uint64_t>(
                                       static_cast<std::size_t>(
                                           cfg.replicas) *
                                       32));
            json.field("sim_events", r.simEvents);
            json.field("generated_tokens", r.generatedTokens);
            json.field("tokens_per_second", r.tokensPerSecond);
            json.field("gap_p95_s", r.p95TokenGapSeconds);
            json.field("wall_ms", wall * 1e3);
            json.field("events_per_sec", eps);
            json.field("threads", args.threads);
            json.field("config_wall_ms",
                       fleet_cells[i].wallSeconds * 1e3);
        }
    }

    t.print(std::cout);
    if (args.json) {
        if (json.writeFile(args.jsonPath))
            std::cout << "wrote " << args.jsonPath << "\n";
        else
            std::cerr << "failed to write " << args.jsonPath << "\n";
    }
}

// --- Microbenchmark section (--micro). -------------------------------

AttentionSpec
benchSpec(Tokens tokens)
{
    AttentionSpec spec;
    spec.tokens = tokens;
    spec.headDim = 128;
    spec.gqaGroup = 4;
    spec.rowReuse = true;
    return spec;
}

void
BM_BuildQktStream(benchmark::State &state)
{
    auto params = AimTimingParams::aimxWithObuf(16);
    auto spec = benchSpec(static_cast<Tokens>(state.range(0)));
    for (auto _ : state) {
        auto s = buildQktStream(spec, params);
        benchmark::DoNotOptimize(s.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildQktStream)->Arg(4096)->Arg(32768);

void
BM_ScheduleStatic(benchmark::State &state)
{
    auto params = AimTimingParams::aimx();
    auto stream = buildQktStream(benchSpec(
        static_cast<Tokens>(state.range(0))), params);
    auto sched = makeScheduler(SchedulerKind::Static, params);
    for (auto _ : state) {
        auto r = sched->schedule(stream);
        benchmark::DoNotOptimize(r.makespan);
    }
    state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_ScheduleStatic)->Arg(4096)->Arg(32768);

void
BM_ScheduleDcs(benchmark::State &state)
{
    auto params = AimTimingParams::aimxWithObuf(16);
    auto stream = buildQktStream(benchSpec(
        static_cast<Tokens>(state.range(0))), params);
    auto sched = makeScheduler(SchedulerKind::Dcs, params);
    for (auto _ : state) {
        auto r = sched->schedule(stream);
        benchmark::DoNotOptimize(r.makespan);
    }
    state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_ScheduleDcs)->Arg(4096)->Arg(32768);

void
BM_SchedulePingPong(benchmark::State &state)
{
    auto params = AimTimingParams::aimxWithObuf(16);
    auto stream = buildQktStream(benchSpec(
        static_cast<Tokens>(state.range(0))), params, true);
    auto sched = makeScheduler(SchedulerKind::PingPong, params);
    for (auto _ : state) {
        auto r = sched->schedule(stream);
        benchmark::DoNotOptimize(r.makespan);
    }
    state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_SchedulePingPong)->Arg(4096);

void
BM_KernelCacheHit(benchmark::State &state)
{
    KernelCache cache(AimTimingParams::aimxWithObuf(16));
    auto req = KernelRequest::makeQkt(benchSpec(16384),
                                      SchedulerKind::Dcs);
    cache.get(req); // warm
    for (auto _ : state) {
        const auto &r = cache.get(req);
        benchmark::DoNotOptimize(r.makespan);
    }
}
BENCHMARK(BM_KernelCacheHit);

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;

    // --micro hands the remaining argv to google-benchmark; the
    // default path is the serving-scale section with the shared
    // --smoke/--json handling.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--micro") {
            // Drop "--micro" and let gbench parse the rest.
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            benchmark::Initialize(&argc, argv);
            if (benchmark::ReportUnrecognizedArguments(argc, argv))
                return 1;
            benchmark::RunSpecifiedBenchmarks();
            return 0;
        }
    }

    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        "simulator performance: serving-scale events/sec (default) or "
        "--micro kernel benchmarks");
    servingScale(args);
    return 0;
}
