/**
 * @file
 * Prefix-cache sweep and the warm-vs-cold TTFT gate.
 *
 * Headline: one 12-request trace sharing a single declared
 * 12288-token prefix (chunk-aligned, so the whole prefix is
 * shareable), run cold (caching off) and warm (caching on). The
 * publisher pays the full prefill once; every follower reuses the
 * cached KV and prefills nothing. The bench ASSERTS that the warm
 * followers' average TTFT is at most half the cold average and
 * exits fatally otherwise — wired into CI the same way as the
 * simperf gate, so a regression that erodes prefix reuse fails the
 * build instead of drifting.
 *
 * Grid: WorkloadSpec-built cells over prefix share x session turns
 * x cache mode (off / LRU / tier-weighted eviction). Every
 * non-timing field is deterministic; the CI prefix gate diffs the
 * smoke --json rows (timing keys stripped) against the committed
 * BENCH_prefix_cache.json, which doubles as the caching-off golden.
 *
 * Run with --smoke for the CI-sized sweep; --json emits
 * machine-readable rows for the gates and nightly artifacts.
 */

#include "bench_util.hh"

#include "workload/spec.hh"

using namespace pimphony;

namespace {

EngineOptions
cacheOptions(bool enabled, PrefixEvictPolicy evict)
{
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.prefixCache.enabled = enabled;
    opts.prefixCache.evict = evict;
    return opts;
}

/**
 * The headline gate. Requests arrive far enough apart that the
 * publisher's chunked prefill completes (and the cache entry turns
 * ready) before the first follower admits, so the warm run's
 * followers skip the entire 12288-token prefill.
 */
void
headline(const ClusterConfig &cluster, const LlmConfig &model,
         bench::JsonRows &json, const bench::BenchArgs &args)
{
    constexpr std::size_t kRequests = 12;
    constexpr Tokens kPrefix = 12288;

    std::vector<TimedRequest> trace;
    trace.reserve(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        Request r(static_cast<RequestId>(i), kPrefix, 32);
        r.prefixHash = 0xC0FFEE;
        r.prefixTokens = kPrefix;
        trace.push_back({r, static_cast<double>(i) * 6.0});
    }

    auto outs = bench::runSweep(args, 2, [&](std::size_t i) {
        ServingEngine engine(cluster, model, trace,
                             cacheOptions(i == 1, PrefixEvictPolicy::Lru));
        return engine.run();
    });
    const EngineResult &cold = outs[0].value;
    const EngineResult &warm = outs[1].value;

    auto follower_avg_ttft = [](const EngineResult &r) {
        double sum = 0.0;
        std::size_t n = 0;
        for (const auto &kv : r.firstTokenLatency)
            if (kv.first != 0) {
                sum += kv.second;
                ++n;
            }
        return n ? sum / static_cast<double>(n) : 0.0;
    };
    double cold_ttft = follower_avg_ttft(cold);
    double warm_ttft = follower_avg_ttft(warm);
    double ratio = cold_ttft > 0.0 ? warm_ttft / cold_ttft : 1.0;

    printBanner(std::cout, "Warm-vs-cold TTFT gate, 12288-token prefix");
    TablePrinter t({"mode", "ttft avg (s)", "prefill (s)", "saved (s)",
                    "hits", "done"});
    t.addRow({"cold", TablePrinter::fmt(cold_ttft, 3),
              TablePrinter::fmt(cold.prefillSeconds, 3), "-", "0",
              std::to_string(cold.completedRequests)});
    t.addRow({"warm", TablePrinter::fmt(warm_ttft, 3),
              TablePrinter::fmt(warm.prefillSeconds, 3),
              TablePrinter::fmt(warm.savedPrefillSeconds, 3),
              std::to_string(warm.prefixHits),
              std::to_string(warm.completedRequests)});
    t.print(std::cout);
    std::cout << "warm/cold TTFT ratio " << TablePrinter::fmt(ratio, 4)
              << " (gate: <= 0.5)\n";

    if (args.json) {
        json.beginRow();
        json.field("section", "headline");
        json.field("prefix_tokens", static_cast<std::uint64_t>(kPrefix));
        json.field("requests", static_cast<std::uint64_t>(kRequests));
        json.field("cold_ttft_avg_s", cold_ttft);
        json.field("warm_ttft_avg_s", warm_ttft);
        json.field("warm_cold_ratio", ratio);
        json.field("warm_hits", warm.prefixHits);
        json.field("warm_saved_prefill_s", warm.savedPrefillSeconds);
        json.field("cold_prefill_s", cold.prefillSeconds);
        json.field("warm_prefill_s", warm.prefillSeconds);
        json.field("threads", args.threads);
    }

    // The gate proper. A fleet-footed regression in admission or the
    // planner shows up here long before it shows up in throughput.
    if (warm.completedRequests != kRequests ||
        cold.completedRequests != kRequests)
        fatal("prefix gate: expected %zu completions, got warm %llu "
              "cold %llu",
              kRequests,
              static_cast<unsigned long long>(warm.completedRequests),
              static_cast<unsigned long long>(cold.completedRequests));
    if (warm.prefixHits != kRequests - 1)
        fatal("prefix gate: expected %zu warm hits, got %llu",
              kRequests - 1,
              static_cast<unsigned long long>(warm.prefixHits));
    if (!(warm_ttft <= 0.5 * cold_ttft))
        fatal("prefix gate FAILED: warm follower TTFT %.4fs > 0.5 x "
              "cold %.4fs (ratio %.4f)",
              warm_ttft, cold_ttft, ratio);
    std::cout << "prefix gate OK\n";
}

void
sweep(std::size_t n, const std::vector<double> &shares,
      const std::vector<unsigned> &turns_grid, bool full,
      const bench::BenchArgs &args)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
    applyOptions(cluster, PimphonyOptions::all());

    bench::JsonRows json("bench_prefix_cache");

    headline(cluster, model, json, args);

    struct Mode
    {
        bool on;
        PrefixEvictPolicy evict;
        const char *name;
    };
    std::vector<Mode> modes = {{false, PrefixEvictPolicy::Lru, "off"},
                               {true, PrefixEvictPolicy::Lru, "lru"}};
    if (full)
        modes.push_back(
            {true, PrefixEvictPolicy::TierWeighted, "tier"});

    struct Cell
    {
        double share;
        unsigned turns;
        Mode mode;
    };
    std::vector<Cell> cells;
    for (double share : shares)
        for (unsigned turns : turns_grid)
            for (const Mode &m : modes)
                cells.push_back({share, turns, m});

    printBanner(std::cout,
                "Prefix share x turns x cache mode, xPU+PIM, "
                "LLM-7B-128K-GQA");
    std::cout << n << " sessions, 1024-token pooled prefixes, "
              << "Poisson arrivals, PP=2\n";

    TablePrinter t({"share", "turns", "cache", "tok/s", "hit rate",
                    "cached (tok)", "saved (s)", "ttft avg (s)", "done",
                    "events"});

    auto outs = bench::runSweep(args, cells.size(), [&](std::size_t i) {
        const Cell &c = cells[i];
        WorkloadSpec spec;
        spec.count = n;
        spec.length.kind = LengthSourceKind::Pairs;
        spec.length.pairs = {{3000, 32}, {6000, 24}};
        spec.arrival.kind = ArrivalKind::Poisson;
        spec.arrival.ratePerSecond = 1.5;
        spec.prefix.share = c.share;
        spec.prefix.pool = 2;
        spec.prefix.tokens = 1024;
        spec.session.turns = c.turns;
        spec.session.thinkMeanSeconds = 0.5;
        spec.session.carryHistory = true;
        auto built = buildWorkload(spec, 47);

        ServingEngine engine(cluster, model, built.initial,
                             cacheOptions(c.mode.on, c.mode.evict));
        engine.declareSessionTurns(built.sessions);
        return engine.run();
    });

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const EngineResult &r = outs[i].value;
        double ttft_sum = 0.0;
        for (const auto &kv : r.firstTokenLatency)
            ttft_sum += kv.second;
        double ttft_avg = r.firstTokenLatency.empty()
            ? 0.0
            : ttft_sum /
                static_cast<double>(r.firstTokenLatency.size());
        t.addRow({TablePrinter::fmt(c.share, 1),
                  std::to_string(c.turns), c.mode.name,
                  TablePrinter::fmt(r.tokensPerSecond, 1),
                  TablePrinter::fmt(r.prefixHitRate, 2),
                  std::to_string(r.prefixCachedTokens),
                  TablePrinter::fmt(r.savedPrefillSeconds, 3),
                  TablePrinter::fmt(ttft_avg, 3),
                  std::to_string(r.completedRequests),
                  std::to_string(r.simEvents)});
        if (args.json) {
            json.beginRow();
            json.field("section", "sweep");
            json.field("prefix_share", c.share);
            json.field("turns", static_cast<std::uint64_t>(c.turns));
            json.field("cache", c.mode.name);
            json.field("tokens_per_second", r.tokensPerSecond);
            json.field("prefix_hits", r.prefixHits);
            json.field("prefix_misses", r.prefixMisses);
            json.field("prefix_evictions", r.prefixEvictions);
            json.field("prefix_hit_rate", r.prefixHitRate);
            json.field("prefix_cached_tokens", r.prefixCachedTokens);
            json.field("saved_prefill_s", r.savedPrefillSeconds);
            json.field("prefill_s", r.prefillSeconds);
            json.field("ttft_avg_s", ttft_avg);
            json.field("ttft_p95_s", r.p95FirstTokenSeconds);
            json.field("shared_kv_peak_bytes", r.sharedKvPeakBytes);
            json.field("completed", r.completedRequests);
            json.field("rejected", r.rejectedRequests);
            json.field("sim_events", r.simEvents);
            json.field("threads", args.threads);
            json.field("config_wall_ms", outs[i].wallSeconds * 1e3);
        }
    }
    t.print(std::cout);
    bench::writeJsonIfRequested(json, args);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        "prefix-cache sweep and the warm-vs-cold TTFT gate");
    if (args.smoke)
        sweep(8, {0.5}, {1, 3}, false, args);
    else
        sweep(24, {0.0, 0.5, 0.9}, {1, 3}, true, args);
    return 0;
}
