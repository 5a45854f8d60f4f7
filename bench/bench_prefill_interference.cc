/**
 * @file
 * Prefill/decode interference sweep: chunk size x arrival rate on
 * the xPU+PIM system under the event-driven engine. Prefill chunks
 * share the per-stage xPU timelines with decode FC work, so coarse
 * chunks stall decode tokens (large p95 token gap) while fine chunks
 * trade a little TTFT for a much smoother decode — the continuous
 * batching tradeoff. chunk = 0 rows charge prefill as an unchunked
 * scalar at admission for reference; by construction every chunking
 * charges the same total prefill seconds.
 *
 * Run with --smoke for a tiny sweep (CI keeps the harness alive).
 */

#include "bench_util.hh"

#include "system/prefill.hh"
#include "workload/arrival.hh"

using namespace pimphony;

namespace {

void
sweep(std::size_t n_requests, Tokens context, Tokens decode,
      const std::vector<double> &rates, const std::vector<Tokens> &chunks,
      const bench::BenchArgs &args)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    double scalar = prefillSeconds(model, context, cluster.xpu,
                                   cluster.prefillEngines());
    printBanner(std::cout,
                "Chunked prefill vs decode, xPU+PIM, LLM-7B-128K-GQA");
    std::cout << "context " << context << " tok, scalar prefill "
              << TablePrinter::fmt(scalar * 1e3, 1) << " ms/request\n";

    std::vector<Request> reqs;
    for (RequestId i = 0; i < n_requests; ++i)
        reqs.push_back({i, context, decode});

    bench::JsonRows json("bench_prefill_interference");
    TablePrinter t({"rate (req/s)", "chunk (tok)", "tok/s",
                    "ttft p95 (s)", "gap p95 (ms)", "prefill (s)"});

    // Flattened (rate, chunk) grid for the sweep runner: each cell
    // rebuilds its seeded arrival trace, so any thread count yields
    // the serial rows bit-identically, in submission order.
    struct Cell
    {
        double rate;
        Tokens chunk;
    };
    std::vector<Cell> cells;
    for (double rate : rates)
        for (Tokens chunk : chunks)
            cells.push_back({rate, chunk});

    auto outs = bench::runSweep(args, cells.size(), [&](std::size_t i) {
        const Cell &c = cells[i];
        auto timed = poissonArrivals(reqs, c.rate, 17);
        EngineOptions opts;
        opts.allocator = AllocatorKind::LazyChunk;
        opts.prefillChunkTokens = c.chunk;
        opts.chargePrefill = c.chunk == 0;
        return ServingEngine(cluster, model, timed, opts).run();
    });

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const EngineResult &r = outs[i].value;
        t.addRow({TablePrinter::fmt(c.rate, 1),
                  c.chunk == 0 ? "scalar" : std::to_string(c.chunk),
                  TablePrinter::fmt(r.tokensPerSecond, 1),
                  TablePrinter::fmt(r.p95FirstTokenSeconds, 2),
                  TablePrinter::fmt(r.p95TokenGapSeconds * 1e3, 1),
                  TablePrinter::fmt(r.prefillSeconds, 2)});
        if (args.json) {
            json.beginRow();
            json.field("rate_rps", c.rate);
            json.field("chunk_tokens",
                       static_cast<std::uint64_t>(c.chunk));
            json.field("tokens_per_second", r.tokensPerSecond);
            json.field("ttft_p95_s", r.p95FirstTokenSeconds);
            json.field("gap_p95_s", r.p95TokenGapSeconds);
            json.field("prefill_s", r.prefillSeconds);
            json.field("sim_events", r.simEvents);
            json.field("threads", args.threads);
            json.field("config_wall_ms", outs[i].wallSeconds * 1e3);
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

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, "chunked prefill vs decode interference sweep");
    if (args.smoke)
        sweep(8, 30000, 16, {1.5}, {0, 30000, 1024}, args);
    else
        sweep(32, 30000, 64, {0.5, 1.0, 1.5},
              {0, 30000, 8192, 2048, 1024, 256}, args);
    return 0;
}
