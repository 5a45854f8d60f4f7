/**
 * @file
 * Co-scheduling policy sweep: policy x arrival rate x context length
 * on the xPU+PIM system under the event-driven engine with chunked
 * prefill. Each stage's xPU timeline is shared between prefill
 * chunks and decode FC shares; the policy decides who goes first:
 *
 *   fifo            strict submission order (the baseline)
 *   decode-priority decode FC overtakes queued chunks
 *   chunk-preempt   + in-flight chunks preempted at a quantum
 *   slo-admission   FIFO timeline, prefills deferred while the
 *                   observed p95 token gap exceeds a target
 *
 * The interesting columns: gap p95 (the decode SLO the policies
 * protect), ttft p95 (what SLO protection costs), and max FC wait
 * (the stall bound chunk-preempt enforces). Prefill charge is
 * conserved by every policy — "prefill (s)" must match across the
 * policy rows of one (rate, ctx) cell.
 *
 * Run with --smoke for a tiny sweep (CI keeps the harness alive and
 * archives the output for perf-trajectory tracking).
 */

#include "bench_util.hh"

#include "system/prefill.hh"
#include "system/sched_policy.hh"
#include "workload/arrival.hh"

using namespace pimphony;

namespace {

void
sweep(std::size_t n_requests, Tokens decode, Tokens chunk,
      const std::vector<double> &rates, const std::vector<Tokens> &contexts,
      const bench::BenchArgs &args)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());

    printBanner(std::cout,
                "xPU co-scheduling policies, xPU+PIM, LLM-7B-128K-GQA");
    std::cout << n_requests << " requests, " << decode
              << " decode tokens, chunk " << chunk
              << " tok, bursty (gamma cv=3) arrivals\n";

    bench::JsonRows json("bench_sched_policies");
    TablePrinter t({"ctx (tok)", "rate (req/s)", "policy", "tok/s",
                    "ttft p95 (s)", "gap p95 (ms)", "fc wait max (ms)",
                    "slices", "defers", "prefill (s)"});

    // Flatten the (ctx, rate, policy) grid into independent sweep
    // cells for the runner; every cell rebuilds its request list and
    // seeded arrivals, so results are bit-identical at any thread
    // count and rows come back in submission order.
    struct Cell
    {
        Tokens ctx;
        double rate;
        SchedPolicyKind kind;
    };
    std::vector<Cell> cells;
    for (Tokens ctx : contexts)
        for (double rate : rates)
            for (SchedPolicyKind kind : allSchedPolicies())
                cells.push_back({ctx, rate, kind});

    auto outs = bench::runSweep(args, cells.size(), [&](std::size_t i) {
        const Cell &c = cells[i];
        std::vector<Request> reqs;
        for (RequestId r = 0; r < n_requests; ++r)
            reqs.push_back({r, c.ctx, decode});
        auto timed = gammaArrivals(reqs, c.rate, 3.0, 17);
        EngineOptions opts;
        opts.allocator = AllocatorKind::LazyChunk;
        opts.prefillChunkTokens = chunk;
        opts.sched.kind = c.kind;
        return ServingEngine(cluster, model, timed, opts).run();
    });

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const EngineResult &r = outs[i].value;
        t.addRow({std::to_string(c.ctx), TablePrinter::fmt(c.rate, 1),
                  schedPolicyName(c.kind),
                  TablePrinter::fmt(r.tokensPerSecond, 1),
                  TablePrinter::fmt(r.p95FirstTokenSeconds, 2),
                  TablePrinter::fmt(r.p95TokenGapSeconds * 1e3, 1),
                  TablePrinter::fmt(
                      r.maxDecodeXpuWaitSeconds * 1e3, 1),
                  std::to_string(r.chunkSlices),
                  std::to_string(r.sloDeferrals),
                  TablePrinter::fmt(r.prefillSeconds, 2)});
        if (args.json) {
            json.beginRow();
            json.field("context_tokens",
                       static_cast<std::uint64_t>(c.ctx));
            json.field("rate_rps", c.rate);
            json.field("policy", schedPolicyName(c.kind));
            json.field("tokens_per_second", r.tokensPerSecond);
            json.field("ttft_p95_s", r.p95FirstTokenSeconds);
            json.field("gap_p95_s", r.p95TokenGapSeconds);
            json.field("max_decode_xpu_wait_s",
                       r.maxDecodeXpuWaitSeconds);
            json.field("chunk_slices", r.chunkSlices);
            json.field("slo_deferrals", r.sloDeferrals);
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
        argc, argv,
        "co-scheduling policy sweep (policy x rate x context)");
    if (args.smoke)
        sweep(8, 16, 2048, {1.5}, {30000}, args);
    else
        sweep(24, 48, 2048, {0.8, 1.2, 1.6}, {8000, 30000, 60000}, args);
    return 0;
}
