/**
 * @file
 * Request-class sweep: tier mix x arrival rate x context length on
 * the xPU+PIM system under the event-driven engine with chunked
 * prefill and bursty (on/off) arrivals.
 *
 * Each cell runs the same two-tier trace (tier 0 interactive, tier 1
 * batch; tenants tagged by tier so occupancy is reported) under the
 * single-class FIFO baseline and under tier-priority arbitration
 * (strict bands + decode-side preemption). The interesting columns
 * are the per-tier gap p95s and the decode preemption splits. In
 * every committed cell tier-priority gives tier 0 and tier 1 the same
 * gap p95 (to a relative 6e-13), below both of FIFO's: the bands cut
 * both tails alike and do not separate the tiers.
 *
 * Run with --smoke for a tiny sweep (CI keeps the harness alive);
 * --json emits machine-readable rows for the nightly artifacts.
 */

#include "bench_util.hh"

#include "system/sched_policy.hh"
#include "workload/arrival.hh"
#include "workload/request_class.hh"

using namespace pimphony;

namespace {

void
sweep(std::size_t n_requests, Tokens decode, Tokens chunk,
      const std::vector<double> &tier0_fracs,
      const std::vector<double> &rates,
      const std::vector<Tokens> &contexts, const bench::BenchArgs &args)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
    applyOptions(cluster, PimphonyOptions::all());

    printBanner(std::cout,
                "Per-request SLO classes, xPU+PIM, LLM-7B-128K-GQA");
    std::cout << n_requests << " requests, " << decode
              << " decode tokens, chunk " << chunk << " tok, "
              << (args.rateCurve.empty()
                      ? "on/off burst arrivals"
                      : "diurnal rate-curve arrivals")
              << ", PP=2\n";

    // --rate-curve: the profile is normalized to mean 1 and scaled
    // by each cell's rate, so the grid's rate axis keeps its meaning
    // (the long-run average) while the shape replays the profile.
    RateCurve profile;
    if (!args.rateCurve.empty()) {
        profile = RateCurve::fromRates(args.rateCurve, 30.0);
        double mean = profile.meanRate();
        if (mean <= 0.0)
            fatal("--rate-curve needs a positive mean rate");
        for (auto &seg : profile.segments)
            seg.ratePerSecond /= mean;
    }

    RequestClass interactive;
    interactive.tier = 0;
    interactive.tenant = 0;
    interactive.gapSloSeconds = 0.05;
    RequestClass batch;
    batch.tier = 1;
    batch.tenant = 1;
    batch.gapSloSeconds = 0.5;

    bench::JsonRows json("bench_slo_classes");
    TablePrinter t({"ctx (tok)", "rate (req/s)", "tier0 %", "policy",
                    "tok/s", "t0 gap p95 (ms)", "t1 gap p95 (ms)",
                    "t0 ttft p95 (s)", "dec slices"});
    // Flattened (ctx, rate, frac, policy) grid for the sweep runner:
    // every cell rebuilds its tiered request list and seeded on/off
    // arrivals, keeping an N-thread run bit-identical to serial with
    // rows in submission order.
    struct Cell
    {
        Tokens ctx;
        double rate;
        double frac;
        SchedPolicyKind kind;
    };
    std::vector<Cell> cells;
    for (Tokens ctx : contexts)
        for (double rate : rates)
            for (double frac : tier0_fracs)
                for (SchedPolicyKind kind :
                     {SchedPolicyKind::Fifo,
                      SchedPolicyKind::TierPriority})
                    cells.push_back({ctx, rate, frac, kind});

    auto outs = bench::runSweep(args, cells.size(), [&](std::size_t i) {
        const Cell &c = cells[i];
        std::vector<Request> reqs;
        std::size_t n_tier0 = static_cast<std::size_t>(
            c.frac * static_cast<double>(n_requests) + 0.5);
        for (RequestId id = 0; id < n_requests; ++id) {
            Request r{id, c.ctx, decode};
            r.cls = id < n_tier0 ? interactive : batch;
            reqs.push_back(r);
        }
        std::vector<TimedRequest> timed;
        if (!args.rateCurve.empty()) {
            RateCurve curve = profile;
            for (auto &seg : curve.segments)
                seg.ratePerSecond *= c.rate;
            PiecewiseRateCurve process(curve);
            timed = attachArrivals(reqs, process, 17);
        } else {
            OnOffTraffic traffic;
            traffic.onRate = c.rate * 3.0;
            traffic.offRate = 0.0;
            traffic.meanOnSeconds = 1.0;
            traffic.meanOffSeconds = 2.0;
            OnOffProcess process(traffic);
            timed = attachArrivals(reqs, process, 17);
        }
        EngineOptions opts;
        opts.allocator = AllocatorKind::LazyChunk;
        opts.prefillChunkTokens = chunk;
        opts.sched.kind = c.kind;
        return ServingEngine(cluster, model, timed, opts).run();
    });

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const EngineResult &r = outs[i].value;
        double t0_gap = 0.0, t1_gap = 0.0, t0_ttft = 0.0;
        for (const auto &cl : r.classLatencies) {
            if (cl.tier == 0) {
                t0_gap = cl.p95TokenGapSeconds;
                t0_ttft = cl.p95FirstTokenSeconds;
            } else if (cl.tier == 1) {
                t1_gap = cl.p95TokenGapSeconds;
            }
        }
        t.addRow({std::to_string(c.ctx),
                  TablePrinter::fmt(c.rate, 1),
                  TablePrinter::fmt(c.frac * 100.0, 0),
                  schedPolicyName(c.kind),
                  TablePrinter::fmt(r.tokensPerSecond, 1),
                  TablePrinter::fmt(t0_gap * 1e3, 1),
                  TablePrinter::fmt(t1_gap * 1e3, 1),
                  TablePrinter::fmt(t0_ttft, 2),
                  std::to_string(r.decodePreemptSlices)});
        if (args.json) {
            json.beginRow();
            json.field("context_tokens",
                       static_cast<std::uint64_t>(c.ctx));
            json.field("rate_rps", c.rate);
            json.field("tier0_frac", c.frac);
            json.field("policy", schedPolicyName(c.kind));
            if (!args.rateCurve.empty())
                json.field("rate_curve_segments",
                           static_cast<std::uint64_t>(
                               args.rateCurve.size()));
            json.field("tokens_per_second", r.tokensPerSecond);
            json.field("tier0_gap_p95_s", t0_gap);
            json.field("tier1_gap_p95_s", t1_gap);
            json.field("tier0_ttft_p95_s", t0_ttft);
            json.field("gap_p95_s", r.p95TokenGapSeconds);
            json.field("decode_preempt_slices",
                       r.decodePreemptSlices);
            json.field("chunk_slices", r.chunkSlices);
            json.field("slo_deferrals", r.sloDeferrals);
            json.field("sim_events", r.simEvents);
            for (const auto &to : r.tenantOccupancy) {
                std::string key = "tenant" +
                                  std::to_string(to.tenant) +
                                  "_avg_share";
                json.field(key.c_str(), to.avgTokenShare);
            }
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
        "per-request SLO class sweep (tier mix x rate x context)",
        bench::kRateCurveFlag);
    if (args.smoke)
        sweep(8, 16, 2048, {0.5}, {1.5}, {30000}, args);
    else
        sweep(24, 48, 2048, {0.25, 0.5, 0.75}, {0.8, 1.2, 1.6},
              {8000, 30000, 60000}, args);
    return 0;
}
