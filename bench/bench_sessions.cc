/**
 * @file
 * Multi-turn session sweep: closed-loop chat sessions under a
 * diurnal (piecewise-constant rate) arrival curve on the xPU+PIM
 * system, swept over scheduling policy x prefill chunk size.
 *
 * The workload is built ONCE per invocation through WorkloadSpec —
 * alternating interactive/batch session classes, Table II (QMSum)
 * lengths with history carried across turns, turn 0 stamped by a
 * PiecewiseRateCurve and later turns released closed-loop
 * (completion + think time) by the engine's session machinery — so
 * a single --save-trace file covers every grid cell, and a --trace
 * replay of that file reproduces each cell's rows bit for bit (the
 * CI replay-identity gate diffs the timing-stripped JSON).
 *
 * Run with --smoke for a tiny sweep (CI keeps the harness alive);
 * --json emits machine-readable rows for the nightly artifacts.
 */

#include "bench_util.hh"

#include "system/sched_policy.hh"
#include "workload/replay.hh"
#include "workload/spec.hh"

using namespace pimphony;

namespace {

void
sweep(std::size_t n_sessions, unsigned turns, Tokens decode,
      const std::vector<Tokens> &chunks, const bench::BenchArgs &args)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
    applyOptions(cluster, PimphonyOptions::all());

    RequestClass interactive;
    interactive.tier = 0;
    interactive.tenant = 0;
    interactive.gapSloSeconds = 0.05;
    RequestClass batch;
    batch.tier = 1;
    batch.tenant = 1;
    batch.gapSloSeconds = 0.5;

    BuiltWorkload built;
    if (!args.tracePath.empty()) {
        built = loadWorkload(args.tracePath);
    } else {
        WorkloadSpec spec;
        spec.count = n_sessions;
        spec.length.kind = LengthSourceKind::TableTask;
        spec.length.task = TraceTask::QMSum;
        spec.length.decodeTokens = decode;
        spec.arrival.kind = ArrivalKind::RateCurve;
        // Default diurnal profile: a quiet-busy-peak-shoulder cycle.
        // --rate-curve=R1,R2,... replaces the shape (req/s per 5 s
        // segment).
        std::vector<double> rates = args.rateCurve.empty()
            ? std::vector<double>{1.5, 0.5, 2.5, 1.0}
            : args.rateCurve;
        spec.arrival.curve = RateCurve::fromRates(rates, 5.0);
        spec.classes = {interactive, batch};
        spec.session.turns = turns;
        spec.session.thinkMeanSeconds = 0.5;
        spec.session.carryHistory = true;
        built = buildWorkload(spec, 33);
        if (!args.saveWorkloadPath.empty()) {
            saveWorkload(args.saveWorkloadPath, built);
            std::cout << "saved workload trace to "
                      << args.saveWorkloadPath << "\n";
        }
    }

    // Turn index per request id (initial + successors), for the
    // turn-0 vs final-turn TTFT split below. Derived from the built
    // workload so a --trace replay reports identically.
    std::unordered_map<RequestId, unsigned> turn_of;
    unsigned last_turn = 0;
    for (const auto &tr : built.initial) {
        turn_of[tr.request.id] = tr.request.turn;
        last_turn = std::max(last_turn, tr.request.turn);
    }
    for (const auto &kv : built.sessions) {
        turn_of[kv.second.request.id] = kv.second.request.turn;
        last_turn = std::max(last_turn, kv.second.request.turn);
    }
    std::size_t session_count = built.initial.size();

    printBanner(std::cout,
                "Multi-turn sessions, xPU+PIM, LLM-7B-128K-GQA");
    std::cout << session_count << " sessions, " << (last_turn + 1)
              << " turns, " << decode << " decode tokens/turn, "
              << (args.tracePath.empty() ? "diurnal rate-curve arrivals"
                                         : "replayed trace arrivals")
              << ", closed-loop turn release, PP=2\n";

    bench::JsonRows json("bench_sessions");
    TablePrinter t({"policy", "chunk (tok)", "tok/s",
                    "t0 ttft avg (s)", "tN ttft avg (s)",
                    "gap p95 (ms)", "done", "rej", "events"});

    struct Cell
    {
        SchedPolicyKind kind;
        Tokens chunk;
    };
    std::vector<Cell> cells;
    for (SchedPolicyKind kind :
         {SchedPolicyKind::Fifo, SchedPolicyKind::TierPriority})
        for (Tokens chunk : chunks)
            cells.push_back({kind, chunk});

    auto outs = bench::runSweep(args, cells.size(), [&](std::size_t i) {
        const Cell &c = cells[i];
        EngineOptions opts;
        opts.allocator = AllocatorKind::LazyChunk;
        opts.prefillChunkTokens = c.chunk;
        opts.sched.kind = c.kind;
        ServingEngine engine(cluster, model, built.initial, opts);
        engine.declareSessionTurns(built.sessions);
        return engine.run();
    });

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const EngineResult &r = outs[i].value;
        double t0_sum = 0.0, tn_sum = 0.0;
        std::size_t t0_n = 0, tn_n = 0;
        for (const auto &kv : r.firstTokenLatency) {
            auto it = turn_of.find(kv.first);
            if (it == turn_of.end())
                continue;
            if (it->second == 0) {
                t0_sum += kv.second;
                ++t0_n;
            }
            if (it->second == last_turn) {
                tn_sum += kv.second;
                ++tn_n;
            }
        }
        double t0_avg = t0_n ? t0_sum / static_cast<double>(t0_n) : 0.0;
        double tn_avg = tn_n ? tn_sum / static_cast<double>(tn_n) : 0.0;
        t.addRow({schedPolicyName(c.kind), std::to_string(c.chunk),
                  TablePrinter::fmt(r.tokensPerSecond, 1),
                  TablePrinter::fmt(t0_avg, 2),
                  TablePrinter::fmt(tn_avg, 2),
                  TablePrinter::fmt(r.p95TokenGapSeconds * 1e3, 1),
                  std::to_string(r.completedRequests),
                  std::to_string(r.rejectedRequests),
                  std::to_string(r.simEvents)});
        if (args.json) {
            json.beginRow();
            json.field("policy", schedPolicyName(c.kind));
            json.field("chunk_tokens",
                       static_cast<std::uint64_t>(c.chunk));
            json.field("sessions",
                       static_cast<std::uint64_t>(session_count));
            json.field("turns",
                       static_cast<std::uint64_t>(last_turn + 1));
            json.field("tokens_per_second", r.tokensPerSecond);
            json.field("ttft_turn0_avg_s", t0_avg);
            json.field("ttft_last_turn_avg_s", tn_avg);
            json.field("ttft_p95_s", r.p95FirstTokenSeconds);
            json.field("gap_p95_s", r.p95TokenGapSeconds);
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
        "multi-turn session sweep (closed-loop turns, diurnal arrivals)",
        bench::kTraceFlags | bench::kRateCurveFlag);
    if (args.smoke)
        sweep(6, 2, 16, {2048}, args);
    else
        sweep(24, 3, 48, {2048, 8192}, args);
    return 0;
}
