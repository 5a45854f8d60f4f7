/**
 * @file
 * perfbench: the repository benchmark.
 *
 * One process runs one named workload (see workloads.cc) and prints
 * its metrics, each with its unit, then one JSON result line.
 *
 *  - Untraced (--trace 0): a warm-up run, then timed runs back to back
 *    for --seconds of host time (at least three). The end-to-end
 *    metrics are the median set-up time, the peak RSS and the simulated
 *    metrics, which every run must reproduce bit for bit.
 *  - Traced (--trace 1): a warm-up run, timed runs for half of
 *    --seconds, then one traced run that drives single engines
 *    through advanceTo() in fixed simulated windows (the EventQueue
 *    contract makes this replay one runAll() exactly), then the layer
 *    microbenches tied to the workload. Spans stay in memory and are
 *    written to --spans at the end. Prints the per-layer metrics,
 *    host_us_per_req (the timed runs' median) among them: host speed
 *    swings too much on a shared machine to gate it with a bound, so
 *    it is compared by alternating runs of two commits instead.
 *
 * Every run checks request conservation, KV custody, and that its
 * simulated results are bit-identical to the first run's; any
 * violation makes the process exit 1.
 *
 * usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--spans PATH]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/logging.hh"
#include "common/stats.hh"

using namespace pimphony;
using namespace perfbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (--trace 0), in BENCHMARK.json order. */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_tok_per_s", "tok/s"},
    {"sim_ttft_p50_s", "s"},
    {"sim_ttft_p99_s", "s"},
    {"sim_gap_avg_s", "s"},
    {"sim_gap_p95_s", "s"},
    {"sim_ttft_slo_share", "fraction"},
};

/** Simulated per-layer counts, read from EngineResult/FleetResult. */
const std::vector<MetricDef> kSimulatedCounts = {
    {"sim.events", "count"},
    {"pim.attention_s", "s"},
    {"pim.mac_util", "fraction"},
    {"xpu.fc_s", "s"},
    {"xpu.prefill_busy_s", "s"},
    {"xpu.max_decode_wait_s", "s"},
    {"engine.avg_batch", "requests"},
    {"engine.preemptions", "count"},
    {"admit.slo_deferrals", "count"},
    {"admit.budget_deferrals", "count"},
    {"admit.tenant0.avg_share", "fraction"},
    {"admit.tenant1.avg_share", "fraction"},
    {"kv.capacity_util", "fraction"},
    {"prefix.hit_rate", "fraction"},
    {"prefix.cached_tokens", "tokens"},
    {"prefix.saved_prefill_s", "s"},
    {"prefix.evictions", "count"},
    {"kv.shared_peak_mb", "MB"},
    {"kv.unique_peak_mb", "MB"},
    {"fleet.windows", "count"},
    {"fleet.route_imbalance", "ratio"},
};

/** Host-time per-layer metrics of the traced run. */
const std::vector<MetricDef> kTracedHost = {
    {"host_us_per_req", "us"},
    {"workload.build_s", "s"},
    {"engine.prepare_s", "s"},
    {"engine.advance_ns_per_event", "ns"},
    {"engine.cost_growth", "ratio"},
    {"engine.finalize_ms", "ms"},
    {"engine.queued_tokens_peak", "tokens"},
    {"trace.overhead", "ratio"},
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Result of one full workload run (set-up through finalize). */
struct Outcome
{
    double setupSeconds = 0.0;
    double runSeconds = 0.0;

    std::uint64_t declared = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t lost = 0;

    /** Session turns never released (their predecessor never
     *  completed). */
    std::uint64_t stranded = 0;

    std::size_t ttftSamples = 0;

    /** sim_* metrics and simulated counts: deterministic per seed. */
    std::map<std::string, double> sim;

    /** Host-time per-layer metrics (traced run only). */
    std::map<std::string, double> traced;

    std::vector<std::string> violations;

    std::uint64_t failed() const { return rejected + lost + stranded; }

    double
    hostUsPerRequest() const
    {
        return declared ? runSeconds * 1e6 / static_cast<double>(declared)
                        : 0.0;
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
megabytes(Bytes b)
{
    return static_cast<double>(b) / 1e6;
}

/** Simulated metrics and conservation checks shared by both runners. */
void
collectSimulated(const Workload &w, const BuiltWorkload &built,
                 const EngineResult &r, Outcome &out)
{
    out.completed = r.completedRequests;
    out.rejected = r.rejectedRequests;
    for (const auto &kv : built.sessions)
        if (!r.completionSeconds.count(kv.first))
            ++out.stranded;

    std::vector<double> ttfts;
    ttfts.reserve(r.firstTokenLatency.size());
    std::uint64_t within_limit = 0;
    for (const auto &kv : r.firstTokenLatency) {
        ttfts.push_back(kv.second);
        if (kv.second <= w.ttftLimitSeconds &&
            r.completionSeconds.count(kv.first))
            ++within_limit;
    }
    out.ttftSamples = ttfts.size();

    auto &s = out.sim;
    s["sim_tok_per_s"] = r.tokensPerSecond;
    s["sim_ttft_p50_s"] = nearestRankPercentileInPlace(ttfts, 50.0);
    s["sim_ttft_p99_s"] = nearestRankPercentileInPlace(ttfts, 99.0);
    s["sim_gap_avg_s"] = r.avgTokenGapSeconds;
    s["sim_gap_p95_s"] = r.p95TokenGapSeconds;
    s["sim_ttft_slo_share"] =
        safeRatio(static_cast<double>(within_limit),
                  static_cast<double>(out.declared));

    s["sim.events"] = static_cast<double>(r.simEvents);
    s["pim.attention_s"] = r.attentionSeconds;
    s["pim.mac_util"] = r.macUtilization;
    s["xpu.fc_s"] = r.fcSeconds;
    s["xpu.prefill_busy_s"] = r.xpuPrefillBusySeconds;
    s["xpu.max_decode_wait_s"] = r.maxDecodeXpuWaitSeconds;
    s["engine.avg_batch"] = r.avgEffectiveBatch;
    s["engine.preemptions"] = static_cast<double>(r.preemptions);
    s["admit.slo_deferrals"] = static_cast<double>(r.sloDeferrals);
    s["admit.budget_deferrals"] = static_cast<double>(r.budgetDeferrals);
    s["admit.tenant0.avg_share"] = 0.0;
    s["admit.tenant1.avg_share"] = 0.0;
    for (const auto &t : r.tenantOccupancy)
        if (t.tenant < 2)
            s["admit.tenant" + std::to_string(t.tenant) + ".avg_share"] =
                t.avgTokenShare;
    s["kv.capacity_util"] = r.capacityUtilization;
    s["prefix.hit_rate"] = r.prefixHitRate;
    s["prefix.cached_tokens"] = static_cast<double>(r.prefixCachedTokens);
    s["prefix.saved_prefill_s"] = r.savedPrefillSeconds;
    s["prefix.evictions"] = static_cast<double>(r.prefixEvictions);
    s["kv.shared_peak_mb"] = megabytes(r.sharedKvPeakBytes);
    s["kv.unique_peak_mb"] = megabytes(r.uniqueKvPeakBytes);
    s["fleet.windows"] = 0.0;
    s["fleet.route_imbalance"] = 0.0;

    if (out.completed + out.rejected + out.lost + out.stranded !=
        out.declared)
        out.violations.push_back(
            "completed + rejected + lost + stranded (" +
            std::to_string(out.completed) + " + " +
            std::to_string(out.rejected) + " + " +
            std::to_string(out.lost) + " + " +
            std::to_string(out.stranded) + ") != declared (" +
            std::to_string(out.declared) + ")");
    if (r.completionSeconds.size() != r.completedRequests)
        out.violations.push_back(
            "completion map holds " +
            std::to_string(r.completionSeconds.size()) +
            " requests, completedRequests is " +
            std::to_string(r.completedRequests));
}

void
checkFinite(Outcome &out)
{
    for (const auto &kv : out.sim)
        if (!std::isfinite(kv.second))
            out.violations.push_back(kv.first + " is not finite");
}

/** One traced advance window: host time and the arrivals it covers. */
struct Window
{
    double seconds = 0.0;
    std::size_t firstArrival = 0;
    std::size_t arrivals = 0;
};

/**
 * Host time per arrived request in the windows covering the last
 * quarter of arrivals, over the same figure for the first quarter.
 */
double
costGrowth(const std::vector<Window> &windows, std::size_t n)
{
    if (n < 4)
        return 0.0;
    auto per_arrival = [&](std::size_t lo, std::size_t hi) {
        double seconds = 0.0;
        std::size_t arrived = 0;
        for (const Window &win : windows) {
            std::size_t a0 = win.firstArrival;
            std::size_t a1 = a0 + win.arrivals;
            if (win.arrivals == 0 || a1 <= lo || a0 >= hi)
                continue;
            seconds += win.seconds;
            arrived += win.arrivals;
        }
        return safeRatio(seconds, static_cast<double>(arrived));
    };
    return safeRatio(per_arrival(3 * n / 4, n), per_arrival(0, n / 4));
}

/** One run of a single-engine workload. */
Outcome
runEngine(const Workload &w, std::uint64_t seed, SpanLog &spans)
{
    Outcome out;
    const bool traced = spans.enabled();
    const LlmConfig model = benchModel();
    const ClusterConfig cluster = benchCluster(model);

    auto t0 = Clock::now();
    int setup = spans.open("setup");
    int span = spans.open("workload.build", setup);
    BuiltWorkload built = buildWorkload(w.spec, seed);
    double build_s = spans.close(span);
    out.declared = built.initial.size() + built.sessions.size();
    // Arrival times, and the tokens of the requests still to arrive
    // after each one (queuedTokens() counts undelivered arrivals too).
    std::vector<double> arrivals;
    std::vector<double> tokens_after;
    if (traced) {
        for (const TimedRequest &t : built.initial)
            arrivals.push_back(t.arrivalSeconds);
        tokens_after.assign(arrivals.size() + 1, 0.0);
        for (std::size_t i = arrivals.size(); i-- > 0;) {
            const Request &r = built.initial[i].request;
            tokens_after[i] = tokens_after[i + 1] +
                              static_cast<double>(r.contextTokens +
                                                  r.decodeTokens);
        }
    }

    span = spans.open("engine.construct", setup);
    ServingEngine engine(cluster, model, std::move(built.initial),
                         w.engine);
    if (!built.sessions.empty())
        engine.declareSessionTurns(built.sessions);
    spans.close(span);
    span = spans.open("engine.prepare", setup);
    engine.prepare();
    double prepare_s = spans.close(span);
    spans.close(setup);
    auto t1 = Clock::now();

    int run = spans.open("run");
    std::vector<Window> windows;
    double advance_s = 0.0;
    double queued_peak = 0.0;
    if (!traced) {
        engine.advanceTo(kInf);
    } else {
        const double last_arrival = arrivals.empty() ? 0.0 : arrivals.back();
        std::size_t next_arrival = 0;
        for (std::uint64_t k = 1;; ++k) {
            double horizon = static_cast<double>(k) * w.traceWindowSeconds;
            int ws = spans.open("window", run);
            engine.advanceTo(horizon);
            Window win;
            win.seconds = spans.close(ws);
            win.firstArrival = next_arrival;
            while (next_arrival < arrivals.size() &&
                   arrivals[next_arrival] <= horizon)
                ++next_arrival;
            win.arrivals = next_arrival - win.firstArrival;
            windows.push_back(win);
            advance_s += win.seconds;
            queued_peak =
                std::max(queued_peak, engine.queuedTokens() -
                                          tokens_after[next_arrival]);
            if (horizon >= last_arrival && engine.drained())
                break;
        }
    }
    span = spans.open("engine.finalize", run);
    EngineResult r = engine.finalize();
    double finalize_s = spans.close(span);
    spans.close(run);
    auto t2 = Clock::now();
    out.setupSeconds = std::chrono::duration<double>(t1 - t0).count();
    out.runSeconds = std::chrono::duration<double>(t2 - t1).count();

    collectSimulated(w, built, r, out);
    const PrefixCache *cache = engine.prefixCache();
    Bytes held = cache ? cache->heldBytes() : 0;
    Bytes reserved = engine.allocatorView().reservedBytes();
    if (reserved != held)
        out.violations.push_back(
            "after finalize the allocator reserves " +
            std::to_string(reserved) + " B but the prefix cache holds " +
            std::to_string(held) + " B");
    checkFinite(out);

    if (traced) {
        out.traced["workload.build_s"] = build_s;
        out.traced["engine.prepare_s"] = prepare_s;
        out.traced["engine.advance_ns_per_event"] =
            safeRatio(advance_s * 1e9, static_cast<double>(r.simEvents));
        out.traced["engine.cost_growth"] =
            costGrowth(windows, arrivals.size());
        out.traced["engine.finalize_ms"] = finalize_s * 1e3;
        out.traced["engine.queued_tokens_peak"] = queued_peak;
    }
    return out;
}

/**
 * One run of a fleet workload. FleetEngine builds its replicas and
 * finalizes them inside run(), so the traced run can only span the
 * whole call: its prepare figure is construction plus setSessions,
 * and it reports no finalize, cost-growth or queue-peak figure.
 */
Outcome
runFleet(const Workload &w, std::uint64_t seed, SpanLog &spans)
{
    Outcome out;
    const LlmConfig model = benchModel();
    const ClusterConfig cluster = benchCluster(model);

    auto t0 = Clock::now();
    int setup = spans.open("setup");
    int span = spans.open("workload.build", setup);
    BuiltWorkload built = buildWorkload(w.spec, seed);
    double build_s = spans.close(span);
    out.declared = built.initial.size() + built.sessions.size();

    span = spans.open("fleet.construct", setup);
    FleetEngine fleet(cluster, model, std::move(built.initial),
                      w.fleetOptions);
    fleet.setSessions(built.sessions);
    double construct_s = spans.close(span);
    spans.close(setup);
    auto t1 = Clock::now();

    int run = spans.open("run");
    span = spans.open("fleet.run", run);
    FleetResult fr = fleet.run();
    double run_s = spans.close(span);
    spans.close(run);
    auto t2 = Clock::now();
    out.setupSeconds = std::chrono::duration<double>(t1 - t0).count();
    out.runSeconds = std::chrono::duration<double>(t2 - t1).count();

    const EngineResult &r = fr.aggregate;
    out.lost = fr.lostRequests;
    collectSimulated(w, built, r, out);
    out.sim["sim_tok_per_s"] = fr.goodputTokensPerSecond;
    out.sim["fleet.windows"] = static_cast<double>(fr.windows);
    double routed_max = 0.0;
    double routed_sum = 0.0;
    for (std::uint64_t n : fr.routedRequests) {
        routed_max = std::max(routed_max, static_cast<double>(n));
        routed_sum += static_cast<double>(n);
    }
    out.sim["fleet.route_imbalance"] = safeRatio(
        routed_max * static_cast<double>(fr.routedRequests.size()),
        routed_sum);
    // A preempted request is recomputed, so the tokens it generated
    // before preemption count as generated but neither as goodput nor
    // as lost: the identity is exact only without preemptions.
    std::uint64_t accounted = fr.goodputTokens + fr.lostTokens;
    if (r.preemptions == 0 ? r.generatedTokens != accounted
                           : r.generatedTokens < accounted)
        out.violations.push_back(
            "generated tokens (" + std::to_string(r.generatedTokens) +
            ") vs goodput (" + std::to_string(fr.goodputTokens) +
            ") + lost (" + std::to_string(fr.lostTokens) + ") with " +
            std::to_string(r.preemptions) + " preemptions");
    checkFinite(out);

    if (spans.enabled()) {
        out.traced["workload.build_s"] = build_s;
        out.traced["engine.prepare_s"] = construct_s;
        out.traced["engine.advance_ns_per_event"] =
            safeRatio(run_s * 1e9, static_cast<double>(r.simEvents));
        out.traced["engine.cost_growth"] = 0.0;
        out.traced["engine.finalize_ms"] = 0.0;
        out.traced["engine.queued_tokens_peak"] = 0.0;
    }
    return out;
}

/** FNV-1a over the bit patterns of the simulated results. */
std::uint64_t
fingerprint(const std::map<std::string, double> &sim)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const unsigned char *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &kv : sim) {
        mix(kv.first.data(), kv.first.size());
        mix(&kv.second, sizeof kv.second);
    }
    return h;
}

bool
bitIdentical(const std::map<std::string, double> &a,
             const std::map<std::string, double> &b)
{
    if (a.size() != b.size())
        return false;
    for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib)
        if (ia->first != ib->first ||
            std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0)
            return false;
    return true;
}

double
peakRssMegabytes()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\nworkloads:",
                 why);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end == '\0' && !(args.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--spans") {
            args.spansPath = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("bad number for " + flag + ": " + value).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogThreshold(LogLevel::Warn);
    Args args = parseArgs(argc, argv);
    const Workload *w = findWorkload(args.workload);
    if (!w)
        usage(("unknown workload " + args.workload).c_str());

    auto run_once = [&](SpanLog &log) {
        return w->fleet ? runFleet(*w, args.seed, log)
                        : runEngine(*w, args.seed, log);
    };

    std::vector<std::string> violations;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const Outcome *reference = nullptr;
    auto account = [&](const Outcome &o, const std::string &label) {
        attempted += o.declared;
        failed += o.failed();
        for (const std::string &v : o.violations)
            violations.push_back(label + ": " + v);
        if (reference && !bitIdentical(reference->sim, o.sim))
            violations.push_back(label +
                                 ": simulated results differ from the "
                                 "warm-up run's");
    };

    // Warm-up: first touch of the allocator pools and page tables.
    // Its simulated results are the reference every later run must
    // reproduce bit for bit.
    SpanLog untraced(false);
    const Outcome warm = run_once(untraced);
    account(warm, "warm-up");
    reference = &warm;

    std::vector<Outcome> timed;
    const double timed_budget = args.trace ? args.seconds / 2 : args.seconds;
    const std::size_t min_runs = args.trace ? 1 : 3;
    auto measure_start = Clock::now();
    do {
        timed.push_back(run_once(untraced));
        account(timed.back(), "timed run " + std::to_string(timed.size()));
    } while (timed.size() < min_runs ||
             secondsSince(measure_start) < timed_budget);

    std::vector<double> setup_s;
    std::vector<double> us_per_req;
    for (const Outcome &o : timed) {
        setup_s.push_back(o.setupSeconds);
        us_per_req.push_back(o.hostUsPerRequest());
    }
    const double timed_us_per_req = median(us_per_req);

    std::map<std::string, double> values;
    std::vector<MetricDef> printed(args.trace ? kSimulatedCounts
                                              : kEndToEnd);
    if (!args.trace) {
        values = warm.sim;
        values["setup_s"] = median(setup_s);
        values["peak_rss_mb"] = peakRssMegabytes();
    } else {
        SpanLog spans(true);
        Outcome traced = run_once(spans);
        account(traced, "traced run");
        values = traced.sim;
        for (const auto &kv : traced.traced)
            values[kv.first] = kv.second;
        values["host_us_per_req"] = timed_us_per_req;
        values["trace.overhead"] =
            safeRatio(traced.hostUsPerRequest(), timed_us_per_req) - 1.0;

        std::map<std::string, double> micro;
        std::string error;
        int parent = spans.open("microbenches");
        if (!runMicrobenches(*w, args.seed, spans, parent, micro, error))
            violations.push_back("microbench: " + error);
        spans.close(parent);
        for (const std::string &name : microbenchMetrics())
            values[name] = micro.count(name) ? micro[name] : 0.0;

        printed.insert(printed.end(), kTracedHost.begin(),
                       kTracedHost.end());
        for (const std::string &name : microbenchMetrics())
            printed.push_back({name.c_str(), "ns"});

        if (!args.spansPath.empty() && !spans.write(args.spansPath))
            violations.push_back("cannot write spans to " + args.spansPath);
    }

    std::printf("perfbench: workload=%s seed=%llu trace=%d timed_runs=%zu "
                "declared=%llu ttft_samples=%zu failed_share=%.6g "
                "fingerprint=%016llx\n",
                w->name.c_str(), static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, timed.size(),
                static_cast<unsigned long long>(warm.declared),
                warm.ttftSamples,
                safeRatio(static_cast<double>(warm.failed()),
                          static_cast<double>(warm.declared)),
                static_cast<unsigned long long>(fingerprint(warm.sim)));
    std::printf("  host_us_per_req of each timed run:");
    for (double v : us_per_req)
        std::printf(" %.1f", v);
    std::printf("\n");
    for (const MetricDef &m : printed)
        std::printf("  %-40s %22.9g %s\n", m.name, values[m.name], m.unit);
    for (const std::string &v : violations)
        std::fprintf(stderr, "perfbench: VIOLATION %s\n", v.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                violations.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < printed.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", printed[i].name, values[printed[i].name],
                    printed[i].unit);
    std::printf("}}\n");
    return violations.empty() ? 0 : 1;
}
