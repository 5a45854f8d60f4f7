/**
 * @file
 * The benchmark's workload catalogue and its span log.
 *
 * Every workload is open loop: requests (or session openings) arrive
 * as independent users on a Poisson schedule stamped in simulated
 * time, so the generator cannot run late and TTFT counts from the
 * stamped arrival. All of them serve LLM-7B-128K-GQA on the
 * NeuPIMs-like cluster at PP=4 with TCP+DCS+DPA, the LazyChunk (DPA)
 * allocator, and 2048-token prefill chunks. The step model is left at
 * its default.
 */

#include <cstdio>
#include <limits>

#include "bench.hh"

using namespace pimphony;

namespace perfbench {

LlmConfig
benchModel()
{
    return LlmConfig::llm7b(true);
}

ClusterConfig
benchCluster(const LlmConfig &model)
{
    ClusterConfig cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());
    return cluster;
}

namespace {

EngineOptions
baseEngineOptions()
{
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    // The cycle cap is a safety valve sized for small sweeps; a run
    // of tens of thousands of requests needs more cohort cycles.
    opts.maxSteps = std::numeric_limits<std::uint64_t>::max();
    return opts;
}

Workload
steadyLongctx()
{
    Workload w;
    // The event core, pipeline hand-offs, model-cost lookups and
    // allocator growth do the work. Admission takes the trivial FIFO
    // path and there is no cache and no router: the bypass workload
    // for admission, prefix-cache and router changes. 2 req/s is
    // below saturation.
    w.name = "steady-longctx";
    w.spec.count = 32000;
    w.spec.length.task = TraceTask::QMSum;
    w.spec.length.decodeTokens = 128;
    w.spec.arrival.kind = ArrivalKind::Poisson;
    w.spec.arrival.ratePerSecond = 2.0;
    w.engine = baseEngineOptions();
    w.ttftLimitSeconds = 2.0;
    w.traceWindowSeconds = 8.0;
    return w;
}

Workload
tenantBacklog()
{
    Workload w;
    // Admission dominates: the tenant-budget scan and the per-tier
    // SLO gate run over a backlog of thousands that builds (100 req/s
    // offered, far above the drain rate) and then drains. SloAdmission
    // keeps the FIFO xPU timeline, so queue arbitration stays out.
    w.name = "tenant-backlog";
    w.spec.count = 8000;
    w.spec.length.kind = LengthSourceKind::Histogram;
    w.spec.length.histogram.add(30000, 48, 1.0);
    w.spec.length.histogram.add(2000, 48, 3.0);
    w.spec.arrival.kind = ArrivalKind::Poisson;
    w.spec.arrival.ratePerSecond = 100.0;
    // Tiers and tenants alternate independently: request i is tier
    // i % 2 and tenant (i / 2) % 2.
    for (unsigned i = 0; i < 4; ++i) {
        RequestClass cls;
        cls.tier = i % 2;
        cls.gapSloSeconds = cls.tier == 0 ? 50e-3 : 500e-3;
        cls.tenant = (i / 2) % 2;
        w.spec.classes.push_back(cls);
    }
    w.engine = baseEngineOptions();
    w.engine.sched.kind = SchedPolicyKind::SloAdmission;
    w.engine.tenantBudgets = {{0, 0.5}, {1, 0.5}};
    w.ttftLimitSeconds = 900.0;
    w.traceWindowSeconds = 0.25;
    return w;
}

Workload
fleetSessions()
{
    Workload w;
    // Router probes, window barriers, session releases and prefix-tree
    // acquire/publish/evict dominate; the KV allocator is used through
    // shared copy-on-write chunks. 1 session/s stays below saturation
    // (no preemptions, KV about half full); from about 1.25/s up the
    // decode-gap tail turns bimodal across seeds, and at 2/s the fleet
    // starts to preempt.
    w.name = "fleet-sessions";
    w.fleet = true;
    w.spec.count = 8000; // sessions of 4 turns each
    w.spec.length.task = TraceTask::QMSum;
    w.spec.length.decodeTokens = 64;
    w.spec.arrival.kind = ArrivalKind::Poisson;
    w.spec.arrival.ratePerSecond = 1.0;
    w.spec.session.turns = 4;
    w.spec.session.thinkMeanSeconds = 2.0;
    w.spec.session.carryHistory = true;
    w.spec.prefix.share = 0.8;
    w.spec.prefix.pool = 16;
    w.spec.prefix.tokens = 2048;
    w.engine = baseEngineOptions();
    w.engine.prefixCache.enabled = true;
    w.engine.prefixCache.evict = PrefixEvictPolicy::Lru;
    w.fleetOptions.replicas = 8;
    w.fleetOptions.policy = RoutePolicy::PrefixAffinity;
    w.fleetOptions.dispatchLatencySeconds = 2e-3;
    w.fleetOptions.threads = 1;
    w.fleetOptions.engine = w.engine;
    w.ttftLimitSeconds = 2.0;
    return w;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        steadyLongctx(), tenantBacklog(), fleetSessions()};
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

int
SpanLog::open(const std::string &name, int parent)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.start = Clock::now();
    s.end = s.start;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

double
SpanLog::close(int id)
{
    if (!enabled_ || id < 0)
        return 0.0;
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.end = Clock::now();
    return std::chrono::duration<double>(s.end - s.start).count();
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Span names are fixed identifiers (no quoting needed).
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                     s.name.c_str(), us(s.start), us(s.end) - us(s.start),
                     i, s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
