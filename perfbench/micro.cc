/**
 * @file
 * Layer microbenches: ns per public call of one layer, on an
 * operation mix shaped like the workload that stresses that layer.
 * Each bench belongs to one workload and runs only in that
 * workload's traced process; the others report 0 there.
 *
 * Timing: an op body runs in batches until at least kRepSeconds of
 * host time has passed; a bench reports the median ns/op of kReps
 * such repetitions, after one untimed warm-up repetition.
 */

#include <algorithm>
#include <cmath>

#include "alloc/kv_allocator.hh"
#include "alloc/prefix_cache.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "sim/device.hh"
#include "sim/event_queue.hh"
#include "sim/pipeline.hh"
#include "system/pim_module.hh"
#include "system/sched_policy.hh"
#include "workload/trace.hh"

using namespace pimphony;

namespace perfbench {

namespace {

constexpr int kReps = 5;
constexpr double kRepSeconds = 0.04;
constexpr std::uint64_t kBatch = 64;

/** Results feed this so the optimizer keeps the timed calls. */
volatile double g_sink = 0.0;

/** Median ns per call of @p op (called as op() kBatch at a time). */
template <typename Op>
double
nsPerOp(Op &&op)
{
    std::vector<double> reps;
    for (int rep = 0; rep <= kReps; ++rep) {
        std::uint64_t ops = 0;
        auto start = Clock::now();
        double elapsed = 0.0;
        do {
            for (std::uint64_t i = 0; i < kBatch; ++i)
                op();
            ops += kBatch;
            elapsed = secondsSince(start);
        } while (elapsed < kRepSeconds);
        if (rep > 0) // rep 0 warms caches and pools
            reps.push_back(elapsed * 1e9 / static_cast<double>(ops));
    }
    std::sort(reps.begin(), reps.end());
    return reps[reps.size() / 2];
}

/** Exponential draw with mean @p mean. */
double
exponential(Rng &rng, double mean)
{
    return -mean * std::log(1.0 - rng.uniform());
}

/** QMSum-distributed context lengths (the steady-longctx mix). */
std::vector<Tokens>
contextSample(const Workload &w, std::uint64_t seed, std::size_t n)
{
    TraceGenerator gen(w.spec.length.task, seed);
    std::vector<Tokens> out;
    for (const Request &r : gen.generate(n, w.spec.length.decodeTokens))
        out.push_back(r.contextTokens);
    return out;
}

/** Requests in one decode batch of steady-longctx (its avg_batch). */
constexpr std::size_t kBatchRequests = 12;

// --- steady-longctx: event core, devices, pipeline, model, allocator.

/**
 * Schedule + dispatch pairs on an EventQueue holding a steady
 * population of 16 pending events (stage completions, arrivals),
 * each rescheduling itself a pseudo-random stage time ahead.
 */
double
eventQueueNsPerOp(const Workload &, std::uint64_t seed)
{
    sim::EventQueue queue;
    Rng rng(seed);
    std::vector<double> deltas(4096);
    for (double &d : deltas)
        d = exponential(rng, 10e-3);
    struct Loop
    {
        sim::EventQueue *queue;
        const std::vector<double> *deltas;
        std::size_t next = 0;
    } loop{&queue, &deltas};
    struct Reschedule
    {
        Loop *loop;
        void
        operator()(double t) const
        {
            const auto &d = *loop->deltas;
            loop->queue->schedule(t + d[loop->next++ % d.size()], *this);
        }
    };
    for (int i = 0; i < 16; ++i)
        queue.schedule(deltas[static_cast<std::size_t>(i)],
                       Reschedule{&loop});
    return nsPerOp([&] { queue.runOne(); });
}

/** Submit + complete of one decode item on a FIFO device timeline. */
double
deviceNsPerItem(const Workload &, std::uint64_t seed)
{
    sim::EventQueue queue;
    sim::Device device("pim");
    Rng rng(seed);
    std::vector<double> service(4096);
    for (double &s : service)
        s = exponential(rng, 5e-3);
    std::size_t next = 0;
    double ready = 0.0;
    // One op submits an item and dispatches one completion, keeping
    // four items in flight the way PP=4 cohorts occupy a stage.
    for (int i = 0; i < 4; ++i) {
        sim::WorkItem item;
        item.seconds = service[next++ % service.size()];
        device.submit(queue, item, ready);
    }
    return nsPerOp([&] {
        sim::WorkItem item;
        item.seconds = service[next++ % service.size()];
        ready = queue.now();
        device.submit(queue, item, ready);
        queue.runOne();
    });
}

/**
 * One stage hand-off of a 4-stage submitCycle chain: four cohorts
 * circulate, each resubmitting its next cycle at completion.
 */
double
pipelineNsPerHandoff(const Workload &, std::uint64_t)
{
    sim::EventQueue queue;
    std::vector<std::unique_ptr<sim::Device>> devices;
    std::vector<sim::Device *> stages;
    for (int s = 0; s < 4; ++s) {
        devices.push_back(
            std::make_unique<sim::Device>("stage" + std::to_string(s)));
        stages.push_back(devices.back().get());
    }
    sim::StagePipeline pipeline(stages);

    struct Cohort
    {
        sim::StagePipeline *pipeline;
        sim::EventQueue *queue;
        sim::WorkItem item;
    };
    struct Resubmit
    {
        Cohort *c;
        void
        operator()(double t) const
        {
            c->pipeline->submitCycle(*c->queue, c->item, t, *this);
        }
    };
    std::vector<Cohort> cohorts(4);
    for (std::uint32_t i = 0; i < cohorts.size(); ++i) {
        cohorts[i] = {&pipeline, &queue, {}};
        cohorts[i].item.cohort = i;
        cohorts[i].item.seconds = 2e-3 + 1e-4 * i;
        pipeline.submitCycle(queue, cohorts[i].item, 0.0,
                             Resubmit{&cohorts[i]});
    }
    // Every dispatched event is one stage completion, i.e. one
    // hand-off (to the next stage, or back to stage 0).
    return nsPerOp([&] { queue.runOne(); });
}

/** One decoder layer's attention over a steady-longctx batch. */
double
attentionLayerNs(const Workload &w, std::uint64_t seed)
{
    const LlmConfig model = benchModel();
    const ClusterConfig cluster = benchCluster(model);
    PimModuleModel module(cluster.module);
    std::vector<AttentionJob> jobs;
    std::vector<Tokens> contexts = contextSample(w, seed, kBatchRequests);
    for (std::size_t r = 0; r < contexts.size(); ++r)
        for (std::uint32_t h = 0; h < model.kvHeads(); ++h)
            jobs.push_back({static_cast<RequestId>(r), h, contexts[r]});
    Tokens step = 0;
    return nsPerOp([&] {
        // Decode grows every context by one token per cycle; wrap
        // after the workload's decode length like a retiring batch.
        Tokens grow = (++step % w.spec.length.decodeTokens) == 0 ? 0 : 1;
        for (std::size_t j = 0; j < jobs.size(); ++j)
            jobs[j].tokens =
                grow ? jobs[j].tokens + 1 : contexts[j / model.kvHeads()];
        g_sink = g_sink + module.attentionLayer(jobs, model).seconds;
    });
}

/** One decoder layer's FC stack for a steady-longctx batch. */
double
fcLayerNs(const Workload &, std::uint64_t)
{
    const LlmConfig model = benchModel();
    const ClusterConfig cluster = benchCluster(model);
    PimModuleModel module(cluster.module);
    std::uint32_t batch = kBatchRequests;
    return nsPerOp([&] {
        batch = batch == kBatchRequests ? kBatchRequests - 1
                                        : kBatchRequests;
        g_sink = g_sink +
                 module.fcLayer(batch, model, cluster.plan.tp).seconds;
    });
}

LazyChunkAllocator
benchAllocator()
{
    const LlmConfig model = benchModel();
    const ClusterConfig cluster = benchCluster(model);
    return LazyChunkAllocator(cluster.usableKvBytes(model),
                              model.kvBytesPerToken(), model.contextWindow);
}

/** Per-token grow of a decoding batch, round-robin over requests. */
double
lazyChunkNsPerGrow(const Workload &w, std::uint64_t seed)
{
    LazyChunkAllocator alloc = benchAllocator();
    std::vector<Tokens> contexts = contextSample(w, seed, kBatchRequests);
    std::vector<Tokens> tokens = contexts;
    for (std::size_t r = 0; r < contexts.size(); ++r)
        alloc.tryAdmit(static_cast<RequestId>(r), contexts[r]);
    std::size_t next = 0;
    std::uint64_t grows = 0;
    const std::uint64_t per_batch =
        kBatchRequests * static_cast<std::uint64_t>(w.spec.length.decodeTokens);
    return nsPerOp([&] {
        std::size_t r = next++ % kBatchRequests;
        g_sink = g_sink +
                 (alloc.grow(static_cast<RequestId>(r), ++tokens[r]) ? 1 : 0);
        if (++grows % per_batch == 0) // batch retires: shrink back
            for (std::size_t i = 0; i < kBatchRequests; ++i) {
                alloc.release(static_cast<RequestId>(i));
                tokens[i] = contexts[i];
                alloc.tryAdmit(static_cast<RequestId>(i), tokens[i]);
            }
    });
}

/** tryAdmit + release of one request beside a resident batch. */
double
lazyChunkNsPerAdmitRelease(const Workload &w, std::uint64_t seed)
{
    LazyChunkAllocator alloc = benchAllocator();
    std::vector<Tokens> contexts = contextSample(w, seed, 256);
    for (std::size_t r = 0; r < kBatchRequests; ++r)
        alloc.tryAdmit(static_cast<RequestId>(r), contexts[r]);
    std::size_t next = 0;
    const RequestId id = kBatchRequests;
    return nsPerOp([&] {
        g_sink = g_sink +
                 (alloc.tryAdmit(id, contexts[next++ % contexts.size()])
                      ? 1
                      : 0);
        alloc.release(id);
    });
}

// --- tenant-backlog: the per-tier SLO gate's windowed quantile. -----

/** WindowedQuantile::add at the default sloWindow, p95. */
double
windowedQuantileNsPerAdd(const Workload &, std::uint64_t seed)
{
    WindowedQuantile window(SchedPolicyConfig{}.sloWindow, 95.0);
    Rng rng(seed);
    // Decode gaps: mostly one cycle, with long stalls where a 30k
    // prefill shares the xPU (one request in four is long).
    std::vector<double> gaps(4096);
    for (double &g : gaps)
        g = rng.uniform() < 0.25 ? exponential(rng, 0.3)
                                 : exponential(rng, 0.03);
    std::size_t next = 0;
    return nsPerOp([&] {
        window.add(gaps[next++ % gaps.size()]);
        g_sink = g_sink + window.value();
    });
}

// --- fleet-sessions: the prefix tree and the router's probes. -------

/** acquire + releaseConsumer on one of 16 pooled 2048-token prefixes. */
double
prefixNsPerAcquireRelease(const Workload &w, std::uint64_t seed)
{
    LazyChunkAllocator alloc = benchAllocator();
    PrefixCache cache(alloc, w.engine.prefixCache);
    const unsigned pool = w.spec.prefix.pool;
    for (unsigned p = 0; p < pool; ++p)
        cache.publish(PrefixCache::prefixKey(p + 1), 0, 0,
                      w.spec.prefix.tokens, w.spec.prefix.tokens, 0.0, 0,
                      false, true);
    Rng rng(seed);
    std::vector<std::uint64_t> keys(4096);
    for (auto &k : keys)
        k = PrefixCache::prefixKey(1 + rng.uniformInt(0, pool - 1));
    std::size_t next = 0;
    double now = 0.0;
    return nsPerOp([&] {
        std::uint64_t key = keys[next++ % keys.size()];
        now += 1e-3;
        g_sink = g_sink + static_cast<double>(cache.acquire(key, now, 0));
        cache.releaseConsumer(key);
    });
}

/**
 * publish of a session-history entry into a cache capped at 16
 * entries' worth of chunks, so every publish evicts the LRU idle
 * entry first.
 */
double
prefixNsPerPublishEvict(const Workload &w, std::uint64_t seed,
                        std::string &error)
{
    LazyChunkAllocator alloc = benchAllocator();
    PrefixCacheOptions opts = w.engine.prefixCache;
    const Tokens entry_tokens = 4 * w.spec.prefix.tokens;
    opts.maxShare =
        16.0 * static_cast<double>(alloc.chunksFor(entry_tokens)) /
        static_cast<double>(alloc.totalChunks());
    PrefixCache cache(alloc, opts);
    Rng rng(seed);
    std::uint64_t session = 0;
    double now = 0.0;
    double ns = nsPerOp([&] {
        Tokens jitter = static_cast<Tokens>(rng.uniformInt(0, 63));
        now += 1e-3;
        bool ok = cache.publish(PrefixCache::sessionKey(++session, 0), 0,
                                0, entry_tokens - jitter,
                                entry_tokens - jitter, now, 0, false, true);
        g_sink = g_sink + (ok ? 1 : 0);
    });
    if (cache.stats().evictions + cache.entryCount() != session ||
        cache.entryCount() > 16)
        error = "publish/evict bench: " +
                std::to_string(cache.stats().evictions) + " evictions and " +
                std::to_string(cache.entryCount()) + " entries after " +
                std::to_string(session) + " publishes";
    return ns;
}

/**
 * An engine holding one replica's share of the fleet workload's
 * backlog, advanced to the median arrival: the state the router's
 * probes read at a window barrier.
 */
struct RouterProbe
{
    std::vector<TimedRequest> requests;
    std::unique_ptr<ServingEngine> engine;
};

RouterProbe
routerProbe(const Workload &w, std::uint64_t seed)
{
    const LlmConfig model = benchModel();
    const ClusterConfig cluster = benchCluster(model);
    WorkloadSpec spec = w.spec;
    const unsigned replicas = w.fleetOptions.replicas;
    spec.count = std::max<std::size_t>(1, spec.count / replicas);
    spec.arrival.ratePerSecond /= replicas;
    BuiltWorkload built = buildWorkload(spec, seed);
    RouterProbe probe;
    probe.requests = built.initial;
    double horizon =
        built.initial[built.initial.size() / 2].arrivalSeconds;
    probe.engine = std::make_unique<ServingEngine>(
        cluster, model, std::move(built.initial), w.fleetOptions.engine);
    probe.engine->declareSessionTurns(built.sessions);
    probe.engine->prepare();
    probe.engine->advanceTo(horizon);
    return probe;
}

} // namespace

const std::vector<std::string> &
microbenchMetrics()
{
    static const std::vector<std::string> names = {
        "sim.event_queue.ns_per_op",
        "sim.device.ns_per_item",
        "sim.pipeline.ns_per_handoff",
        "model.attention_layer_ns",
        "model.fc_layer_ns",
        "alloc.lazy_chunk.ns_per_grow",
        "alloc.lazy_chunk.ns_per_admit_release",
        "stats.windowed_quantile.ns_per_add",
        "alloc.prefix_cache.ns_per_acquire_release",
        "alloc.prefix_cache.ns_per_publish_evict",
        "router.queued_tokens_ns",
        "router.prefix_warm_ns",
    };
    return names;
}

bool
runMicrobenches(const Workload &w, std::uint64_t seed, SpanLog &spans,
                int parent, std::map<std::string, double> &out,
                std::string &error)
{
    auto timed = [&](const char *metric, auto &&bench) {
        int span = spans.open(metric, parent);
        out[metric] = bench();
        spans.close(span);
    };
    if (w.name == "steady-longctx") {
        timed("sim.event_queue.ns_per_op",
              [&] { return eventQueueNsPerOp(w, seed); });
        timed("sim.device.ns_per_item",
              [&] { return deviceNsPerItem(w, seed); });
        timed("sim.pipeline.ns_per_handoff",
              [&] { return pipelineNsPerHandoff(w, seed); });
        timed("model.attention_layer_ns",
              [&] { return attentionLayerNs(w, seed); });
        timed("model.fc_layer_ns", [&] { return fcLayerNs(w, seed); });
        timed("alloc.lazy_chunk.ns_per_grow",
              [&] { return lazyChunkNsPerGrow(w, seed); });
        timed("alloc.lazy_chunk.ns_per_admit_release",
              [&] { return lazyChunkNsPerAdmitRelease(w, seed); });
    } else if (w.name == "tenant-backlog") {
        timed("stats.windowed_quantile.ns_per_add",
              [&] { return windowedQuantileNsPerAdd(w, seed); });
    } else if (w.name == "fleet-sessions") {
        timed("alloc.prefix_cache.ns_per_acquire_release",
              [&] { return prefixNsPerAcquireRelease(w, seed); });
        timed("alloc.prefix_cache.ns_per_publish_evict", [&] {
            return prefixNsPerPublishEvict(w, seed, error);
        });
        int span = spans.open("router.probe_setup", parent);
        RouterProbe probe = routerProbe(w, seed);
        spans.close(span);
        timed("router.queued_tokens_ns", [&] {
            return nsPerOp([&] {
                g_sink = g_sink + probe.engine->queuedTokens();
            });
        });
        std::size_t next = 0;
        timed("router.prefix_warm_ns", [&] {
            return nsPerOp([&] {
                const Request &r =
                    probe.requests[next++ % probe.requests.size()].request;
                g_sink = g_sink +
                         static_cast<double>(
                             probe.engine->prefixWarmTokens(r));
            });
        });
    }
    return error.empty();
}

} // namespace perfbench
