/**
 * @file
 * Prefix-sharing tests: the CoW prefix tree over the paged KV
 * allocator (alloc/prefix_cache.hh), the warm-prefill planner
 * conservation laws, the engine's warm-admission accounting, session
 * KV retention across turns, fleet prefix-affinity routing, and the
 * bit-identity contract when caching is disabled.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "alloc/prefix_cache.hh"
#include "system/engine.hh"
#include "system/fleet.hh"
#include "system/prefill.hh"
#include "workload/spec.hh"

namespace pimphony {
namespace {

// 128 KiB per token, 1 MiB chunks: exactly 8 tokens per chunk (the
// llm7b GQA rate, so the unit fixtures match the engine fixtures).
constexpr Bytes kBpt = 128 * 1024;
constexpr Tokens kTmax = 32768;

PrefixCacheOptions
cacheOn(PrefixEvictPolicy evict = PrefixEvictPolicy::Lru,
        double max_share = 1.0)
{
    PrefixCacheOptions o;
    o.enabled = true;
    o.evict = evict;
    o.maxShare = max_share;
    return o;
}

// --- PrefixCache unit behavior. ----------------------------------------

TEST(PrefixCache, PublishAcquireReleaseLifecycle)
{
    LazyChunkAllocator a(64_MiB, kBpt, kTmax, 1_MiB);
    PrefixCache cache(a, cacheOn());
    std::uint64_t key = PrefixCache::prefixKey(0xBEEF);

    EXPECT_EQ(cache.peek(key), 0u);
    ASSERT_TRUE(cache.publish(key, 0, 0, 16, 16, 0.0, 0,
                              /*hold=*/false, /*ready=*/true));
    EXPECT_TRUE(cache.knows(key));
    EXPECT_EQ(cache.entryCount(), 1u);
    EXPECT_EQ(cache.heldChunks(), 2u); // 16 tokens = 2 chunks
    // Custody is real: the tree's chunks are the allocator's.
    EXPECT_EQ(a.reservedBytes(), cache.heldBytes());

    EXPECT_EQ(cache.peek(key), 16u);
    EXPECT_EQ(cache.refsOf(key), 0u);
    EXPECT_EQ(cache.acquire(key, 1.0, 0), 16u);
    EXPECT_EQ(cache.refsOf(key), 1u);
    EXPECT_EQ(cache.consumersOf(key), 1u);
    // Hits are counted at admission commit (noteHit), not inside
    // acquire: a pinned admission may bounce off budget or headroom
    // checks and re-acquire on every retry.
    EXPECT_EQ(cache.stats().hits, 0u);
    cache.noteHit();
    EXPECT_EQ(cache.stats().hits, 1u);
    cache.releaseConsumer(key);
    EXPECT_EQ(cache.refsOf(key), 0u);
    EXPECT_EQ(cache.consumersOf(key), 0u);
    EXPECT_TRUE(cache.knows(key)); // ready entries outlive consumers

    // A duplicate publish is refused without disturbing the entry.
    EXPECT_FALSE(cache.publish(key, 0, 0, 16, 16, 2.0, 0, false, true));
    EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(PrefixCache, CowTailIsNotShareable)
{
    LazyChunkAllocator a(64_MiB, kBpt, kTmax, 1_MiB);
    PrefixCache cache(a, cacheOn());
    // 12 tokens back 2 chunks, but only the 8 tokens of the full
    // chunk are shareable: the partial tail is the CoW copy the
    // consumer re-prefills itself.
    EXPECT_EQ(cache.floorChunkTokens(12), 8u);
    EXPECT_EQ(cache.floorChunkTokens(8), 8u);
    EXPECT_EQ(cache.floorChunkTokens(7), 0u);
    std::uint64_t key = PrefixCache::prefixKey(0x12);
    ASSERT_TRUE(cache.publish(key, 0, 0, 12, 12, 0.0, 0, false, true));
    EXPECT_EQ(cache.heldChunks(), 2u);
    EXPECT_EQ(cache.acquire(key, 1.0, 0), 8u);
}

TEST(PrefixCache, NotReadyUntilMarked)
{
    LazyChunkAllocator a(64_MiB, kBpt, kTmax, 1_MiB);
    PrefixCache cache(a, cacheOn());
    std::uint64_t key = PrefixCache::prefixKey(0x34);
    // Publisher protocol: entry exists but is unconsumable while the
    // publisher's chunked prefill is in flight.
    ASSERT_TRUE(cache.publish(key, 0, 0, 16, 16, 0.0, 0,
                              /*hold=*/true, /*ready=*/false));
    EXPECT_TRUE(cache.knows(key));
    EXPECT_EQ(cache.peek(key), 0u);
    EXPECT_EQ(cache.acquire(key, 1.0, 0), 0u);
    // The publisher's hold is structural, not a consumer ref.
    EXPECT_EQ(cache.refsOf(key), 1u);
    EXPECT_EQ(cache.consumersOf(key), 0u);
    cache.markReady(key, 2.0);
    EXPECT_EQ(cache.peek(key), 16u);
    cache.release(key); // publisher done; ready entry persists
    EXPECT_TRUE(cache.knows(key));
}

TEST(PrefixCache, AbandonedUnreadyEntryIsErased)
{
    LazyChunkAllocator a(64_MiB, kBpt, kTmax, 1_MiB);
    PrefixCache cache(a, cacheOn());
    std::uint64_t key = PrefixCache::prefixKey(0x56);
    ASSERT_TRUE(cache.publish(key, 0, 0, 16, 16, 0.0, 0,
                              /*hold=*/true, /*ready=*/false));
    // The publisher is preempted before its prefill finishes: the
    // entry can never be consumed, so dropping the hold erases it
    // and returns the chunks.
    cache.release(key);
    EXPECT_FALSE(cache.knows(key));
    EXPECT_EQ(cache.heldChunks(), 0u);
    EXPECT_EQ(a.reservedBytes(), 0u);
}

TEST(PrefixCache, SessionChainHoldsParentAlive)
{
    LazyChunkAllocator a(64_MiB, kBpt, kTmax, 1_MiB);
    PrefixCache cache(a, cacheOn());
    std::uint64_t parent = PrefixCache::sessionKey(7, 0);
    std::uint64_t child = PrefixCache::sessionKey(7, 1);
    ASSERT_TRUE(
        cache.publish(parent, 0, 0, 16, 16, 0.0, 0, false, true));
    // Turn 1 retained 8 delta tokens on top of turn 0's 16.
    ASSERT_TRUE(
        cache.publish(child, parent, 16, 24, 8, 1.0, 0, false, true));
    EXPECT_EQ(cache.peek(child), 24u);
    EXPECT_EQ(cache.refsOf(parent), 1u); // the child's ref
    // Structural: the child's ref must not dilute a consumer's
    // fractional tenant charge.
    EXPECT_EQ(cache.consumersOf(parent), 0u);

    // The parent is pinned by its child: eviction pressure can only
    // take the (idle leaf) child, which unpins the parent. Demanding
    // more than capacity fails, but only after draining the tree in
    // leaf-to-root order.
    EXPECT_FALSE(cache.evictFor(65_MiB));
    EXPECT_FALSE(cache.knows(child));
    EXPECT_FALSE(cache.knows(parent));
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(a.reservedBytes(), 0u);
}

TEST(PrefixCache, LruEvictsOldestIdleEntry)
{
    // 4-chunk module; three 1-chunk entries and a consumer that
    // needs 2 chunks forces one eviction.
    LazyChunkAllocator a(4_MiB, kBpt, kTmax, 1_MiB);
    PrefixCache cache(a, cacheOn(PrefixEvictPolicy::Lru));
    std::uint64_t ka = PrefixCache::prefixKey(0xA);
    std::uint64_t kb = PrefixCache::prefixKey(0xB);
    std::uint64_t kc = PrefixCache::prefixKey(0xC);
    ASSERT_TRUE(cache.publish(ka, 0, 0, 8, 8, 1.0, 0, false, true));
    ASSERT_TRUE(cache.publish(kb, 0, 0, 8, 8, 2.0, 0, false, true));
    ASSERT_TRUE(cache.publish(kc, 0, 0, 8, 8, 3.0, 0, false, true));
    // Touch A at t=4: B becomes the least recently used.
    EXPECT_EQ(cache.acquire(ka, 4.0, 0), 8u);
    cache.releaseConsumer(ka);

    ASSERT_TRUE(cache.evictFor(3_MiB));
    EXPECT_TRUE(cache.knows(ka));
    EXPECT_FALSE(cache.knows(kb));
    EXPECT_FALSE(cache.knows(kc));
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(PrefixCache, TierWeightedEvictsLeastCriticalFirst)
{
    LazyChunkAllocator a(4_MiB, kBpt, kTmax, 1_MiB);
    PrefixCache cache(a, cacheOn(PrefixEvictPolicy::TierWeighted));
    std::uint64_t hot = PrefixCache::prefixKey(0x1);
    std::uint64_t cold = PrefixCache::prefixKey(0x2);
    // The tier-0 (critical) entry is older than the tier-2 one; LRU
    // would take it, tier weighting protects it.
    ASSERT_TRUE(cache.publish(hot, 0, 0, 8, 8, 1.0, 0, false, true));
    ASSERT_TRUE(cache.publish(cold, 0, 0, 8, 8, 5.0, 2, false, true));
    ASSERT_TRUE(cache.evictFor(3_MiB));
    EXPECT_TRUE(cache.knows(hot));
    EXPECT_FALSE(cache.knows(cold));
}

TEST(PrefixCache, ConsumersPinEntriesAgainstEviction)
{
    LazyChunkAllocator a(2_MiB, kBpt, kTmax, 1_MiB);
    PrefixCache cache(a, cacheOn());
    std::uint64_t key = PrefixCache::prefixKey(0x9);
    ASSERT_TRUE(cache.publish(key, 0, 0, 8, 8, 0.0, 0, false, true));
    ASSERT_EQ(cache.acquire(key, 1.0, 0), 8u);
    // Both chunks are spoken for (1 cache + 1 would-be consumer):
    // nothing evictable, so the headroom request must fail...
    EXPECT_FALSE(cache.evictFor(2_MiB));
    EXPECT_TRUE(cache.knows(key));
    // ...until the consumer lets go.
    cache.releaseConsumer(key);
    EXPECT_TRUE(cache.evictFor(2_MiB));
    EXPECT_FALSE(cache.knows(key));
}

TEST(PrefixCache, MaxShareCapsCustody)
{
    // 8-chunk module capped at 25%: the tree may hold 2 chunks.
    LazyChunkAllocator a(8_MiB, kBpt, kTmax, 1_MiB);
    PrefixCache cache(a, cacheOn(PrefixEvictPolicy::Lru, 0.25));
    std::uint64_t k1 = PrefixCache::prefixKey(0x11);
    std::uint64_t k2 = PrefixCache::prefixKey(0x22);
    // 3 chunks can never fit under the cap.
    EXPECT_FALSE(cache.publish(k1, 0, 0, 24, 24, 0.0, 0, false, true));
    // 2 chunks fit; a second 1-chunk publish evicts to make room.
    ASSERT_TRUE(cache.publish(k1, 0, 0, 16, 16, 1.0, 0, false, true));
    ASSERT_TRUE(cache.publish(k2, 0, 0, 8, 8, 2.0, 0, false, true));
    EXPECT_FALSE(cache.knows(k1));
    EXPECT_TRUE(cache.knows(k2));
    EXPECT_LE(cache.heldChunks(), 2u);
}

TEST(PrefixCache, ClearReturnsEveryChunk)
{
    LazyChunkAllocator a(64_MiB, kBpt, kTmax, 1_MiB);
    PrefixCache cache(a, cacheOn());
    ASSERT_TRUE(cache.publish(PrefixCache::prefixKey(1), 0, 0, 16, 16,
                              0.0, 0, false, true));
    ASSERT_TRUE(cache.publish(PrefixCache::prefixKey(2), 0, 0, 8, 8,
                              0.0, 0, false, true));
    ASSERT_TRUE(a.tryAdmit(1000, 8)); // a bystander request
    cache.clear();
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.heldChunks(), 0u);
    // Only the bystander's chunk remains reserved.
    EXPECT_EQ(a.reservedBytes(), a.chunkBytes());
}

TEST(PrefixCache, KeysAreDistinctAndNonzero)
{
    EXPECT_NE(PrefixCache::prefixKey(0), 0u);
    EXPECT_NE(PrefixCache::sessionKey(0, 0), 0u);
    EXPECT_NE(PrefixCache::prefixKey(0xBEEF),
              PrefixCache::sessionKey(0xBEEF, 0));
    EXPECT_NE(PrefixCache::sessionKey(1, 2),
              PrefixCache::sessionKey(2, 1));
    EXPECT_EQ(prefixEvictPolicyName(PrefixEvictPolicy::Lru), "lru");
    EXPECT_EQ(prefixEvictPolicyName(PrefixEvictPolicy::TierWeighted),
              "tier-weighted");
}

// --- Warm-prefill planner conservation. --------------------------------

TEST(PrefillFrom, ZeroCachedReducesToColdPlanner)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    EXPECT_EQ(prefillSecondsFrom(model, 0, 4096, cluster.xpu, 4),
              prefillSeconds(model, 4096, cluster.xpu, 4));
    auto cold = prefillChunks(model, 4096, 512);
    auto from = prefillChunksFrom(model, 0, 4096, 512);
    ASSERT_EQ(cold.size(), from.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(cold[i].firstToken, from[i].firstToken);
        EXPECT_EQ(cold[i].tokens, from[i].tokens);
        EXPECT_EQ(cold[i].flops, from[i].flops);
    }
}

TEST(PrefillFrom, WarmPlusCachedConservesColdCharge)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    for (Tokens cached : {Tokens{512}, Tokens{2048}, Tokens{4095}}) {
        double cold = prefillSeconds(model, 4096, cluster.xpu, 4);
        double head = prefillSeconds(model, cached, cluster.xpu, 4);
        double warm =
            prefillSecondsFrom(model, cached, 4096, cluster.xpu, 4);
        EXPECT_DOUBLE_EQ(head + warm, cold) << "cached=" << cached;
        EXPECT_GT(warm, 0.0);
        EXPECT_LT(warm, cold);
    }
    // Fully (or over-) cached context charges nothing.
    EXPECT_EQ(prefillSecondsFrom(model, 4096, 4096, cluster.xpu, 4),
              0.0);
    EXPECT_EQ(prefillSecondsFrom(model, 5000, 4096, cluster.xpu, 4),
              0.0);
}

TEST(PrefillFrom, ChunkFlopsAndSecondsSumToTheDelta)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    auto chunks = prefillChunksFrom(model, 1536, 4096, 512);
    double flops = 0.0;
    Tokens tokens = 0;
    for (const auto &c : chunks) {
        flops += c.flops;
        tokens += c.tokens;
    }
    EXPECT_EQ(tokens, 4096u - 1536u);
    EXPECT_EQ(chunks.front().firstToken, 1536u);
    EXPECT_DOUBLE_EQ(flops, prefillFlops(model, 4096) -
                                prefillFlops(model, 1536));
    auto secs =
        prefillChunkSecondsFrom(model, 1536, 4096, 512, cluster.xpu, 4);
    ASSERT_EQ(secs.size(), chunks.size());
    double total = 0.0;
    for (double s : secs)
        total += s;
    EXPECT_DOUBLE_EQ(
        total, prefillSecondsFrom(model, 1536, 4096, cluster.xpu, 4));
}

// --- Engine integration. -----------------------------------------------

LlmConfig
testModel()
{
    return LlmConfig::llm7b(true);
}

ClusterConfig
testCluster(const LlmConfig &model)
{
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
    applyOptions(cluster, PimphonyOptions::all());
    return cluster;
}

EngineOptions
cachingOptions(bool enabled)
{
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.chargePrefill = true;
    opts.prefixCache.enabled = enabled;
    return opts;
}

/**
 * N requests sharing one declared 2048-token prefix, spaced far
 * enough apart that the publisher's prefill completes before the
 * followers admit (so every follower is a warm hit).
 */
std::vector<TimedRequest>
sharedPrefixTrace(std::size_t n, double gap_seconds = 2.0)
{
    std::vector<TimedRequest> trace;
    trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Request r(static_cast<RequestId>(i), 2048, 16);
        r.prefixHash = 0xBEEF;
        r.prefixTokens = 2048;
        trace.push_back({r, static_cast<double>(i) * gap_seconds});
    }
    return trace;
}

TEST(PrefixEngine, WarmFollowersSkipTheCachedPrefill)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = sharedPrefixTrace(6);

    ServingEngine cold(cluster, model, trace, cachingOptions(false));
    auto off = cold.run();
    ServingEngine warm(cluster, model, trace, cachingOptions(true));
    auto on = warm.run();

    EXPECT_EQ(on.completedRequests, 6u);
    // Request 0 publishes (a miss), requests 1..5 hit.
    EXPECT_EQ(on.prefixHits, 5u);
    EXPECT_EQ(on.prefixMisses, 1u);
    EXPECT_DOUBLE_EQ(on.prefixHitRate, 5.0 / 6.0);
    // 2048 tokens x 5 warm admissions, chunk-aligned so the whole
    // prefix is shareable.
    EXPECT_EQ(on.prefixCachedTokens, 5u * 2048u);
    EXPECT_GT(on.savedPrefillSeconds, 0.0);
    EXPECT_LT(on.prefillSeconds, off.prefillSeconds);
    EXPECT_DOUBLE_EQ(on.prefillSeconds + on.savedPrefillSeconds,
                     off.prefillSeconds);
    EXPECT_GT(on.sharedKvPeakBytes, 0u);

    // Every warm follower's TTFT beats its cold counterpart.
    for (RequestId id = 1; id < 6; ++id) {
        ASSERT_TRUE(on.firstTokenLatency.count(id));
        EXPECT_LT(on.firstTokenLatency.at(id),
                  off.firstTokenLatency.at(id))
            << "request " << id;
    }
    // The cache-off run never touches the prefix metrics.
    EXPECT_EQ(off.prefixHits, 0u);
    EXPECT_EQ(off.prefixMisses, 0u);
    EXPECT_EQ(off.prefixCachedTokens, 0u);
    EXPECT_EQ(off.savedPrefillSeconds, 0.0);
}

TEST(PrefixEngine, AllocatedEqualsSharedPlusUnique)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = sharedPrefixTrace(4);
    ServingEngine engine(cluster, model, trace, cachingOptions(true));
    auto r = engine.run();
    ASSERT_EQ(r.completedRequests, 4u);

    // After the run every request has released its unique chunks, so
    // the allocator's entire reservation is the tree's custody: the
    // shared + unique split covers the allocation exactly.
    const PrefixCache *cache = engine.prefixCache();
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(engine.allocatorView().reservedBytes(),
              cache->heldBytes());
    EXPECT_GT(cache->heldBytes(), 0u);
    // Occupancy is sampled at admission instants; the single
    // 2048-token entry is the entire shared footprint, so its peak
    // is exact.
    EXPECT_EQ(r.sharedKvPeakBytes, 2048ull * model.kvBytesPerToken());
    EXPECT_LE(r.sharedKvPeakBytes,
              engine.allocatorView().capacity());
}

TEST(PrefixEngine, SessionTurnsPrefillOnlyTheirDelta)
{
    auto model = testModel();
    auto cluster = testCluster(model);

    // One 3-turn session, explicit successor book: turn k+1 carries
    // the whole conversation so far as context.
    auto turn = [](RequestId id, Tokens ctx, unsigned k) {
        Request r(id, ctx, 16);
        r.session = 1;
        r.turn = k;
        return r;
    };
    BuiltWorkload built;
    built.initial = {{turn(0, 2048, 0), 0.0}};
    built.sessions.emplace(0, SessionTurn{turn(1, 2064, 1), 0.5});
    built.sessions.emplace(1, SessionTurn{turn(2, 2080, 2), 0.5});

    auto run = [&](bool enabled) {
        ServingEngine engine(cluster, model, built.initial,
                             cachingOptions(enabled));
        engine.declareSessionTurns(built.sessions);
        return engine.run();
    };
    auto off = run(false);
    auto on = run(true);

    EXPECT_EQ(on.completedRequests, 3u);
    // Turns 1 and 2 reuse the retained KV of their predecessor.
    EXPECT_EQ(on.prefixHits, 2u);
    EXPECT_GT(on.savedPrefillSeconds, 0.0);
    EXPECT_GT(on.prefixCachedTokens, 0u);
    EXPECT_LT(on.prefillSeconds, off.prefillSeconds);
    // The successor turns complete earlier warm than cold.
    EXPECT_LT(on.completionSeconds.at(2), off.completionSeconds.at(2));
}

TEST(PrefixEngine, DisabledIsBitIdenticalToBaseline)
{
    auto model = testModel();
    auto cluster = testCluster(model);

    // A workload exercising sessions, classes, and declared prefixes
    // (the stamps ride along even when nobody reads them).
    WorkloadSpec spec;
    spec.count = 24;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{2000, 16}, {4000, 16}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 8.0;
    spec.session.turns = 2;
    spec.session.thinkMeanSeconds = 0.2;
    spec.prefix.share = 0.5;
    spec.prefix.tokens = 1024;
    auto built = buildWorkload(spec, 77);

    EngineOptions base;
    base.allocator = AllocatorKind::LazyChunk;
    base.prefillChunkTokens = 2048;
    auto disabled = base;
    disabled.prefixCache.enabled = false;
    disabled.prefixCache.evict = PrefixEvictPolicy::TierWeighted;
    disabled.prefixCache.maxShare = 0.1;

    auto run = [&](const EngineOptions &opts) {
        ServingEngine engine(cluster, model, built.initial, opts);
        engine.declareSessionTurns(built.sessions);
        return engine.run();
    };
    auto a = run(base);
    auto b = run(disabled);
    ASSERT_GT(a.completedRequests, 0u);
    EXPECT_EQ(a.tokensPerSecond, b.tokensPerSecond);
    EXPECT_EQ(a.simulatedSeconds, b.simulatedSeconds);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.avgRequestLatency, b.avgRequestLatency);
    EXPECT_EQ(a.avgFirstTokenSeconds, b.avgFirstTokenSeconds);
    EXPECT_EQ(a.avgTokenGapSeconds, b.avgTokenGapSeconds);
    EXPECT_EQ(a.firstTokenLatency, b.firstTokenLatency);
    EXPECT_EQ(a.completionSeconds, b.completionSeconds);
    EXPECT_EQ(b.prefixHits, 0u);
    EXPECT_EQ(b.prefixMisses, 0u);
}

TEST(PrefixEngine, RunTwiceIsBitIdentical)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = sharedPrefixTrace(6, 0.25); // overlapping admissions
    auto run = [&]() {
        ServingEngine engine(cluster, model, trace,
                             cachingOptions(true));
        return engine.run();
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.simulatedSeconds, b.simulatedSeconds);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.prefixHits, b.prefixHits);
    EXPECT_EQ(a.prefixMisses, b.prefixMisses);
    EXPECT_EQ(a.prefixCachedTokens, b.prefixCachedTokens);
    EXPECT_EQ(a.savedPrefillSeconds, b.savedPrefillSeconds);
    EXPECT_EQ(a.firstTokenLatency, b.firstTokenLatency);
    EXPECT_EQ(a.completionSeconds, b.completionSeconds);
}

TEST(PrefixEngine, FractionalTenantChargeRefundsExactly)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = sharedPrefixTrace(6);
    for (auto &timed : trace)
        timed.request.cls.tenant = timed.request.id % 2;

    auto opts = cachingOptions(true);
    opts.tenantBudgets = {{0, 0.5}, {1, 0.5}};
    ServingEngine engine(cluster, model, trace, opts);
    auto r = engine.run();

    // Warm admissions were charged fractionally and refunded from
    // the recorded charge, so the budgets drain back to zero and
    // every request completes.
    EXPECT_EQ(r.completedRequests, 6u);
    EXPECT_GT(r.prefixHits, 0u);
    ASSERT_EQ(r.tenantOccupancy.size(), 2u);
    for (const auto &to : r.tenantOccupancy) {
        EXPECT_GT(to.admittedRequests, 0u);
        EXPECT_LE(to.peakTokenShare, 1.0);
    }
}

TEST(PrefixEngine, RequiresLazyChunk)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = sharedPrefixTrace(2);
    auto static_opts = cachingOptions(true);
    static_opts.allocator = AllocatorKind::Static;
    EXPECT_DEATH(
        ServingEngine(cluster, model, trace, static_opts).run(),
        "LazyChunk");
}

// --- Workload prefix stamping. -----------------------------------------

TEST(PrefixWorkload, ShareAndPoolControlTheStamps)
{
    WorkloadSpec spec;
    spec.count = 400;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{4000, 16}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 50.0;
    spec.prefix.share = 0.5;
    spec.prefix.pool = 2;
    spec.prefix.tokens = 1024;
    auto built = buildWorkload(spec, 11);

    std::size_t stamped = 0;
    std::set<std::uint64_t> hashes;
    for (const auto &timed : built.initial) {
        if (timed.request.prefixHash == 0) {
            EXPECT_EQ(timed.request.prefixTokens, 0u);
            continue;
        }
        ++stamped;
        hashes.insert(timed.request.prefixHash);
        EXPECT_EQ(timed.request.prefixTokens, 1024u);
        EXPECT_LT(timed.request.prefixHash, 1ull << 53);
    }
    // ~half the requests stamped, from a pool of exactly 2 hashes.
    EXPECT_GT(stamped, 120u);
    EXPECT_LT(stamped, 280u);
    EXPECT_EQ(hashes.size(), 2u);

    // share = 0 stamps nothing and perturbs no other draw: the
    // request stream is bit-identical to a prefix-free spec.
    auto base_spec = spec;
    base_spec.prefix = PrefixSpec{};
    auto with = buildWorkload(base_spec, 11);
    auto none_spec = spec;
    none_spec.prefix.share = 0.0;
    none_spec.prefix.tokens = 0;
    auto none = buildWorkload(none_spec, 11);
    ASSERT_EQ(with.initial.size(), none.initial.size());
    for (std::size_t i = 0; i < with.initial.size(); ++i) {
        EXPECT_EQ(with.initial[i].arrivalSeconds,
                  none.initial[i].arrivalSeconds);
        EXPECT_EQ(with.initial[i].request.contextTokens,
                  none.initial[i].request.contextTokens);
        EXPECT_EQ(with.initial[i].request.prefixHash, 0u);
    }
}

// --- Fleet integration. ------------------------------------------------

TEST(PrefixFleet, AffinityRoutesFollowersToTheWarmReplica)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    // Two prefix families, interleaved. Affinity should converge
    // each family onto one replica once its publisher is warm.
    std::vector<TimedRequest> trace;
    for (std::size_t i = 0; i < 12; ++i) {
        Request r(static_cast<RequestId>(i), 2048, 16);
        r.prefixHash = (i % 2) ? 0xAAAA : 0xBBBB;
        r.prefixTokens = 2048;
        // The first two requests arrive close enough together that
        // the second publisher is pushed to the idle replica by
        // load; every later request arrives after both publishers'
        // prefills finished, so warmth decides its route.
        double at = (i < 2) ? 0.1 * static_cast<double>(i)
                            : 1.5 * static_cast<double>(i);
        trace.push_back({r, at});
    }

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::PrefixAffinity;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = cachingOptions(true);
    FleetEngine fleet(cluster, model, trace, fopts);
    auto out = fleet.run();

    EXPECT_EQ(out.aggregate.completedRequests, 12u);
    // The two publishers miss; every follower finds a warm replica.
    EXPECT_EQ(out.aggregate.prefixHits, 10u);
    EXPECT_EQ(out.aggregate.prefixMisses, 2u);
    EXPECT_GT(out.aggregate.savedPrefillSeconds, 0.0);
    // Each family lives entirely on one replica: the per-replica
    // request counts split the trace evenly.
    ASSERT_EQ(out.routedRequests.size(), 2u);
    EXPECT_EQ(out.routedRequests[0], 6u);
    EXPECT_EQ(out.routedRequests[1], 6u);
}

TEST(PrefixFleet, AffinityWithCachingOffFallsBackToLeastLoaded)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    WorkloadSpec spec;
    spec.count = 40;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{2000, 16}, {4000, 16}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 20.0;
    spec.prefix.share = 0.5;
    spec.prefix.tokens = 1024;
    auto built = buildWorkload(spec, 41);

    auto run = [&](RoutePolicy policy) {
        FleetOptions fopts;
        fopts.replicas = 3;
        fopts.policy = policy;
        fopts.dispatchLatencySeconds = 0.004;
        fopts.engine = cachingOptions(false);
        fopts.engine.chargePrefill = false;
        FleetEngine fleet(cluster, model, built.initial, fopts);
        return fleet.run();
    };
    auto ll = run(RoutePolicy::LeastLoaded);
    auto pa = run(RoutePolicy::PrefixAffinity);

    // Every warmth probe reads 0 without caching, so the decisions
    // — and therefore the entire simulation — are identical.
    EXPECT_EQ(pa.routedRequests, ll.routedRequests);
    EXPECT_EQ(pa.aggregate.simulatedSeconds,
              ll.aggregate.simulatedSeconds);
    EXPECT_EQ(pa.aggregate.simEvents, ll.aggregate.simEvents);
    EXPECT_EQ(pa.aggregate.firstTokenLatency,
              ll.aggregate.firstTokenLatency);
    EXPECT_EQ(pa.aggregate.completionSeconds,
              ll.aggregate.completionSeconds);
    EXPECT_EQ(routePolicyName(RoutePolicy::PrefixAffinity),
              "prefix-affinity");
}

} // namespace
} // namespace pimphony
