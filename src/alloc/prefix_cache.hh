/**
 * @file
 * Copy-on-write prefix sharing over the paged KV allocator.
 *
 * PIMphony's DPA already pages KV state in fixed chunks (the
 * LazyChunk KvAllocator); this layer adds a refcounted prefix tree on
 * top of it so that requests opening with an identical token prefix
 * — a shared system prompt, or the retained history of a multi-turn
 * session — map the prefix's chunks instead of recomputing them.
 *
 * Tree semantics
 *  - Each entry caches an absolute prefix of `tokens` tokens; a
 *    child entry extends its parent by `ownTokens` and holds chunk
 *    custody only for that delta (session turn k+1 chains onto the
 *    entry retained at turn k).
 *  - Sharing is chunk-granular and copy-on-write: a consumer reuses
 *    only the tokens fully contained in whole chunks
 *    (`shareTokens`); the partially filled tail chunk belongs to the
 *    writer and is re-prefilled by the consumer — that re-prefill IS
 *    the modelled CoW copy.
 *  - Entries are refcounted: every admitted consumer and every child
 *    entry holds a reference, so eviction can only take idle leaves
 *    and the tree never dangles.
 *
 * Custody is real, not virtual: every entry reserves its chunks
 * through the underlying allocator under a synthetic
 * RequestId, so `allocator.reservedBytes() == shared + unique` holds
 * structurally and capacity pressure (admission headroom, Fig. 19
 * utilization) automatically includes the cache.
 */

#ifndef PIMPHONY_ALLOC_PREFIX_CACHE_HH
#define PIMPHONY_ALLOC_PREFIX_CACHE_HH

#include <cstdint>
#include <map>
#include <string>

#include "alloc/kv_allocator.hh"
#include "common/types.hh"

namespace pimphony {

/** Victim order when the cache must shed idle entries. */
enum class PrefixEvictPolicy {
    Lru,          ///< least-recently-used entry first
    TierWeighted, ///< highest (least critical) consumer tier first,
                  ///< LRU within a tier
};

/** Knobs for the prefix-sharing subsystem (ServingOptions member). */
struct PrefixCacheOptions
{
    /** Master switch; off reproduces the cache-less engine bit for
     *  bit. Requires the LazyChunk allocator. */
    bool enabled = false;

    PrefixEvictPolicy evict = PrefixEvictPolicy::Lru;

    /** Cap on cache chunk custody as a fraction of KV capacity;
     *  publishes beyond it evict idle entries or are skipped. */
    double maxShare = 0.5;

    /** Fatal, naming the field under @p path, on a bad maxShare. */
    void validate(const std::string &path = "PrefixCacheOptions::") const;
};

struct PrefixCacheStats
{
    std::uint64_t hits = 0;      ///< admissions served from the tree
    std::uint64_t misses = 0;    ///< reusable keys that found nothing
    std::uint64_t publishes = 0; ///< entries ever inserted
    std::uint64_t evictions = 0; ///< entries evicted under pressure
};

class PrefixCache
{
  public:
    PrefixCache(KvAllocator &allocator, const PrefixCacheOptions &options);
    ~PrefixCache();

    /** Key for a workload-declared prefix hash. */
    static std::uint64_t prefixKey(std::uint64_t prefix_hash);

    /** Key for the KV retained at (session, turn). */
    static std::uint64_t sessionKey(SessionId session, std::uint32_t turn);

    /** Shareable (whole-chunk) tokens under @p key; 0 on miss or
     *  while the publisher's prefill is still in flight. Read-only:
     *  no stats, no LRU touch — safe for routing probes. */
    Tokens peek(std::uint64_t key) const;

    /** Take a consumer reference on a ready entry. @return its
     *  shareable tokens (0 and no reference on miss). Does not count
     *  stats: an admission may pin, get blocked, and release several
     *  times before it commits — call noteHit() once at commit. */
    Tokens acquire(std::uint64_t key, double now, unsigned tier);

    /** Count a committed admission served from the tree. */
    void noteHit() { ++stats_.hits; }

    /** Count an admission that had a reusable key but found nothing. */
    void noteMiss() { ++stats_.misses; }

    /** Drop a structural reference (publisher's hold, or child entry
     *  evicted). A never-readied entry whose publisher lets go is
     *  erased. */
    void release(std::uint64_t key);

    /** Drop a consumer reference taken by acquire(). */
    void releaseConsumer(std::uint64_t key);

    /**
     * Insert an entry caching @p total_tokens under @p key, holding
     * chunk custody for the last @p own_tokens of it (the rest is
     * covered by @p parent_key, of which @p parent_share tokens are
     * shareable). Evicts idle entries if needed to fit under the
     * maxShare cap and the allocator's capacity.
     *
     * @param hold  the caller keeps a reference (a live publisher
     *              whose own KV uses these chunks); released later.
     * @param ready entry is immediately consumable; pass false while
     *              the publisher's chunked prefill is in flight and
     *              markReady() afterwards.
     * @return false (and no entry) if @p key exists or memory could
     *         not be found — the caller simply forgoes caching.
     */
    bool publish(std::uint64_t key, std::uint64_t parent_key,
                 Tokens parent_share, Tokens total_tokens,
                 Tokens own_tokens, double now, unsigned tier, bool hold,
                 bool ready);

    /** Publisher's prefill finished: open the entry for sharing. */
    void markReady(std::uint64_t key, double now);

    /** Entry exists under @p key (ready or not). */
    bool knows(std::uint64_t key) const { return entries_.count(key) != 0; }

    /** Current reference count under @p key (0 if absent): admitted
     *  consumers plus structural holds (publisher, child entries). */
    std::uint32_t refsOf(std::uint64_t key) const
    {
        auto it = entries_.find(key);
        return it == entries_.end() ? 0 : it->second.refs;
    }

    /** Admitted consumer references under @p key (0 if absent) — the
     *  divisor base for fractional tenant charging. Structural refs
     *  (publisher hold, session-chained children) are excluded so
     *  they never dilute a consumer's charge. */
    std::uint32_t consumersOf(std::uint64_t key) const
    {
        auto it = entries_.find(key);
        return it == entries_.end() ? 0 : it->second.consumers;
    }

    /** Evict idle entries (policy order) until the allocator has
     *  @p bytes_needed of headroom. @return true if it does. */
    bool evictFor(Bytes bytes_needed);

    /** Drop every entry and all chunk custody (engine evacuation). */
    void clear();

    /** Chunk custody held by the tree — the "shared" bytes. */
    Bytes heldBytes() const { return heldChunks_ * alloc_.chunkBytes(); }
    std::uint64_t heldChunks() const { return heldChunks_; }
    std::size_t entryCount() const { return entries_.size(); }
    const PrefixCacheStats &stats() const { return stats_; }

    /** Tokens fully contained in whole chunks — the shareable part
     *  of a @p tokens -long prefix under CoW. */
    Tokens floorChunkTokens(Tokens tokens) const;

  private:
    struct Entry
    {
        std::uint64_t parent = 0; ///< parent key (0 = tree root)
        Tokens tokens = 0;        ///< absolute cached prefix length
        Tokens shareTokens = 0;   ///< whole-chunk tokens consumers reuse
        Tokens ownTokens = 0;     ///< delta tokens this entry backs
        std::uint64_t chunks = 0; ///< chunk custody for ownTokens
        std::uint32_t refs = 0;   ///< consumers + structural holds
        std::uint32_t consumers = 0; ///< admitted consumers only
        bool ready = false;
        unsigned tier = ~0u;      ///< most critical consumer tier seen
        double lastUse = 0.0;
        RequestId holder = 0;     ///< synthetic allocator id
    };

    using EntryMap = std::map<std::uint64_t, Entry>; // ordered: deterministic

    void dropRef(std::uint64_t key, bool consumer);
    void erase(EntryMap::iterator it, bool count_eviction);
    EntryMap::iterator pickVictim();
    bool evictChunks(std::uint64_t chunks_needed_free);

    KvAllocator &alloc_;
    PrefixCacheOptions options_;
    EntryMap entries_;
    std::uint64_t heldChunks_ = 0;
    RequestId nextHolder_ = 0x80000000u;
    PrefixCacheStats stats_;
};

} // namespace pimphony

#endif // PIMPHONY_ALLOC_PREFIX_CACHE_HH
