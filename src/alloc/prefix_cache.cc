#include "alloc/prefix_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pimphony {

namespace {

/** splitmix64 finalizer: well-mixed 64-bit keys from hashes/ids. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

void
PrefixCacheOptions::validate(const std::string &path) const
{
    requireField(path + "maxShare", maxShare, FieldRange::Fraction);
}

PrefixCache::PrefixCache(KvAllocator &allocator,
                         const PrefixCacheOptions &options)
    : alloc_(allocator), options_(options)
{
    options_.validate();
}

PrefixCache::~PrefixCache() { clear(); }

std::uint64_t
PrefixCache::prefixKey(std::uint64_t prefix_hash)
{
    std::uint64_t k = mix64(prefix_hash ^ 0x5851f42d4c957f2dull);
    return k ? k : 1;
}

std::uint64_t
PrefixCache::sessionKey(SessionId session, std::uint32_t turn)
{
    std::uint64_t k =
        mix64((static_cast<std::uint64_t>(session) << 32) | turn);
    k = mix64(k ^ 0x6a09e667f3bcc909ull);
    return k ? k : 1;
}

Tokens
PrefixCache::floorChunkTokens(Tokens tokens) const
{
    Bytes bpt = alloc_.bytesPerToken();
    Bytes chunk = alloc_.chunkBytes();
    std::uint64_t full_chunks = (bpt * tokens) / chunk;
    return (full_chunks * chunk) / bpt;
}

Tokens
PrefixCache::peek(std::uint64_t key) const
{
    auto it = entries_.find(key);
    if (it == entries_.end() || !it->second.ready)
        return 0;
    return it->second.shareTokens;
}

Tokens
PrefixCache::acquire(std::uint64_t key, double now, unsigned tier)
{
    auto it = entries_.find(key);
    if (it == entries_.end() || !it->second.ready ||
        it->second.shareTokens == 0)
        return 0;
    Entry &e = it->second;
    ++e.refs;
    ++e.consumers;
    e.lastUse = now;
    e.tier = std::min(e.tier, tier);
    return e.shareTokens;
}

void
PrefixCache::release(std::uint64_t key)
{
    dropRef(key, /*consumer=*/false);
}

void
PrefixCache::releaseConsumer(std::uint64_t key)
{
    dropRef(key, /*consumer=*/true);
}

bool
PrefixCache::publish(std::uint64_t key, std::uint64_t parent_key,
                     Tokens parent_share, Tokens total_tokens,
                     Tokens own_tokens, double now, unsigned tier,
                     bool hold, bool ready)
{
    if (entries_.count(key))
        return false;
    std::uint64_t chunks = alloc_.chunksFor(own_tokens);

    // Custody cap: the tree may hold at most maxShare of capacity.
    auto cap = static_cast<std::uint64_t>(
        options_.maxShare * static_cast<double>(alloc_.totalChunks()));
    if (heldChunks_ + chunks > cap &&
        !evictChunks(heldChunks_ + chunks - cap))
        return false;

    RequestId holder = nextHolder_++;
    if (!alloc_.tryAdmit(holder, own_tokens)) {
        if (!evictFor(chunks * alloc_.chunkBytes()) ||
            !alloc_.tryAdmit(holder, own_tokens))
            return false;
    }

    Entry e;
    e.parent = parent_key;
    e.tokens = total_tokens;
    e.shareTokens = parent_share + floorChunkTokens(own_tokens);
    e.ownTokens = own_tokens;
    e.chunks = chunks;
    e.refs = hold ? 1 : 0;
    e.ready = ready;
    e.tier = tier;
    e.lastUse = now;
    e.holder = holder;
    if (parent_key) {
        auto pit = entries_.find(parent_key);
        if (pit == entries_.end())
            panic("prefix cache: publish under unknown parent");
        ++pit->second.refs;
    }
    entries_.emplace(key, e);
    heldChunks_ += chunks;
    ++stats_.publishes;
    return true;
}

void
PrefixCache::markReady(std::uint64_t key, double now)
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return; // entry evicted/cleared while the prefill ran
    it->second.ready = true;
    it->second.lastUse = now;
}

void
PrefixCache::dropRef(std::uint64_t key, bool consumer)
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        panic("prefix cache: release of unknown entry");
    Entry &e = it->second;
    if (e.refs == 0)
        panic("prefix cache: refcount underflow");
    if (consumer) {
        if (e.consumers == 0)
            panic("prefix cache: consumer refcount underflow");
        --e.consumers;
    } else if (e.refs == e.consumers) {
        panic("prefix cache: structural release of a consumer ref");
    }
    --e.refs;
    // A publisher abandoning a never-readied entry (preemption, kill)
    // leaves it useless: nobody can ever consume it, so drop it now.
    if (e.refs == 0 && !e.ready)
        erase(it, false);
}

void
PrefixCache::erase(EntryMap::iterator it, bool count_eviction)
{
    Entry victim = it->second;
    entries_.erase(it);
    alloc_.release(victim.holder);
    heldChunks_ -= victim.chunks;
    if (count_eviction)
        ++stats_.evictions;
    if (victim.parent)
        dropRef(victim.parent, /*consumer=*/false);
}

PrefixCache::EntryMap::iterator
PrefixCache::pickVictim()
{
    auto best = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.refs != 0)
            continue;
        if (best == entries_.end()) {
            best = it;
            continue;
        }
        const Entry &cand = it->second;
        const Entry &cur = best->second;
        bool better;
        if (options_.evict == PrefixEvictPolicy::TierWeighted &&
            cand.tier != cur.tier) {
            // Higher tier number = less latency-critical consumers:
            // shed those prefixes first.
            better = cand.tier > cur.tier;
        } else {
            better = cand.lastUse < cur.lastUse;
        }
        if (better)
            best = it;
    }
    return best;
}

bool
PrefixCache::evictChunks(std::uint64_t chunks_to_free)
{
    // Invariant: erase() can cascade — dropping the victim's child
    // reference may erase an un-ready parent too — so each iteration
    // re-scans entries_ from scratch (pickVictim) and no iterator is
    // held across an erase(). Keep it that way if optimizing.
    std::uint64_t freed = 0;
    while (freed < chunks_to_free) {
        auto victim = pickVictim();
        if (victim == entries_.end())
            return false;
        freed += victim->second.chunks;
        erase(victim, true);
    }
    return true;
}

bool
PrefixCache::evictFor(Bytes bytes_needed)
{
    // Same re-scan invariant as evictChunks(): erase() may cascade
    // into parents, so never hold an iterator across it.
    while (alloc_.capacity() < alloc_.reservedBytes() + bytes_needed) {
        auto victim = pickVictim();
        if (victim == entries_.end())
            return false;
        erase(victim, true);
    }
    return true;
}

void
PrefixCache::clear()
{
    for (auto &kv : entries_)
        alloc_.release(kv.second.holder);
    entries_.clear();
    heldChunks_ = 0;
}

} // namespace pimphony
