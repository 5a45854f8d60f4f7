#include "alloc/kv_allocator.hh"

#include "common/logging.hh"

namespace pimphony {

// --- StaticKvAllocator -------------------------------------------------

bool
StaticKvAllocator::tryAdmit(RequestId id, Tokens tokens)
{
    if (tokens_.count(id))
        panic("request %u admitted twice", id);
    if (tokens > tMax_)
        return false; // cannot serve beyond the compiled maximum
    if (reserved_ + reservationBytes() > capacity_)
        return false;
    reserved_ += reservationBytes();
    tokens_[id] = tokens;
    totalTokens_ += tokens;
    ++host_;
    return true;
}

bool
StaticKvAllocator::grow(RequestId id, Tokens tokens)
{
    auto it = tokens_.find(id);
    if (it == tokens_.end())
        panic("grow on unknown request %u", id);
    if (tokens > tMax_)
        return false; // reservation exhausted
    totalTokens_ += tokens - it->second;
    it->second = tokens;
    return true; // space was pre-reserved; no host involvement
}

void
StaticKvAllocator::release(RequestId id)
{
    auto it = tokens_.find(id);
    if (it == tokens_.end())
        panic("release on unknown request %u", id);
    totalTokens_ -= it->second;
    tokens_.erase(it);
    reserved_ -= reservationBytes();
    ++host_;
}

Bytes
StaticKvAllocator::usedBytes() const
{
    // Incremental total: the engine reads this per accounting slice,
    // so the former O(active) walk was a per-cycle cost. Integer
    // arithmetic distributes, so the product of the running token
    // sum is exactly the old per-request sum.
    return bytesPerToken_ * totalTokens_;
}

// --- LazyChunkAllocator ------------------------------------------------

LazyChunkAllocator::LazyChunkAllocator(Bytes capacity, Bytes bytes_per_token,
                                       Tokens t_max, Bytes chunk_bytes)
    : KvAllocator(capacity, bytes_per_token, t_max), chunk_(chunk_bytes),
      totalChunks_(capacity / chunk_bytes)
{
    if (chunk_bytes == 0)
        fatal("chunk size must be positive");
}

std::uint64_t
LazyChunkAllocator::chunksFor(Tokens tokens) const
{
    return ceilDiv<std::uint64_t>(bytesPerToken_ * tokens, chunk_);
}

bool
LazyChunkAllocator::tryAdmit(RequestId id, Tokens tokens)
{
    if (tokens_.count(id))
        panic("request %u admitted twice", id);
    std::uint64_t need = chunksFor(tokens);
    if (chunksInUse_ + need > totalChunks_)
        return false;
    chunksInUse_ += need;
    chunks_[id] = need;
    tokens_[id] = tokens;
    totalTokens_ += tokens;
    ++host_; // host installs the VA2PA mapping for the new request
    return true;
}

bool
LazyChunkAllocator::grow(RequestId id, Tokens tokens)
{
    auto it = tokens_.find(id);
    if (it == tokens_.end())
        panic("grow on unknown request %u", id);
    // One probe for the chunk count: grow runs once per decoded
    // token, so the repeated operator[] probes showed up at sweep
    // scale.
    std::uint64_t &have = chunks_[id];
    std::uint64_t need = chunksFor(tokens);
    if (need > have) {
        if (chunksInUse_ + (need - have) > totalChunks_)
            return false;
        chunksInUse_ += need - have;
        have = need;
        ++host_; // chunk-granular: host touched only on new chunks
    }
    totalTokens_ += tokens - it->second;
    it->second = tokens;
    return true;
}

void
LazyChunkAllocator::release(RequestId id)
{
    auto it = tokens_.find(id);
    if (it == tokens_.end())
        panic("release on unknown request %u", id);
    chunksInUse_ -= chunks_[id];
    chunks_.erase(id);
    totalTokens_ -= it->second;
    tokens_.erase(it);
    ++host_;
}

Bytes
LazyChunkAllocator::usedBytes() const
{
    // Incremental total (see StaticKvAllocator::usedBytes).
    return bytesPerToken_ * totalTokens_;
}

std::unique_ptr<KvAllocator>
makeAllocator(AllocatorKind kind, Bytes capacity, Bytes bytes_per_token,
              Tokens t_max)
{
    switch (kind) {
      case AllocatorKind::Static:
        return std::make_unique<StaticKvAllocator>(capacity,
                                                   bytes_per_token, t_max);
      case AllocatorKind::LazyChunk:
        return std::make_unique<LazyChunkAllocator>(capacity,
                                                    bytes_per_token, t_max);
    }
    panic("unknown allocator kind");
}

} // namespace pimphony
