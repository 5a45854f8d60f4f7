#include "alloc/kv_allocator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pimphony {

KvAllocator::KvAllocator(AllocatorKind kind, Bytes capacity,
                         Bytes bytes_per_token, Tokens t_max,
                         Bytes chunk_bytes)
    : kind_(kind), capacity_(capacity), bytesPerToken_(bytes_per_token),
      chunk_(kind == AllocatorKind::Static ? bytes_per_token * t_max
                                           : chunk_bytes)
{
    // Checked before the capacity is divided by it.
    if (chunk_ == 0)
        fatal("chunk size must be positive (%s)",
              kind == AllocatorKind::Static ? "bytes_per_token x t_max"
                                            : "chunk_bytes");
    totalChunks_ = capacity / chunk_;
}

std::uint64_t
KvAllocator::chunksFor(Tokens tokens) const
{
    std::uint64_t chunks =
        ceilDiv<std::uint64_t>(bytesPerToken_ * tokens, chunk_);
    return kind_ == AllocatorKind::Static ? std::max<std::uint64_t>(chunks, 1)
                                          : chunks;
}

bool
KvAllocator::canHold(std::uint64_t need, std::uint64_t extra) const
{
    // Static command streams address one T_max reservation.
    if (kind_ == AllocatorKind::Static && need > 1)
        return false;
    return chunksInUse_ + extra <= totalChunks_;
}

bool
KvAllocator::tryAdmit(RequestId id, Tokens tokens)
{
    if (held_.count(id))
        panic("request %u admitted twice", id);
    std::uint64_t need = chunksFor(tokens);
    if (!canHold(need, need))
        return false;
    held_.emplace(id, Held{tokens, need});
    chunksInUse_ += need;
    totalTokens_ += tokens;
    ++host_; // host installs the mapping for the new request
    return true;
}

bool
KvAllocator::grow(RequestId id, Tokens tokens)
{
    auto it = held_.find(id);
    if (it == held_.end())
        panic("grow on unknown request %u", id);
    Held &held = it->second;
    std::uint64_t need = chunksFor(tokens);
    if (need > held.chunks) {
        if (!canHold(need, need - held.chunks))
            return false;
        chunksInUse_ += need - held.chunks;
        held.chunks = need;
        ++host_; // chunk-granular: host touched only on new chunks
    }
    totalTokens_ += tokens - held.tokens;
    held.tokens = tokens;
    return true;
}

void
KvAllocator::release(RequestId id)
{
    auto it = held_.find(id);
    if (it == held_.end())
        panic("release on unknown request %u", id);
    chunksInUse_ -= it->second.chunks;
    totalTokens_ -= it->second.tokens;
    held_.erase(it);
    ++host_;
}

} // namespace pimphony
