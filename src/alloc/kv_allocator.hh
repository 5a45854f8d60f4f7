/**
 * @file
 * The KV-cache allocator of the serving engine (Sec. VI / Fig. 19).
 *
 * Both of the paper's memory-management schemes hand out KV capacity
 * in chunks; they differ only in the chunk size:
 *
 * - Static models conventional PIM management. Command streams embed
 *   physical addresses at compile time, so a request's chunk is
 *   kvBytesPerToken x T_max, reserved in full at admission whatever
 *   the context. A request never holds a second chunk: one beyond
 *   T_max tokens is refused.
 * - LazyChunk models DPA-backed management. Chunks (1 MiB by default)
 *   are mapped on demand as the KV cache grows, through the
 *   on-module VA2PA table; internal fragmentation is limited to the
 *   last chunk of each request.
 *
 * The capacity is the cluster's pooled KV capacity
 * (ClusterConfig::usableKvBytes, weights already subtracted), not one
 * module's: the engine gives the allocator the whole pool, and a
 * chunk is one allocation in that pool.
 */

#ifndef PIMPHONY_ALLOC_KV_ALLOCATOR_HH
#define PIMPHONY_ALLOC_KV_ALLOCATOR_HH

#include <cstdint>
#include <unordered_map>

#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace pimphony {

enum class AllocatorKind {
    Static,
    LazyChunk,
};

class KvAllocator
{
  public:
    /**
     * @param kind Static (one T_max-sized chunk per request) or
     *        LazyChunk (@p chunk_bytes chunks on demand).
     * @param capacity pooled KV capacity (weights already subtracted
     *        by the caller).
     * @param bytes_per_token model-dependent KV growth rate.
     * @param t_max the compile-time maximum context length.
     * @param chunk_bytes LazyChunk's chunk size; Static's chunk is
     *        bytes_per_token x t_max.
     */
    KvAllocator(AllocatorKind kind, Bytes capacity, Bytes bytes_per_token,
                Tokens t_max, Bytes chunk_bytes = 1_MiB);

    /** A LazyChunk allocator (the form LazyChunkAllocator callers
     *  use). */
    KvAllocator(Bytes capacity, Bytes bytes_per_token, Tokens t_max,
                Bytes chunk_bytes = 1_MiB)
        : KvAllocator(AllocatorKind::LazyChunk, capacity, bytes_per_token,
                      t_max, chunk_bytes)
    {
    }

    /** Try to admit a request at @p tokens context; reserves memory. */
    bool tryAdmit(RequestId id, Tokens tokens);

    /** Grow a request to @p tokens (one per decode step). @return
     *  false when the pool is out of chunks, or a Static request
     *  would outgrow its T_max chunk. */
    bool grow(RequestId id, Tokens tokens);

    /** Release all memory of a completed request. */
    void release(RequestId id);

    /** Bytes reserved (unusable by other requests). */
    Bytes reservedBytes() const { return chunksInUse_ * chunk_; }

    /** Bytes actually holding KV data. */
    Bytes usedBytes() const { return bytesPerToken_ * totalTokens_; }

    /** Host<->PIM management interactions so far: one per admit and
     *  per release, and one per grow that maps new chunks (DPA batches
     *  them at chunk granularity; Static never maps on grow). */
    std::uint64_t hostInterventions() const { return host_; }

    Bytes capacity() const { return capacity_; }
    Bytes bytesPerToken() const { return bytesPerToken_; }
    Bytes chunkBytes() const { return chunk_; }
    std::uint64_t chunksInUse() const { return chunksInUse_; }
    std::uint64_t totalChunks() const { return totalChunks_; }

    /** Chunks needed to back @p tokens of KV (last chunk may be
     *  partially filled; a Static request holds its one chunk from
     *  admission). Exposed for the prefix cache, which splits custody
     *  of a request's KV between shared and unique chunks. */
    std::uint64_t chunksFor(Tokens tokens) const;

    /** Fraction of capacity holding real KV data (Fig. 19 metric). */
    double
    capacityUtilization() const
    {
        return safeRatio(static_cast<double>(usedBytes()),
                         static_cast<double>(capacity_));
    }

  private:
    /** Whether a request can hold @p need chunks, @p extra of them
     *  newly mapped. */
    bool canHold(std::uint64_t need, std::uint64_t extra) const;

    struct Held
    {
        Tokens tokens;
        std::uint64_t chunks;
    };

    AllocatorKind kind_;
    Bytes capacity_;
    Bytes bytesPerToken_;
    Bytes chunk_;
    std::uint64_t totalChunks_ = 0;
    std::unordered_map<RequestId, Held> held_;
    Tokens totalTokens_ = 0; ///< running sum of the held tokens
    std::uint64_t chunksInUse_ = 0;
    std::uint64_t host_ = 0;
};

/** The name perfbench's micro benchmarks construct the allocator by. */
using LazyChunkAllocator = KvAllocator;

} // namespace pimphony

#endif // PIMPHONY_ALLOC_KV_ALLOCATOR_HH
