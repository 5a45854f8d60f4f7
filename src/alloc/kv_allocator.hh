/**
 * @file
 * KV-cache allocators for a PIM module (Sec. VI / Fig. 19).
 *
 * StaticKvAllocator models conventional PIM memory management:
 * because command streams embed physical addresses at compile time,
 * every admitted request must reserve kvBytesPerToken x T_max up
 * front, regardless of its actual context.
 *
 * LazyChunkAllocator models DPA-backed management: memory is
 * allocated in fixed chunks (1 MiB by default) on demand as the KV
 * cache grows, mapped through the on-module VA2PA table; internal
 * fragmentation is limited to the last chunk of each request.
 */

#ifndef PIMPHONY_ALLOC_KV_ALLOCATOR_HH
#define PIMPHONY_ALLOC_KV_ALLOCATOR_HH

#include <cstdint>
#include <memory>
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
     * @param capacity usable KV capacity of the module (weights
     *        already subtracted by the caller).
     * @param bytes_per_token model-dependent KV growth rate.
     * @param t_max the compile-time maximum context length.
     */
    KvAllocator(Bytes capacity, Bytes bytes_per_token, Tokens t_max)
        : capacity_(capacity), bytesPerToken_(bytes_per_token),
          tMax_(t_max)
    {
    }

    virtual ~KvAllocator() = default;

    /** Try to admit a request at @p tokens context; reserves memory. */
    virtual bool tryAdmit(RequestId id, Tokens tokens) = 0;

    /** Grow a request to @p tokens (one per decode step). @return
     *  false when the module is out of memory. */
    virtual bool grow(RequestId id, Tokens tokens) = 0;

    /** Release all memory of a completed request. */
    virtual void release(RequestId id) = 0;

    /** Bytes reserved (unusable by other requests). */
    virtual Bytes reservedBytes() const = 0;

    /** Bytes actually holding KV data. */
    virtual Bytes usedBytes() const = 0;

    /** Host<->PIM management interactions so far (admit/grow/release
     *  messages that DPA batches at chunk granularity). */
    virtual std::uint64_t hostInterventions() const = 0;

    Bytes capacity() const { return capacity_; }
    Bytes bytesPerToken() const { return bytesPerToken_; }

    /** Fraction of capacity holding real KV data (Fig. 19 metric). */
    double
    capacityUtilization() const
    {
        return safeRatio(static_cast<double>(usedBytes()),
                         static_cast<double>(capacity_));
    }

  protected:
    Bytes capacity_;
    Bytes bytesPerToken_;
    Tokens tMax_;
};

class StaticKvAllocator : public KvAllocator
{
  public:
    using KvAllocator::KvAllocator;

    bool tryAdmit(RequestId id, Tokens tokens) override;
    bool grow(RequestId id, Tokens tokens) override;
    void release(RequestId id) override;
    Bytes reservedBytes() const override { return reserved_; }
    Bytes usedBytes() const override;
    std::uint64_t hostInterventions() const override { return host_; }

  private:
    Bytes reservationBytes() const { return bytesPerToken_ * tMax_; }

    std::unordered_map<RequestId, Tokens> tokens_;
    Tokens totalTokens_ = 0; ///< running sum of tokens_ values
    Bytes reserved_ = 0;
    std::uint64_t host_ = 0;
};

class LazyChunkAllocator : public KvAllocator
{
  public:
    LazyChunkAllocator(Bytes capacity, Bytes bytes_per_token, Tokens t_max,
                       Bytes chunk_bytes = 1_MiB);

    bool tryAdmit(RequestId id, Tokens tokens) override;
    bool grow(RequestId id, Tokens tokens) override;
    void release(RequestId id) override;
    Bytes reservedBytes() const override { return chunksInUse_ * chunk_; }
    Bytes usedBytes() const override;
    std::uint64_t hostInterventions() const override { return host_; }

    Bytes chunkBytes() const { return chunk_; }
    std::uint64_t chunksInUse() const { return chunksInUse_; }
    std::uint64_t totalChunks() const { return totalChunks_; }

    /** Chunks needed to back @p tokens of KV (last chunk may be
     *  partially filled). Exposed for the prefix cache, which splits
     *  custody of a request's KV between shared and unique chunks. */
    std::uint64_t chunksFor(Tokens tokens) const;

    /** VA2PA table footprint: one entry (8 B) per mapped chunk. */
    Bytes va2paBytes() const { return chunksInUse_ * 8; }

  private:
    Bytes chunk_;
    std::unordered_map<RequestId, Tokens> tokens_;
    Tokens totalTokens_ = 0; ///< running sum of tokens_ values
    std::unordered_map<RequestId, std::uint64_t> chunks_;
    std::uint64_t chunksInUse_ = 0;
    std::uint64_t totalChunks_;
    std::uint64_t host_ = 0;
};

/** Factory. */
std::unique_ptr<KvAllocator> makeAllocator(AllocatorKind kind,
                                           Bytes capacity,
                                           Bytes bytes_per_token,
                                           Tokens t_max);

} // namespace pimphony

#endif // PIMPHONY_ALLOC_KV_ALLOCATOR_HH
