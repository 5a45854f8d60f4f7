/**
 * @file
 * Allocator tests: static T_max reservations vs DPA lazy chunks --
 * admission, growth, fragmentation bounds, utilization accounting,
 * host-interaction counting, and random sequences of both against a
 * test-local reference.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "alloc/kv_allocator.hh"
#include "common/rng.hh"

namespace pimphony {
namespace {

constexpr Bytes kBpt = 512 * 1024; // 7B MHA: 512 KiB per token
constexpr Tokens kTmax = 32768;

TEST(StaticAllocator, ReservesTmaxRegardlessOfContext)
{
    KvAllocator a(AllocatorKind::Static, 64_GiB, kBpt, kTmax);
    ASSERT_TRUE(a.tryAdmit(0, 1000));
    EXPECT_EQ(a.reservedBytes(), kBpt * kTmax); // 16 GiB
    EXPECT_EQ(a.usedBytes(), kBpt * 1000);
    EXPECT_LT(a.capacityUtilization(), 0.01);
}

TEST(StaticAllocator, AdmissionBoundedByWorstCase)
{
    KvAllocator a(AllocatorKind::Static, 64_GiB, kBpt, kTmax);
    // 64 GiB / 16 GiB reservations = 4 requests, however short.
    for (RequestId id = 0; id < 4; ++id)
        EXPECT_TRUE(a.tryAdmit(id, 100));
    EXPECT_FALSE(a.tryAdmit(99, 100));
}

TEST(StaticAllocator, GrowNeverFailsWithinTmax)
{
    KvAllocator a(AllocatorKind::Static, 64_GiB, kBpt, kTmax);
    ASSERT_TRUE(a.tryAdmit(0, 100));
    std::uint64_t host_before = a.hostInterventions();
    EXPECT_TRUE(a.grow(0, kTmax));
    EXPECT_FALSE(a.grow(0, kTmax + 1));
    // Growth inside the reservation involves no host message.
    EXPECT_EQ(a.hostInterventions(), host_before);
}

TEST(StaticAllocator, ReleaseReturnsReservation)
{
    KvAllocator a(AllocatorKind::Static, 32_GiB, kBpt, kTmax);
    ASSERT_TRUE(a.tryAdmit(0, 100));
    ASSERT_TRUE(a.tryAdmit(1, 100));
    EXPECT_FALSE(a.tryAdmit(2, 100));
    a.release(0);
    EXPECT_TRUE(a.tryAdmit(2, 100));
}

TEST(StaticAllocator, RejectsBeyondTmax)
{
    KvAllocator a(AllocatorKind::Static, 64_GiB, kBpt, kTmax);
    EXPECT_FALSE(a.tryAdmit(0, kTmax + 1));
}

TEST(LazyAllocator, AllocatesOnlyWhatIsNeeded)
{
    KvAllocator a(AllocatorKind::LazyChunk, 64_GiB, kBpt, kTmax);
    ASSERT_TRUE(a.tryAdmit(0, 1000));
    Bytes actual = kBpt * 1000;
    EXPECT_GE(a.reservedBytes(), actual);
    // Fragmentation bounded by one chunk.
    EXPECT_LT(a.reservedBytes(), actual + a.chunkBytes());
}

TEST(LazyAllocator, AdmitsManyMoreShortRequests)
{
    KvAllocator st(AllocatorKind::Static, 64_GiB, kBpt, kTmax);
    KvAllocator lz(AllocatorKind::LazyChunk, 64_GiB, kBpt, kTmax);
    int st_admitted = 0, lz_admitted = 0;
    for (RequestId id = 0; id < 64; ++id) {
        if (st.tryAdmit(id, 2000))
            ++st_admitted;
        if (lz.tryAdmit(id, 2000))
            ++lz_admitted;
    }
    EXPECT_EQ(st_admitted, 4);
    EXPECT_EQ(lz_admitted, 64);
    EXPECT_GT(lz.capacityUtilization(), 0.9);
}

TEST(LazyAllocator, GrowAddsChunksOnDemand)
{
    KvAllocator a(AllocatorKind::LazyChunk, 64_GiB, kBpt, kTmax, 1_MiB);
    ASSERT_TRUE(a.tryAdmit(0, 2)); // 1 MiB exactly (2 x 512 KiB)
    EXPECT_EQ(a.chunksInUse(), 1u);
    std::uint64_t host = a.hostInterventions();
    EXPECT_TRUE(a.grow(0, 3)); // needs a second chunk
    EXPECT_EQ(a.chunksInUse(), 2u);
    EXPECT_EQ(a.hostInterventions(), host + 1);
    // Growth within the chunk: no host message.
    EXPECT_TRUE(a.grow(0, 4));
    EXPECT_EQ(a.hostInterventions(), host + 1);
}

TEST(LazyAllocator, GrowFailsWhenFull)
{
    KvAllocator a(AllocatorKind::LazyChunk, 2_MiB, kBpt, kTmax, 1_MiB);
    ASSERT_TRUE(a.tryAdmit(0, 2));
    ASSERT_TRUE(a.tryAdmit(1, 2));
    EXPECT_FALSE(a.grow(0, 3));
    a.release(1);
    EXPECT_TRUE(a.grow(0, 3));
}

TEST(LazyAllocator, FragmentationBoundOverManyRequests)
{
    KvAllocator a(AllocatorKind::LazyChunk, 64_GiB, kBpt, kTmax, 1_MiB);
    for (RequestId id = 0; id < 32; ++id)
        ASSERT_TRUE(a.tryAdmit(id, 1 + id * 7 % 50));
    // Internal fragmentation <= one chunk per request (paper claim).
    EXPECT_LE(a.reservedBytes() - a.usedBytes(), 32u * a.chunkBytes());
}

TEST(LazyAllocator, GrowExactlyAtChunkBoundary)
{
    KvAllocator a(AllocatorKind::LazyChunk, 64_GiB, kBpt, kTmax, 1_MiB);
    ASSERT_TRUE(a.tryAdmit(0, 2)); // 1 MiB: exactly one chunk
    EXPECT_EQ(a.chunksInUse(), 1u);
    EXPECT_EQ(a.reservedBytes(), a.usedBytes()); // zero fragmentation
    // Growing to exactly the next boundary adds exactly one chunk...
    EXPECT_TRUE(a.grow(0, 4)); // 2 MiB
    EXPECT_EQ(a.chunksInUse(), 2u);
    EXPECT_EQ(a.reservedBytes(), a.usedBytes());
    // ...and one byte past it would need a third.
    EXPECT_TRUE(a.grow(0, 5)); // 2.5 MiB
    EXPECT_EQ(a.chunksInUse(), 3u);
    EXPECT_EQ(a.reservedBytes() - a.usedBytes(), 512u * 1024u);
}

TEST(LazyAllocator, ReleaseThenReadmitAccounting)
{
    KvAllocator a(AllocatorKind::LazyChunk, 4_MiB, kBpt, kTmax, 1_MiB);
    ASSERT_TRUE(a.tryAdmit(0, 4)); // 2 chunks
    ASSERT_TRUE(a.tryAdmit(1, 4)); // 2 chunks; full
    EXPECT_EQ(a.chunksInUse(), 4u);
    EXPECT_FALSE(a.tryAdmit(2, 1));
    std::uint64_t host = a.hostInterventions();

    a.release(0);
    EXPECT_EQ(a.chunksInUse(), 2u);
    EXPECT_EQ(a.usedBytes(), kBpt * 4);
    EXPECT_EQ(a.hostInterventions(), host + 1);

    // The same id can re-enter (preemption-recompute path) and the
    // books balance back to full occupancy.
    ASSERT_TRUE(a.tryAdmit(0, 3)); // 1.5 MiB -> 2 chunks
    EXPECT_EQ(a.chunksInUse(), 4u);
    EXPECT_EQ(a.usedBytes(), kBpt * 7);
    EXPECT_EQ(a.hostInterventions(), host + 2);
    a.release(0);
    a.release(1);
    EXPECT_EQ(a.chunksInUse(), 0u);
    EXPECT_EQ(a.usedBytes(), 0u);
    EXPECT_EQ(a.reservedBytes(), 0u);
}

TEST(LazyAllocator, ChunksInUseTrackAdmitGrowRelease)
{
    KvAllocator a(AllocatorKind::LazyChunk, 64_GiB, kBpt, kTmax, 1_MiB);
    EXPECT_EQ(a.chunksInUse(), 0u);
    ASSERT_TRUE(a.tryAdmit(0, 64)); // 32 MiB -> 32 chunks
    EXPECT_EQ(a.chunksInUse(), 32u);
    ASSERT_TRUE(a.grow(0, 100)); // 50 chunks
    EXPECT_EQ(a.chunksInUse(), 50u);
    ASSERT_TRUE(a.tryAdmit(1, 2));
    EXPECT_EQ(a.chunksInUse(), 51u);
    a.release(0);
    EXPECT_EQ(a.chunksInUse(), 1u);
}

TEST(LazyAllocator, CapacityNotMultipleOfChunkSize)
{
    // 2.5 MiB of capacity holds only floor(2.5) = 2 whole chunks;
    // the 0.5 MiB tail is unmappable and must not admit work.
    KvAllocator a(AllocatorKind::LazyChunk, 2_MiB + 512 * 1024, kBpt, kTmax,
                  1_MiB);
    ASSERT_TRUE(a.tryAdmit(0, 2));
    ASSERT_TRUE(a.tryAdmit(1, 2));
    EXPECT_EQ(a.chunksInUse(), 2u);
    EXPECT_FALSE(a.tryAdmit(2, 1)); // tail is not a chunk
    EXPECT_FALSE(a.grow(0, 3));
    a.release(1);
    // A request needing 3 chunks can never fit in 2.
    EXPECT_FALSE(a.tryAdmit(3, 5));
    EXPECT_TRUE(a.tryAdmit(4, 2));
}

TEST(LazyAllocator, GrowPastCapacityRejectedWithoutSideEffects)
{
    KvAllocator a(AllocatorKind::LazyChunk, 2_MiB, kBpt, kTmax, 1_MiB);
    ASSERT_TRUE(a.tryAdmit(0, 4)); // both chunks
    Bytes reserved = a.reservedBytes();
    Bytes used = a.usedBytes();
    std::uint64_t host = a.hostInterventions();
    // A failed grow must leave every book untouched: the request
    // keeps its old token count and no chunk leaks.
    EXPECT_FALSE(a.grow(0, 5));
    EXPECT_EQ(a.reservedBytes(), reserved);
    EXPECT_EQ(a.usedBytes(), used);
    EXPECT_EQ(a.hostInterventions(), host);
    EXPECT_EQ(a.chunksInUse(), 2u);
    // And the request is still live and releasable afterwards.
    a.release(0);
    EXPECT_EQ(a.chunksInUse(), 0u);
}

TEST(LazyAllocator, DoubleReleasePanics)
{
    KvAllocator a(AllocatorKind::LazyChunk, 64_GiB, kBpt, kTmax, 1_MiB);
    ASSERT_TRUE(a.tryAdmit(0, 4));
    a.release(0);
    EXPECT_DEATH(a.release(0), "release on unknown request");
}

TEST(LazyAllocator, ChunksForRoundsAtChunkBoundaries)
{
    KvAllocator a(AllocatorKind::LazyChunk, 64_GiB, kBpt, kTmax, 1_MiB);
    // 512 KiB per token -> 2 tokens per 1 MiB chunk, exactly.
    EXPECT_EQ(a.chunksFor(0), 0u);
    EXPECT_EQ(a.chunksFor(1), 1u); // half a chunk still claims one
    EXPECT_EQ(a.chunksFor(2), 1u); // exactly one chunk
    EXPECT_EQ(a.chunksFor(3), 2u); // one byte over the boundary
    EXPECT_EQ(a.chunksFor(4), 2u);
    EXPECT_EQ(a.chunksFor(2047), 1024u);
    EXPECT_EQ(a.chunksFor(2048), 1024u);
    EXPECT_EQ(a.chunksFor(2049), 1025u);
}

TEST(LazyAllocator, ChunksForOddBytesPerToken)
{
    // 3 tokens never tile a 1 MiB chunk evenly (384 KiB per token):
    // the rounding must stay ceil(bytes / chunk), not tokens-based.
    KvAllocator a(AllocatorKind::LazyChunk, 64_GiB, 384 * 1024, kTmax, 1_MiB);
    EXPECT_EQ(a.chunksFor(1), 1u);
    EXPECT_EQ(a.chunksFor(2), 1u); // 768 KiB
    EXPECT_EQ(a.chunksFor(3), 2u); // 1.125 MiB
    EXPECT_EQ(a.chunksFor(8), 3u); // 3 MiB exactly
    EXPECT_EQ(a.chunksFor(9), 4u);
}

TEST(Allocator, KindSelectsTheChunk)
{
    KvAllocator st(AllocatorKind::Static, 1_GiB, kBpt, kTmax);
    KvAllocator lz(AllocatorKind::LazyChunk, 1_GiB, kBpt, kTmax);
    EXPECT_EQ(st.chunkBytes(), kBpt * kTmax);
    EXPECT_EQ(lz.chunkBytes(), 1_MiB);
    EXPECT_FALSE(st.tryAdmit(0, 1)); // 16 GiB reservation > 1 GiB
    EXPECT_TRUE(lz.tryAdmit(0, 1));
}

TEST(StaticAllocator, EmptyContextStillReservesTmax)
{
    KvAllocator a(AllocatorKind::Static, 64_GiB, kBpt, kTmax);
    ASSERT_TRUE(a.tryAdmit(0, 0));
    EXPECT_EQ(a.reservedBytes(), kBpt * kTmax);
    EXPECT_EQ(a.usedBytes(), 0u);
    EXPECT_TRUE(a.grow(0, 1));
    EXPECT_EQ(a.reservedBytes(), kBpt * kTmax);
}

// A zero chunk must reach the fatal, not divide the capacity by zero.
TEST(AllocatorDeathTest, ZeroLazyChunkIsFatalNamingTheChunkSize)
{
    EXPECT_DEATH(KvAllocator(AllocatorKind::LazyChunk, 1_GiB, 1024, 4096, 0),
                 "chunk size must be positive \\(chunk_bytes\\)");
}

TEST(AllocatorDeathTest, ZeroStaticReservationIsFatalNamingTheChunkSize)
{
    const char *message =
        "chunk size must be positive \\(bytes_per_token x t_max\\)";
    EXPECT_DEATH(KvAllocator(AllocatorKind::Static, 1_GiB, 0, 4096), message);
    EXPECT_DEATH(KvAllocator(AllocatorKind::Static, 1_GiB, 1024, 0),
                 message);
}

/**
 * Test-local reference books, written from the two schemes' rules
 * rather than from chunks: Static reserves T_max per live request and
 * refuses a request beyond T_max; LazyChunk maps ceil(bytes / chunk)
 * chunks and touches the host only when it maps new ones.
 */
class ReferenceBooks
{
  public:
    ReferenceBooks(AllocatorKind kind, Bytes capacity, Bytes bpt,
                   Tokens t_max, Bytes chunk)
        : kind_(kind), capacity_(capacity), bpt_(bpt), tMax_(t_max),
          chunk_(chunk)
    {
    }

    bool
    admit(RequestId id, Tokens tokens)
    {
        if (kind_ == AllocatorKind::Static) {
            if (tokens > tMax_ ||
                (live_.size() + 1) * bpt_ * tMax_ > capacity_)
                return false;
        } else {
            if (mapped_ + chunksFor(tokens) > capacity_ / chunk_)
                return false;
            mapped_ += chunksFor(tokens);
        }
        live_[id] = tokens;
        ++host_;
        return true;
    }

    bool
    grow(RequestId id, Tokens tokens)
    {
        Tokens &held = live_.at(id);
        if (kind_ == AllocatorKind::Static) {
            if (tokens > tMax_)
                return false;
        } else if (chunksFor(tokens) > chunksFor(held)) {
            std::uint64_t extra = chunksFor(tokens) - chunksFor(held);
            if (mapped_ + extra > capacity_ / chunk_)
                return false;
            mapped_ += extra;
            ++host_;
        }
        held = tokens;
        return true;
    }

    void
    release(RequestId id)
    {
        if (kind_ == AllocatorKind::LazyChunk)
            mapped_ -= chunksFor(live_.at(id));
        live_.erase(id);
        ++host_;
    }

    Bytes
    reserved() const
    {
        return kind_ == AllocatorKind::Static ? live_.size() * bpt_ * tMax_
                                              : mapped_ * chunk_;
    }

    Bytes
    used() const
    {
        Bytes bytes = 0;
        for (const auto &[id, tokens] : live_)
            bytes += tokens * bpt_;
        return bytes;
    }

    std::uint64_t host() const { return host_; }
    const std::map<RequestId, Tokens> &live() const { return live_; }

  private:
    std::uint64_t
    chunksFor(Tokens tokens) const
    {
        return (tokens * bpt_ + chunk_ - 1) / chunk_;
    }

    AllocatorKind kind_;
    Bytes capacity_, bpt_;
    Tokens tMax_;
    Bytes chunk_;
    std::map<RequestId, Tokens> live_;
    std::uint64_t mapped_ = 0; ///< LazyChunk's chunks in use
    std::uint64_t host_ = 0;
};

/** Random admit/grow/release sequences under capacity pressure: every
 *  answer and every book equals the reference after every step. */
void
checkAgainstReference(AllocatorKind kind, Bytes capacity, Bytes chunk,
                      std::uint64_t seed)
{
    const Bytes bpt = 3000;
    const Tokens t_max = 64;
    KvAllocator a(kind, capacity, bpt, t_max, chunk);
    ReferenceBooks ref(kind, capacity, bpt, t_max, chunk);
    Rng rng(seed);
    RequestId next = 0;
    std::uint64_t refused_admits = 0, refused_grows = 0;
    for (int step = 0; step < 4000; ++step) {
        std::uint64_t op = rng.uniformInt(0, 9);
        bool got = true, want = true;
        if (op < 4 || ref.live().empty()) {
            auto tokens = static_cast<Tokens>(rng.uniformInt(0, t_max + 8));
            got = a.tryAdmit(next, tokens);
            want = ref.admit(next, tokens);
            refused_admits += want ? 0 : 1;
            ++next;
        } else {
            auto it = ref.live().begin();
            std::advance(it, rng.uniformInt(0, ref.live().size() - 1));
            RequestId id = it->first;
            if (op < 8) {
                Tokens step = static_cast<Tokens>(rng.uniformInt(0, 12));
                Tokens tokens = it->second + step;
                got = a.grow(id, tokens);
                want = ref.grow(id, tokens);
                refused_grows += want ? 0 : 1;
            } else {
                a.release(id);
                ref.release(id);
            }
        }
        ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
        ASSERT_EQ(a.reservedBytes(), ref.reserved()) << "step " << step;
        ASSERT_EQ(a.usedBytes(), ref.used()) << "step " << step;
        ASSERT_EQ(a.hostInterventions(), ref.host()) << "step " << step;
    }
    // The capacities below keep both schemes under pressure, so
    // both refusal paths are taken.
    EXPECT_GT(refused_admits, 100u) << "seed " << seed;
    EXPECT_GT(refused_grows, 10u) << "seed " << seed;
}

TEST(StaticAllocator, RandomSequencesMatchTheReference)
{
    const Bytes reservation = 3000 * 64;
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        checkAgainstReference(AllocatorKind::Static,
                              5 * reservation + reservation / 2, 0, seed);
}

TEST(LazyAllocator, RandomSequencesMatchTheReference)
{
    const Bytes chunk = 8192;
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        checkAgainstReference(AllocatorKind::LazyChunk, 60 * chunk + 100,
                              chunk, seed);
}

} // namespace
} // namespace pimphony
