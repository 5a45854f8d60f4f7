/**
 * @file
 * Allocator tests: static T_max reservations vs DPA lazy chunks --
 * admission, growth, fragmentation bounds, utilization accounting,
 * and host-interaction counting.
 */

#include <gtest/gtest.h>

#include "alloc/kv_allocator.hh"

namespace pimphony {
namespace {

constexpr Bytes kBpt = 512 * 1024; // 7B MHA: 512 KiB per token
constexpr Tokens kTmax = 32768;

TEST(StaticAllocator, ReservesTmaxRegardlessOfContext)
{
    StaticKvAllocator a(64_GiB, kBpt, kTmax);
    ASSERT_TRUE(a.tryAdmit(0, 1000));
    EXPECT_EQ(a.reservedBytes(), kBpt * kTmax); // 16 GiB
    EXPECT_EQ(a.usedBytes(), kBpt * 1000);
    EXPECT_LT(a.capacityUtilization(), 0.01);
}

TEST(StaticAllocator, AdmissionBoundedByWorstCase)
{
    StaticKvAllocator a(64_GiB, kBpt, kTmax);
    // 64 GiB / 16 GiB reservations = 4 requests, however short.
    for (RequestId id = 0; id < 4; ++id)
        EXPECT_TRUE(a.tryAdmit(id, 100));
    EXPECT_FALSE(a.tryAdmit(99, 100));
}

TEST(StaticAllocator, GrowNeverFailsWithinTmax)
{
    StaticKvAllocator a(64_GiB, kBpt, kTmax);
    ASSERT_TRUE(a.tryAdmit(0, 100));
    std::uint64_t host_before = a.hostInterventions();
    EXPECT_TRUE(a.grow(0, kTmax));
    EXPECT_FALSE(a.grow(0, kTmax + 1));
    // Growth inside the reservation involves no host message.
    EXPECT_EQ(a.hostInterventions(), host_before);
}

TEST(StaticAllocator, ReleaseReturnsReservation)
{
    StaticKvAllocator a(32_GiB, kBpt, kTmax);
    ASSERT_TRUE(a.tryAdmit(0, 100));
    ASSERT_TRUE(a.tryAdmit(1, 100));
    EXPECT_FALSE(a.tryAdmit(2, 100));
    a.release(0);
    EXPECT_TRUE(a.tryAdmit(2, 100));
}

TEST(StaticAllocator, RejectsBeyondTmax)
{
    StaticKvAllocator a(64_GiB, kBpt, kTmax);
    EXPECT_FALSE(a.tryAdmit(0, kTmax + 1));
}

TEST(LazyAllocator, AllocatesOnlyWhatIsNeeded)
{
    LazyChunkAllocator a(64_GiB, kBpt, kTmax);
    ASSERT_TRUE(a.tryAdmit(0, 1000));
    Bytes actual = kBpt * 1000;
    EXPECT_GE(a.reservedBytes(), actual);
    // Fragmentation bounded by one chunk.
    EXPECT_LT(a.reservedBytes(), actual + a.chunkBytes());
}

TEST(LazyAllocator, AdmitsManyMoreShortRequests)
{
    StaticKvAllocator st(64_GiB, kBpt, kTmax);
    LazyChunkAllocator lz(64_GiB, kBpt, kTmax);
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
    LazyChunkAllocator a(64_GiB, kBpt, kTmax, 1_MiB);
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
    LazyChunkAllocator a(2_MiB, kBpt, kTmax, 1_MiB);
    ASSERT_TRUE(a.tryAdmit(0, 2));
    ASSERT_TRUE(a.tryAdmit(1, 2));
    EXPECT_FALSE(a.grow(0, 3));
    a.release(1);
    EXPECT_TRUE(a.grow(0, 3));
}

TEST(LazyAllocator, FragmentationBoundOverManyRequests)
{
    LazyChunkAllocator a(64_GiB, kBpt, kTmax, 1_MiB);
    for (RequestId id = 0; id < 32; ++id)
        ASSERT_TRUE(a.tryAdmit(id, 1 + id * 7 % 50));
    // Internal fragmentation <= one chunk per request (paper claim).
    EXPECT_LE(a.reservedBytes() - a.usedBytes(), 32u * a.chunkBytes());
}

TEST(LazyAllocator, Va2PaBytesTrackChunks)
{
    LazyChunkAllocator a(64_GiB, kBpt, kTmax, 1_MiB);
    ASSERT_TRUE(a.tryAdmit(0, 64)); // 32 MiB -> 32 chunks
    EXPECT_EQ(a.va2paBytes(), 32u * 8u);
}

TEST(LazyAllocator, GrowExactlyAtChunkBoundary)
{
    LazyChunkAllocator a(64_GiB, kBpt, kTmax, 1_MiB);
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
    LazyChunkAllocator a(4_MiB, kBpt, kTmax, 1_MiB);
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

TEST(LazyAllocator, Va2PaBytesTrackChunksInUseThroughout)
{
    LazyChunkAllocator a(64_GiB, kBpt, kTmax, 1_MiB);
    EXPECT_EQ(a.va2paBytes(), 0u);
    ASSERT_TRUE(a.tryAdmit(0, 64)); // 32 chunks
    EXPECT_EQ(a.va2paBytes(), a.chunksInUse() * 8);
    ASSERT_TRUE(a.grow(0, 100)); // 50 chunks
    EXPECT_EQ(a.chunksInUse(), 50u);
    EXPECT_EQ(a.va2paBytes(), a.chunksInUse() * 8);
    ASSERT_TRUE(a.tryAdmit(1, 2));
    EXPECT_EQ(a.va2paBytes(), a.chunksInUse() * 8);
    a.release(0);
    EXPECT_EQ(a.chunksInUse(), 1u);
    EXPECT_EQ(a.va2paBytes(), 8u);
}

TEST(LazyAllocator, CapacityNotMultipleOfChunkSize)
{
    // 2.5 MiB of capacity holds only floor(2.5) = 2 whole chunks;
    // the 0.5 MiB tail is unmappable and must not admit work.
    LazyChunkAllocator a(2_MiB + 512 * 1024, kBpt, kTmax, 1_MiB);
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
    LazyChunkAllocator a(2_MiB, kBpt, kTmax, 1_MiB);
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
    LazyChunkAllocator a(64_GiB, kBpt, kTmax, 1_MiB);
    ASSERT_TRUE(a.tryAdmit(0, 4));
    a.release(0);
    EXPECT_DEATH(a.release(0), "release on unknown request");
}

TEST(LazyAllocator, ChunksForRoundsAtChunkBoundaries)
{
    LazyChunkAllocator a(64_GiB, kBpt, kTmax, 1_MiB);
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
    LazyChunkAllocator a(64_GiB, 384 * 1024, kTmax, 1_MiB);
    EXPECT_EQ(a.chunksFor(1), 1u);
    EXPECT_EQ(a.chunksFor(2), 1u); // 768 KiB
    EXPECT_EQ(a.chunksFor(3), 2u); // 1.125 MiB
    EXPECT_EQ(a.chunksFor(8), 3u); // 3 MiB exactly
    EXPECT_EQ(a.chunksFor(9), 4u);
}

TEST(Allocator, Factory)
{
    auto st = makeAllocator(AllocatorKind::Static, 1_GiB, kBpt, kTmax);
    auto lz = makeAllocator(AllocatorKind::LazyChunk, 1_GiB, kBpt, kTmax);
    EXPECT_TRUE(st->tryAdmit(0, 1) == false); // 16 GiB reservation > 1 GiB
    EXPECT_TRUE(lz->tryAdmit(0, 1));
}

} // namespace
} // namespace pimphony
