/**
 * @file
 * The one EngineResult and FleetResult comparison surface of the
 * test suite: field-by-field bit equality over every deterministic
 * metric (everything the simulation computes; no field reads a wall
 * clock).
 *
 * The sample stores (requestLatencyRuns, firstTokenRuns,
 * tokenGapRuns) are compared through their summaries, the avg / p95
 * / sample-count fields: a fleet replica hands its stores to the
 * aggregate, and a percentile reorders a store's runs without
 * changing its contents.
 *
 * The per-request tables (firstTokenLatency, completionSeconds) are
 * compared entry by entry, and read through timeOf().
 *
 * It also holds the fleet's token-ledger oracles: the ledger
 * identity, and goodput recomputed from the per-replica completions;
 * and extendOneSession(), the book edit that shows a declared
 * session book is unaffected by later writes to the caller's copy.
 */

#ifndef PIMPHONY_TESTS_RESULT_EQ_HH
#define PIMPHONY_TESTS_RESULT_EQ_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "energy/energy.hh"
#include "system/engine.hh"
#include "system/fleet.hh"
#include "workload/arrival.hh"
#include "workload/session.hh"

namespace pimphony {

inline void
expectSameEnergy(const EnergyBreakdown &a, const EnergyBreakdown &b)
{
    EXPECT_EQ(a.mac, b.mac);
    EXPECT_EQ(a.io, b.io);
    EXPECT_EQ(a.background, b.background);
    EXPECT_EQ(a.actPre, b.actPre);
    EXPECT_EQ(a.refreshE, b.refreshE);
    EXPECT_EQ(a.elseE, b.elseE);
}

/** @p id's time in @p table; a test failure, and NaN, if absent. */
inline double
timeOf(const RequestTimes &table, RequestId id)
{
    auto it = table.find(id);
    if (it == table.end()) {
        ADD_FAILURE() << "request " << id << " has no entry";
        return std::numeric_limits<double>::quiet_NaN();
    }
    return it->second;
}

/** Same ids in the same order, with bit-equal times. */
inline void
expectSameTimes(const RequestTimes &a, const RequestTimes &b)
{
    ASSERT_EQ(a.size(), b.size());
    auto ib = b.begin();
    for (auto ia = a.begin(); ia != a.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second, ib->second) << "request " << ia->first;
    }
}

inline void
expectSameResult(const EngineResult &a, const EngineResult &b)
{
    EXPECT_EQ(a.tokensPerSecond, b.tokensPerSecond);
    EXPECT_EQ(a.simulatedSeconds, b.simulatedSeconds);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.rejectedRequests, b.rejectedRequests);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.recomputedTokens, b.recomputedTokens);
    EXPECT_EQ(a.goodputTokens, b.goodputTokens);
    EXPECT_EQ(a.avgEffectiveBatch, b.avgEffectiveBatch);
    EXPECT_EQ(a.macUtilization, b.macUtilization);
    EXPECT_EQ(a.capacityUtilization, b.capacityUtilization);
    EXPECT_EQ(a.attentionSeconds, b.attentionSeconds);
    EXPECT_EQ(a.fcSeconds, b.fcSeconds);
    expectSameEnergy(a.attentionEnergy, b.attentionEnergy);
    expectSameEnergy(a.fcEnergy, b.fcEnergy);
    EXPECT_EQ(a.prefillSeconds, b.prefillSeconds);

    EXPECT_EQ(a.avgRequestLatency, b.avgRequestLatency);
    EXPECT_EQ(a.p95RequestLatency, b.p95RequestLatency);
    EXPECT_EQ(a.avgFirstTokenSeconds, b.avgFirstTokenSeconds);
    EXPECT_EQ(a.p95FirstTokenSeconds, b.p95FirstTokenSeconds);
    EXPECT_EQ(a.avgTokenGapSeconds, b.avgTokenGapSeconds);
    EXPECT_EQ(a.p95TokenGapSeconds, b.p95TokenGapSeconds);
    EXPECT_EQ(a.tokenGapSamples, b.tokenGapSamples);
    expectSameTimes(a.firstTokenLatency, b.firstTokenLatency);
    expectSameTimes(a.completionSeconds, b.completionSeconds);

    EXPECT_EQ(a.sloDeferrals, b.sloDeferrals);
    EXPECT_EQ(a.chunkSlices, b.chunkSlices);
    EXPECT_EQ(a.decodeOvertakes, b.decodeOvertakes);
    EXPECT_EQ(a.maxDecodeXpuWaitSeconds, b.maxDecodeXpuWaitSeconds);
    EXPECT_EQ(a.xpuPrefillBusySeconds, b.xpuPrefillBusySeconds);
    EXPECT_EQ(a.xpuFcBusySeconds, b.xpuFcBusySeconds);
    EXPECT_EQ(a.fusedFcShares, b.fusedFcShares);
    EXPECT_EQ(a.simEvents, b.simEvents);

    ASSERT_EQ(a.classLatencies.size(), b.classLatencies.size());
    for (std::size_t i = 0; i < a.classLatencies.size(); ++i) {
        const auto &ca = a.classLatencies[i];
        const auto &cb = b.classLatencies[i];
        EXPECT_EQ(ca.tier, cb.tier);
        EXPECT_EQ(ca.gapSloTargetSeconds, cb.gapSloTargetSeconds);
        EXPECT_EQ(ca.requests, cb.requests);
        EXPECT_EQ(ca.completedRequests, cb.completedRequests);
        EXPECT_EQ(ca.avgFirstTokenSeconds, cb.avgFirstTokenSeconds);
        EXPECT_EQ(ca.p95FirstTokenSeconds, cb.p95FirstTokenSeconds);
        EXPECT_EQ(ca.avgTokenGapSeconds, cb.avgTokenGapSeconds);
        EXPECT_EQ(ca.p95TokenGapSeconds, cb.p95TokenGapSeconds);
        EXPECT_EQ(ca.tokenGapSamples, cb.tokenGapSamples);
        EXPECT_EQ(ca.ttftSamples, cb.ttftSamples);
    }
    ASSERT_EQ(a.tenantOccupancy.size(), b.tenantOccupancy.size());
    for (std::size_t i = 0; i < a.tenantOccupancy.size(); ++i) {
        const auto &ta = a.tenantOccupancy[i];
        const auto &tb = b.tenantOccupancy[i];
        EXPECT_EQ(ta.tenant, tb.tenant);
        EXPECT_EQ(ta.budgetShare, tb.budgetShare);
        EXPECT_EQ(ta.avgTokenShare, tb.avgTokenShare);
        EXPECT_EQ(ta.peakTokenShare, tb.peakTokenShare);
        EXPECT_EQ(ta.admittedRequests, tb.admittedRequests);
        EXPECT_EQ(ta.budgetDeferrals, tb.budgetDeferrals);
    }
    EXPECT_EQ(a.budgetDeferrals, b.budgetDeferrals);
    EXPECT_EQ(a.decodePreemptSlices, b.decodePreemptSlices);

    EXPECT_EQ(a.prefixHits, b.prefixHits);
    EXPECT_EQ(a.prefixMisses, b.prefixMisses);
    EXPECT_EQ(a.prefixEvictions, b.prefixEvictions);
    EXPECT_EQ(a.prefixHitRate, b.prefixHitRate);
    EXPECT_EQ(a.prefixCachedTokens, b.prefixCachedTokens);
    EXPECT_EQ(a.savedPrefillSeconds, b.savedPrefillSeconds);
    EXPECT_EQ(a.sharedKvPeakBytes, b.sharedKvPeakBytes);
    EXPECT_EQ(a.uniqueKvPeakBytes, b.uniqueKvPeakBytes);
}

/** Full fleet comparison: routing, window count, per-replica and
 *  aggregate results, and every fault metric. */
inline void
expectSameFleet(const FleetResult &a, const FleetResult &b)
{
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.routedRequests, b.routedRequests);
    EXPECT_EQ(a.routedSessions, b.routedSessions);
    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    for (std::size_t i = 0; i < a.replicas.size(); ++i)
        expectSameResult(a.replicas[i], b.replicas[i]);
    expectSameResult(a.aggregate, b.aggregate);
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.goodputTokens, b.goodputTokens);
    EXPECT_EQ(a.goodputTokensPerSecond, b.goodputTokensPerSecond);
    EXPECT_EQ(a.evacuatedRequests, b.evacuatedRequests);
    EXPECT_EQ(a.retriedRequests, b.retriedRequests);
    EXPECT_EQ(a.lostRequests, b.lostRequests);
    EXPECT_EQ(a.lostTokens, b.lostTokens);
    EXPECT_EQ(a.reloadSeconds, b.reloadSeconds);
    EXPECT_EQ(a.retryHistogram, b.retryHistogram);
}

/** The fleet token ledger: every generated token was delivered,
 *  discarded by a crash, or discarded by a preemption. */
inline void
expectTokenLedgerBalances(const FleetResult &fleet)
{
    EXPECT_EQ(fleet.aggregate.generatedTokens,
              fleet.goodputTokens + fleet.lostTokens +
                  fleet.aggregate.recomputedTokens);
}

/**
 * Goodput as the decode tokens that @p trace or @p book declare for
 * each request some replica completed, summed over every replica's
 * completionSeconds, and the ledger identity.
 */
inline void
expectGoodputIsCompletedDecode(const FleetResult &fleet,
                               const std::vector<TimedRequest> &trace,
                               const SessionBook &book)
{
    std::unordered_map<RequestId, Tokens> decode_of;
    for (const TimedRequest &timed : trace)
        decode_of[timed.request.id] = timed.request.decodeTokens;
    for (const auto &kv : book)
        decode_of[kv.second.request.id] = kv.second.request.decodeTokens;
    std::uint64_t goodput = 0;
    for (const EngineResult &r : fleet.replicas)
        for (const auto &kv : r.completionSeconds)
            goodput += decode_of.at(kv.first);
    EXPECT_EQ(fleet.goodputTokens, goodput);
    EXPECT_EQ(fleet.aggregate.goodputTokens, goodput);
    expectTokenLedgerBalances(fleet);
}

/**
 * Emplace into @p book one more turn after the last turn of the
 * session whose turn 1 has the largest key, under a request id no
 * request of @p trace or @p book uses. A run that sees the edit
 * completes one request more than one that does not.
 */
inline void
extendOneSession(SessionBook &book, const std::vector<TimedRequest> &trace)
{
    ASSERT_FALSE(book.empty());
    RequestId fresh = 0;
    for (const TimedRequest &timed : trace)
        fresh = std::max<RequestId>(fresh, timed.request.id + 1);
    for (const auto &kv : book)
        fresh = std::max<RequestId>(fresh, kv.second.request.id + 1);
    Request last = std::prev(book.end())->second.request;
    for (auto it = book.find(last.id); it != book.end();
         it = book.find(last.id))
        last = it->second.request;
    Request next = last;
    next.id = fresh;
    ++next.turn;
    ASSERT_TRUE(book.emplace(last.id, SessionTurn{next, 0.1}).second);
}

} // namespace pimphony

#endif // PIMPHONY_TESTS_RESULT_EQ_HH
