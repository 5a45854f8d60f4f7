/**
 * @file
 * Tests for closed-loop multi-turn sessions: a successor turn is
 * released only after its predecessor completes (plus think time),
 * rejected predecessors keep the rest of their session unreleased,
 * the whole pipeline (build -> save -> load -> run) is deterministic
 * bit for bit, and the fleet keeps every session on one replica.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "result_eq.hh"
#include "system/engine.hh"
#include "system/fleet.hh"
#include "workload/replay.hh"
#include "workload/spec.hh"

namespace pimphony {
namespace {

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
testEngineOptions()
{
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    return opts;
}

BuiltWorkload
sessionWorkload(std::size_t n_sessions, unsigned turns,
                std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.count = n_sessions;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{2000, 16}, {4000, 16}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 8.0;
    spec.session.turns = turns;
    spec.session.thinkMeanSeconds = 0.2;
    return buildWorkload(spec, seed);
}

EngineResult
runWithSessions(const ClusterConfig &cluster, const LlmConfig &model,
                const BuiltWorkload &built)
{
    ServingEngine engine(cluster, model, built.initial,
                         testEngineOptions());
    engine.declareSessionTurns(built.sessions);
    return engine.run();
}

// --- Turn release ordering. --------------------------------------------

TEST(Sessions, SuccessorCompletesAfterPredecessorPlusThink)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(6, 3, 17);
    auto r = runWithSessions(cluster, model, built);

    // Every turn of every session completes: 6 sessions x 3 turns.
    EXPECT_EQ(r.completedRequests, 18u);
    EXPECT_EQ(r.rejectedRequests, 0u);
    ASSERT_EQ(r.completionSeconds.size(), 18u);

    // The successor arrives at completion(pred) + think, so its own
    // completion is strictly later than that release time.
    for (const auto &kv : built.sessions) {
        auto pred = r.completionSeconds.find(kv.first);
        auto succ = r.completionSeconds.find(kv.second.request.id);
        ASSERT_NE(pred, r.completionSeconds.end()) << kv.first;
        ASSERT_NE(succ, r.completionSeconds.end())
            << kv.second.request.id;
        EXPECT_GT(succ->second,
                  pred->second + kv.second.thinkSeconds)
            << "turn " << kv.second.request.turn << " of session "
            << kv.second.request.session;
    }
}

TEST(Sessions, RejectedPredecessorKeepsSessionUnreleased)
{
    auto model = testModel();
    auto cluster = testCluster(model);

    // Turn 0 can never fit (context far beyond KV capacity), so the
    // successor the user would have typed after its answer never
    // arrives.
    Request head(0, 100000000, 16);
    head.session = 1;
    head.turn = 0;
    Request next(1, 2000, 16);
    next.session = 1;
    next.turn = 1;
    BuiltWorkload built;
    built.initial = {{head, 0.0}};
    built.sessions.emplace(0, SessionTurn{next, 0.1});

    auto r = runWithSessions(cluster, model, built);
    EXPECT_EQ(r.rejectedRequests, 1u);
    EXPECT_EQ(r.completedRequests, 0u);
    EXPECT_TRUE(r.completionSeconds.empty());
    EXPECT_EQ(r.firstTokenLatency.count(1), 0u);
}

// --- Determinism. ------------------------------------------------------

TEST(Sessions, RunTwiceIsBitIdentical)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(6, 3, 21);
    auto a = runWithSessions(cluster, model, built);
    auto b = runWithSessions(cluster, model, built);
    ASSERT_GT(a.completedRequests, 0u);
    expectSameResult(a, b);
}

TEST(Sessions, TraceSaveLoadRunIsBitIdentical)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(5, 2, 23);

    const char *path = "SESSION_TRACE_TEST.tmp";
    saveWorkload(path, built);
    BuiltWorkload loaded = loadWorkload(path);
    std::remove(path);

    auto generated = runWithSessions(cluster, model, built);
    auto replayed = runWithSessions(cluster, model, loaded);
    ASSERT_GT(generated.completedRequests, 0u);
    expectSameResult(generated, replayed);
}

// --- Fleet integration: session affinity. ------------------------------

TEST(Sessions, OneReplicaFleetMatchesBareEngine)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(6, 3, 29);

    auto bare = runWithSessions(cluster, model, built);

    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.dispatchLatencySeconds = 0.0;
    fopts.engine = testEngineOptions();
    FleetEngine fleet(cluster, model, built.initial, fopts);
    fleet.setSessions(built.sessions);
    auto out = fleet.run();

    ASSERT_EQ(out.replicas.size(), 1u);
    ASSERT_EQ(out.routedSessions.size(), 1u);
    EXPECT_EQ(out.routedSessions[0], 6u);
    expectSameResult(out.replicas[0], bare);
    expectSameResult(out.aggregate, bare);
}

TEST(Sessions, FleetKeepsEverySessionOnOneReplica)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(8, 3, 31);

    for (RoutePolicy policy :
         {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded}) {
        FleetOptions fopts;
        fopts.replicas = 3;
        fopts.policy = policy;
        fopts.dispatchLatencySeconds = 0.004;
        fopts.engine = testEngineOptions();
        FleetEngine fleet(cluster, model, built.initial, fopts);
        fleet.setSessions(built.sessions);
        auto out = fleet.run();

        // All 8 x 3 turns complete, and the distinct-session pin
        // counts account for every session exactly once.
        EXPECT_EQ(out.aggregate.completedRequests, 24u);
        std::uint64_t pinned = 0;
        for (std::uint64_t n : out.routedSessions)
            pinned += n;
        EXPECT_EQ(pinned, 8u);

        // A successor turn always completes on the replica where its
        // predecessor completed (the closed-loop release fires
        // locally), so sessions never straddle replicas.
        for (const auto &kv : built.sessions) {
            int pred_replica = -1, succ_replica = -1;
            for (std::size_t i = 0; i < out.replicas.size(); ++i) {
                if (out.replicas[i].completionSeconds.count(kv.first))
                    pred_replica = static_cast<int>(i);
                if (out.replicas[i].completionSeconds.count(
                        kv.second.request.id))
                    succ_replica = static_cast<int>(i);
            }
            ASSERT_GE(pred_replica, 0) << kv.first;
            EXPECT_EQ(pred_replica, succ_replica)
                << "session " << kv.second.request.session;
        }
    }
}

// --- Declaring the book: adoption, accumulation, immutability. --------

/** @p book split by predecessor-id parity into two disjoint halves. */
std::pair<SessionBook, SessionBook>
splitBook(const SessionBook &book)
{
    std::pair<SessionBook, SessionBook> halves;
    for (const auto &kv : book)
        (kv.first % 2 ? halves.second : halves.first).insert(kv);
    return halves;
}

TEST(Sessions, SharedBookMatchesCopiedBook)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(6, 3, 37);

    auto copied = runWithSessions(cluster, model, built);
    auto book = std::make_shared<const SessionBook>(built.sessions);
    ServingEngine engine(cluster, model, built.initial,
                         testEngineOptions());
    engine.declareSessionTurns(book);
    auto shared = engine.run();
    ASSERT_EQ(copied.completedRequests, 18u);
    expectSameResult(copied, shared);

    // The engine only reads the book: after the run every entry is
    // still there, unchanged, including the turns that fired.
    ASSERT_EQ(book->size(), built.sessions.size());
    for (const auto &kv : built.sessions) {
        const SessionTurn &after = book->at(kv.first);
        EXPECT_EQ(after.request.id, kv.second.request.id);
        EXPECT_EQ(after.request.contextTokens,
                  kv.second.request.contextTokens);
        EXPECT_EQ(after.thinkSeconds, kv.second.thinkSeconds);
    }
}

TEST(Sessions, TwoDeclarationsEqualTheirUnion)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(6, 3, 41);
    auto halves = splitBook(built.sessions);
    ASSERT_FALSE(halves.first.empty());
    ASSERT_FALSE(halves.second.empty());

    auto whole = runWithSessions(cluster, model, built);
    ServingEngine engine(cluster, model, built.initial,
                         testEngineOptions());
    engine.declareSessionTurns(halves.first);
    engine.declareSessionTurns(halves.second);
    auto split = engine.run();
    ASSERT_EQ(whole.completedRequests, 18u);
    expectSameResult(whole, split);
}

TEST(Sessions, FleetTwoSetSessionsEqualTheirUnion)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(8, 3, 43);
    auto halves = splitBook(built.sessions);

    auto run = [&](const std::vector<const SessionBook *> &books) {
        FleetOptions fopts;
        fopts.replicas = 3;
        fopts.policy = RoutePolicy::LeastLoaded;
        fopts.dispatchLatencySeconds = 0.004;
        fopts.engine = testEngineOptions();
        FleetEngine fleet(cluster, model, built.initial, fopts);
        for (const SessionBook *book : books)
            fleet.setSessions(*book);
        return fleet.run();
    };
    auto whole = run({&built.sessions});
    auto split = run({&halves.first, &halves.second});

    EXPECT_EQ(whole.aggregate.completedRequests, 24u);
    EXPECT_EQ(split.goodputTokens, whole.goodputTokens);
    ASSERT_EQ(split.replicas.size(), whole.replicas.size());
    for (std::size_t i = 0; i < whole.replicas.size(); ++i)
        expectSameResult(split.replicas[i], whole.replicas[i]);
    expectSameResult(split.aggregate, whole.aggregate);
}

// --- A session book with classes. --------------------------------------

/**
 * 8 four-turn sessions over two tiers and two budgeted tenants. Within
 * a tier the sessions alternate between two gap targets, the lower
 * one on the tier's lowest session, so the tier's target names the
 * book entry the declaration scan saw first.
 */
BuiltWorkload
classedSessionWorkload()
{
    WorkloadSpec spec;
    spec.count = 8;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{2000, 16}, {4000, 16}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 8.0;
    spec.session.turns = 4;
    spec.session.thinkMeanSeconds = 0.2;
    const double targets[] = {0.04, 0.4, 0.06, 0.6};
    for (unsigned i = 0; i < 4; ++i) {
        RequestClass cls;
        cls.tier = i % 2;
        cls.gapSloSeconds = targets[i];
        cls.tenant = (i / 2) % 2;
        spec.classes.push_back(cls);
    }
    return buildWorkload(spec, 53);
}

EngineOptions
classedEngineOptions()
{
    EngineOptions opts = testEngineOptions();
    opts.sched.kind = SchedPolicyKind::SloAdmission;
    opts.tenantBudgets = {{0, 0.5}, {1, 0.5}};
    return opts;
}

TEST(Sessions, ClassedBookFirstTargetIsTheLowestKeys)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = classedSessionWorkload();
    ASSERT_EQ(built.sessions.size(), 24u);

    // Declared alone, the book fixes each tier's target from its
    // lowest predecessor id: session 0 (key 0) for tier 0, session 1
    // (key 4) for tier 1. The later sessions of each tier carry the
    // other target.
    ServingEngine engine(cluster, model, std::vector<TimedRequest>{},
                         classedEngineOptions());
    engine.declareSessionTurns(built.sessions);
    auto r = engine.run();
    ASSERT_EQ(r.classLatencies.size(), 2u);
    EXPECT_EQ(r.classLatencies[0].tier, 0u);
    EXPECT_EQ(r.classLatencies[0].gapSloTargetSeconds, 0.04);
    EXPECT_EQ(r.classLatencies[1].tier, 1u);
    EXPECT_EQ(r.classLatencies[1].gapSloTargetSeconds, 0.4);
    ASSERT_EQ(r.tenantOccupancy.size(), 2u);
}

TEST(Sessions, ClassedBookInHalvesEqualsWholeAndOneReplicaFleet)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = classedSessionWorkload();
    auto halves = splitBook(built.sessions);

    ServingEngine whole_engine(cluster, model, built.initial,
                               classedEngineOptions());
    whole_engine.declareSessionTurns(built.sessions);
    auto whole = whole_engine.run();
    ASSERT_EQ(whole.completedRequests, 32u);
    ASSERT_EQ(whole.classLatencies.size(), 2u);
    EXPECT_EQ(whole.classLatencies[0].requests +
                  whole.classLatencies[1].requests,
              32u);

    ServingEngine split_engine(cluster, model, built.initial,
                               classedEngineOptions());
    split_engine.declareSessionTurns(halves.first);
    split_engine.declareSessionTurns(halves.second);
    expectSameResult(split_engine.run(), whole);

    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.dispatchLatencySeconds = 0.0;
    fopts.engine = classedEngineOptions();
    FleetEngine fleet(cluster, model, built.initial, fopts);
    fleet.setSessions(built.sessions);
    auto fr = fleet.run();
    ASSERT_EQ(fr.replicas.size(), 1u);
    expectSameResult(fr.replicas[0], whole);
}

TEST(SessionsDeathTest, DuplicatePredecessorAcrossDeclarationsIsFatal)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(2, 2, 47);
    ASSERT_FALSE(built.sessions.empty());
    SessionBook again;
    again.insert(*built.sessions.begin());

    auto engine_twice = [&]() {
        ServingEngine engine(cluster, model, built.initial,
                             testEngineOptions());
        engine.declareSessionTurns(built.sessions);
        engine.declareSessionTurns(again);
    };
    auto fleet_twice = [&]() {
        FleetEngine fleet(cluster, model, built.initial, FleetOptions{});
        fleet.setSessions(built.sessions);
        fleet.setSessions(again);
    };
    EXPECT_DEATH(engine_twice(), "already has a declared successor");
    EXPECT_DEATH(fleet_twice(), "already has a declared successor");
}

TEST(SessionsDeathTest, NegativeOrNaNThinkTimeIsFatal)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(2, 2, 59);
    for (double think : {-1.0, std::nan("")}) {
        SessionBook book = built.sessions;
        book.begin()->second.thinkSeconds = think;
        ServingEngine engine(cluster, model, built.initial,
                             testEngineOptions());
        EXPECT_DEATH(engine.declareSessionTurns(book),
                     "session think times must be nonnegative");
    }
}

} // namespace
} // namespace pimphony
