/**
 * @file
 * Declarative workload composition: one WorkloadSpec describes a
 * length source, an arrival process, a class/tenant mix, and an
 * optional multi-turn session model, and one buildWorkload(spec,
 * seed) call turns it into a sorted TimedRequest stream (plus the
 * SessionBook of closed-loop successor turns, when sessions are
 * configured).
 *
 * Determinism contract: the build is a pure function of (spec,
 * seed). The independent random streams (lengths, arrivals, think
 * times, prefixes) are seeded by the public workload*Seed(seed)
 * helpers, so the build is assertable against the hand composition
 * bit for bit: a default spec over a Table II task with Poisson
 * arrivals produces exactly
 *
 *   PoissonProcess arrivals(rate);
 *   attachArrivals(TraceGenerator(task, workloadLengthSeed(s))
 *                      .generate(n, decode),
 *                  arrivals, workloadArrivalSeed(s))
 *
 * — asserted in tests/workload_test.cc for the Poisson, gamma and
 * on/off processes.
 */

#ifndef PIMPHONY_WORKLOAD_SPEC_HH
#define PIMPHONY_WORKLOAD_SPEC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "workload/arrival.hh"
#include "workload/length_source.hh"
#include "workload/request_class.hh"
#include "workload/session.hh"
#include "workload/trace.hh"

namespace pimphony {

/** Where a request's (prompt, output) lengths come from. */
enum class LengthSourceKind {
    /** Table II synthetic task (workload/trace.hh), the default. */
    TableTask,

    /** Explicit (prompt, output) pairs, cycled in order. */
    Pairs,

    /** Empirical weighted histogram, sampled per seed. */
    Histogram,
};

struct LengthSpec
{
    LengthSourceKind kind = LengthSourceKind::TableTask;

    /** TableTask: the Table II task and fixed decode length. */
    TraceTask task = TraceTask::QMSum;
    Tokens decodeTokens = 128;

    /** Pairs: request i draws pairs[i % pairs.size()]. */
    std::vector<LengthPair> pairs;

    /** Histogram: weighted-sampled per draw. */
    LengthHistogram histogram;
};

/** Which arrival process stamps the arrival times. */
enum class ArrivalKind {
    /** Everything at time zero (closed-loop). */
    Immediate,

    Poisson,
    Gamma,
    OnOff,

    /** Inhomogeneous Poisson over a RateCurve (diurnal replay). */
    RateCurve,
};

struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;

    /** Poisson / Gamma: mean arrival rate. */
    double ratePerSecond = 1.0;

    /** Gamma: coefficient of variation of the inter-arrival gaps. */
    double cv = 1.0;

    /** OnOff: the two-state burst parameters. */
    OnOffTraffic onOff;

    /** RateCurve: the piecewise-constant rate profile. */
    RateCurve curve;
};

/**
 * Optional multi-turn session model. With turns > 1 the spec's
 * count becomes a *session* count: each session opens with its
 * turn-0 request at an arrival-process time, and each later turn is
 * released closed-loop (predecessor completion + an exponential
 * think time) through the engine's session machinery. Turn k's
 * prompt length covers the session history: with carryHistory set
 * (the default), context_k = sum over j < k of (prompt_j +
 * output_j) + prompt_k.
 */
struct SessionSpec
{
    /** Turns per session; <= 1 disables the session model. */
    unsigned turns = 1;

    /** Mean exponential user think time between turns (0 = none). */
    double thinkMeanSeconds = 1.0;

    /** Grow each turn's context by the session history. */
    bool carryHistory = true;
};

/**
 * Optional shared-prefix declaration. With share > 0 and tokens > 0,
 * each request (each *session*, under the session model — a shared
 * prefix is a property of the opening prompt) draws from a pool of
 * `pool` distinct prefixes with probability `share` and is stamped
 * with that prefix's hash and length, declaring that its first
 * `tokens` context tokens are identical across the pool member —
 * the "millions of requests opening with the same system prompt"
 * pattern the prefix cache exploits. Requests whose context is
 * shorter than the declared prefix stay unstamped. The default
 * (share = 0) stamps nothing and consumes no randomness, so specs
 * without prefixes build bit-identical workloads to earlier PRs.
 */
struct PrefixSpec
{
    /** Probability a request/session opens with a pooled prefix, in
     *  [0, 1]. */
    double share = 0.0;

    /** Distinct prefixes in the pool. */
    unsigned pool = 1;

    /** Declared shared-prefix length in tokens. */
    Tokens tokens = 0;
};

struct WorkloadSpec
{
    /** Requests to build — or sessions, when session.turns > 1. */
    std::size_t count = 48;

    LengthSpec length;
    ArrivalSpec arrival;

    PrefixSpec prefix;

    /**
     * Class/tenant mix, assigned cyclically (request — or session —
     * i gets classes[i % classes.size()]; every turn of a session
     * shares its class). Empty = the default class everywhere.
     */
    std::vector<RequestClass> classes;

    SessionSpec session;

    /** Fatal, naming the field, on any bad value; the arrival process
     *  makeArrivalProcess() builds checks its own. */
    void validate() const;
};

/** A built workload: the open-loop arrivals plus (with sessions)
 *  the closed-loop successor turns. */
struct BuiltWorkload
{
    /** Turn-0 / standalone requests, sorted by arrival. */
    std::vector<TimedRequest> initial;

    /** Successor turns for ServingEngine::declareSessionTurns /
     *  FleetEngine::setSessions; empty without sessions. */
    SessionBook sessions;
};

/**
 * Sub-seeds of the independent random streams a build uses. Public
 * so tests (and replay tooling) can reproduce each stream by hand,
 * e.g. attachArrivals(reqs, process, workloadArrivalSeed(seed)).
 */
std::uint64_t workloadLengthSeed(std::uint64_t build_seed);
std::uint64_t workloadArrivalSeed(std::uint64_t build_seed);
std::uint64_t workloadSessionSeed(std::uint64_t build_seed);
std::uint64_t workloadPrefixSeed(std::uint64_t build_seed);

/** Instantiate the ArrivalProcess a spec names. */
std::unique_ptr<ArrivalProcess> makeArrivalProcess(
    const ArrivalSpec &arrival);

/**
 * Build the workload a spec describes, deterministically from
 * @p seed; fatal on an invalid spec (WorkloadSpec::validate()).
 * Request ids are dense from zero in generation order
 * (session s, turn k gets id s * turns + k).
 */
BuiltWorkload buildWorkload(const WorkloadSpec &spec,
                            std::uint64_t seed);

} // namespace pimphony

#endif // PIMPHONY_WORKLOAD_SPEC_HH
