/**
 * @file
 * Multi-turn session state for closed-loop serving workloads.
 *
 * A chat-style session is a chain of requests: the user reads turn
 * k's answer, thinks, and submits turn k+1 — whose prompt carries
 * the whole conversation so far. Two properties follow that an
 * open-loop trace cannot express:
 *
 *  - turn k+1 exists on the serving clock only after turn k
 *    completes (release time = completion + think time), and
 *  - turn k+1's context length includes the session history
 *    (sum of earlier prompts and answers).
 *
 * The workload layer encodes this as a SessionBook: successor turns
 * keyed by their predecessor's request id. buildWorkload()
 * (workload/spec.hh) emits the book alongside the turn-0 arrivals;
 * ServingEngine::declareSessionTurns() adopts it as an immutable,
 * shared book and releases each successor from advanceMember's
 * completion branch through the engine's mid-run arrival machinery
 * (the injectArrivals() feed point). The book is never edited
 * after declaration: a request completes at most once per engine,
 * so every entry fires at most once, and a FleetEngine hands one
 * book to all of its replicas.
 * Requests carry their session identity (Request::session /
 * Request::turn), which FleetEngine's router uses to pin a session's
 * turns to one replica.
 */

#ifndef PIMPHONY_WORKLOAD_SESSION_HH
#define PIMPHONY_WORKLOAD_SESSION_HH

#include <memory>
#include <unordered_map>

#include "common/logging.hh"
#include "common/types.hh"
#include "workload/trace.hh"

namespace pimphony {

/** One declared-but-unreleased successor turn of a session. */
struct SessionTurn
{
    /** The successor request (session/turn fields already stamped). */
    Request request;

    /**
     * User think time: seconds between the predecessor's completion
     * and this turn's arrival. Must be nonnegative.
     */
    double thinkSeconds = 0.0;
};

/**
 * Successor turns keyed by predecessor request id: book[i] is the
 * turn released when request i completes. A k-turn session
 * contributes k-1 entries chained by id.
 */
using SessionBook = std::unordered_map<RequestId, SessionTurn>;

/**
 * The accumulate rule of ServingEngine::declareSessionTurns() and
 * FleetEngine::setSessions(): the union of @p book and @p more,
 * either of which may be null. When one side is empty the other
 * pointer is returned as is, so accumulating from null stays null
 * until the first nonempty book, which is adopted without a copy;
 * only a second nonempty book copies. A predecessor id in both
 * books is fatal.
 */
inline std::shared_ptr<const SessionBook>
mergeSessionBooks(std::shared_ptr<const SessionBook> book,
                  std::shared_ptr<const SessionBook> more)
{
    if (!more || more->empty())
        return book;
    if (!book || book->empty())
        return more;
    auto merged = std::make_shared<SessionBook>(*book);
    merged->reserve(book->size() + more->size());
    for (const auto &kv : *more)
        if (!merged->insert(kv).second)
            fatal("request %u already has a declared successor",
                  kv.first);
    return merged;
}

} // namespace pimphony

#endif // PIMPHONY_WORKLOAD_SESSION_HH
