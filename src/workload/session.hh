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
 * keyed by their predecessor's request id, held in one key-sorted
 * flat table (O(log n) lookups). A book is a value over shared
 * storage: copies share one table, the first write to a shared book
 * clones it, and concurrent reads are safe. buildWorkload()
 * (workload/spec.hh) emits the book alongside the turn-0 arrivals;
 * ServingEngine::declareSessionTurns() keeps a copy and releases
 * each successor from advanceMember's completion branch through the
 * engine's mid-run arrival machinery (the injectArrivals() feed
 * point). The engine never writes its copy: a request completes at
 * most once per engine, so every entry fires at most once, and a
 * FleetEngine's replicas all read the one table.
 * Requests carry their session identity (Request::session /
 * Request::turn), which FleetEngine's router uses to pin a session's
 * turns to one replica.
 */

#ifndef PIMPHONY_WORKLOAD_SESSION_HH
#define PIMPHONY_WORKLOAD_SESSION_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "workload/arrival.hh"
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
 * Successor turns keyed by predecessor request id: book.find(i) is
 * the turn released when request i completes. A k-turn session
 * contributes k-1 entries chained by id.
 *
 * A vector of (key, turn) pairs kept sorted by key: lookups are
 * binary searches, iteration runs in key order, and entries are
 * read-only once inserted. Inserting in key order (as buildWorkload()
 * and a saved trace do) appends; an out-of-order key is inserted in
 * place, which moves the entries after it.
 *
 * Copying a book copies a pointer to the vector. emplace, insert and
 * reserve clone the vector first when another book shares it, so a
 * write never moves or changes an entry another book can see, and
 * pointers into a book stay valid while it is not written.
 */
class SessionBook
{
  public:
    using value_type = std::pair<RequestId, SessionTurn>;
    using const_iterator = std::vector<value_type>::const_iterator;

    std::size_t size() const { return entries().size(); }
    bool empty() const { return entries().empty(); }
    void reserve(std::size_t n) { writable().reserve(n); }
    const_iterator begin() const { return entries().begin(); }
    const_iterator end() const { return entries().end(); }

    /** The entry keyed @p after, or end(). */
    const_iterator
    find(RequestId after) const
    {
        auto it = lowerBound(after);
        return it != end() && it->first == after ? it : end();
    }

    /** Add @p turn under @p after unless the key is taken; .second
     *  says whether it was added, .first points at the key's entry.
     *  Fatal if the think time is negative or not finite. */
    std::pair<const_iterator, bool>
    emplace(RequestId after, SessionTurn turn)
    {
        if (!(std::isfinite(turn.thinkSeconds) && turn.thinkSeconds >= 0.0))
            fatal("SessionBook: the successor of request %u has think "
                  "time %g; it must be finite and nonnegative",
                  after, turn.thinkSeconds);
        if (empty() || entries().back().first < after) {
            writable().emplace_back(after, std::move(turn));
            return {std::prev(end()), true};
        }
        auto it = lowerBound(after);
        if (it->first == after)
            return {it, false};
        auto at = it - begin(); // writable() may clone
        auto &v = writable();
        return {v.emplace(v.begin() + at, after, std::move(turn)), true};
    }

    std::pair<const_iterator, bool>
    insert(const value_type &kv)
    {
        return emplace(kv.first, kv.second);
    }

  private:
    const std::vector<value_type> &
    entries() const
    {
        static const std::vector<value_type> kEmpty;
        return entries_ ? *entries_ : kEmpty;
    }

    /** The vector, made on first use and cloned if shared. */
    std::vector<value_type> &
    writable()
    {
        if (!entries_)
            entries_ = std::make_shared<std::vector<value_type>>();
        else if (entries_.use_count() > 1)
            entries_ = std::make_shared<std::vector<value_type>>(*entries_);
        return *entries_;
    }

    const_iterator
    lowerBound(RequestId after) const
    {
        return std::lower_bound(
            begin(), end(), after,
            [](const value_type &kv, RequestId key) {
                return kv.first < key;
            });
    }

    /** Null until the first write; shared by copies. */
    std::shared_ptr<std::vector<value_type>> entries_;
};

/**
 * The accumulate rule of ServingEngine::declareSessionTurns() and
 * FleetEngine::setSessions(): the union of @p book and @p more. When
 * one side is empty the other is returned, sharing its storage; only
 * two nonempty books are merged, in one linear pass. A predecessor
 * id in both books is fatal.
 */
SessionBook mergeSessionBooks(const SessionBook &book,
                              const SessionBook &more);

/**
 * Fatal, naming @p context and the id, unless the request ids of
 * @p trace and the successor-turn ids of @p book are
 * pairwise distinct. While the ids of each side strictly increase,
 * as every generator emits them, this is one merged walk; otherwise
 * it sorts a copy of the ids.
 */
void requireDistinctIds(const std::vector<TimedRequest> &trace,
                        const SessionBook &book, const char *context);

/** The same check over the request ids of @p trace and @p more. */
void requireDistinctIds(const std::vector<TimedRequest> &trace,
                        const std::vector<TimedRequest> &more,
                        const char *context);

} // namespace pimphony

#endif // PIMPHONY_WORKLOAD_SESSION_HH
