#include "workload/session.hh"

#include <cstdint>

#include "common/logging.hh"

namespace pimphony {

SessionBook
mergeSessionBooks(const SessionBook &book, const SessionBook &more)
{
    if (more.empty())
        return book;
    if (book.empty())
        return more;
    SessionBook merged;
    merged.reserve(book.size() + more.size());
    auto a = book.begin(), b = more.begin();
    while (a != book.end() || b != more.end()) {
        if (b == more.end() || (a != book.end() && a->first < b->first))
            merged.insert(*a++);
        else if (a == book.end() || b->first < a->first)
            merged.insert(*b++);
        else
            fatal("request %u already has a declared successor",
                  a->first);
    }
    return merged;
}

namespace {

RequestId
idOf(const TimedRequest &timed)
{
    return timed.request.id;
}

RequestId
idOf(const SessionBook::value_type &kv)
{
    return kv.second.request.id;
}

template <typename A, typename B>
void
requireDistinct(const A &a, const B &b, const char *context)
{
    // Walk both sides in merged order: if every id exceeds the one
    // before it, no id repeats.
    auto x = a.begin();
    auto y = b.begin();
    std::int64_t last = -1;
    bool ascending = true;
    while (ascending && (x != a.end() || y != b.end())) {
        RequestId id;
        if (y == b.end() || (x != a.end() && idOf(*x) < idOf(*y)))
            id = idOf(*x++);
        else
            id = idOf(*y++);
        ascending = id > last;
        last = id;
    }
    if (ascending)
        return;

    std::vector<RequestId> ids;
    ids.reserve(a.size() + b.size());
    for (const auto &e : a)
        ids.push_back(idOf(e));
    for (const auto &e : b)
        ids.push_back(idOf(e));
    std::sort(ids.begin(), ids.end());
    auto dup = std::adjacent_find(ids.begin(), ids.end());
    if (dup != ids.end())
        fatal("%s: request id %u is declared twice", context, *dup);
}

} // namespace

void
requireDistinctIds(const std::vector<TimedRequest> &trace,
                   const SessionBook &book, const char *context)
{
    requireDistinct(trace, book, context);
}

void
requireDistinctIds(const std::vector<TimedRequest> &trace,
                   const std::vector<TimedRequest> &more,
                   const char *context)
{
    requireDistinct(trace, more, context);
}

} // namespace pimphony
