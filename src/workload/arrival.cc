#include "workload/arrival.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "workload/arrival_process.hh"

namespace pimphony {

// The three generators are thin wrappers over their ArrivalProcess
// implementations (workload/arrival_process.hh) — same RNG draw
// order, bit-identical output, asserted in tests/workload_test.cc.

std::vector<TimedRequest>
poissonArrivals(const std::vector<Request> &requests,
                double rate_per_second, std::uint64_t seed)
{
    PoissonProcess process(rate_per_second);
    return attachArrivals(requests, process, seed);
}

std::vector<TimedRequest>
gammaArrivals(const std::vector<Request> &requests, double rate_per_second,
              double cv, std::uint64_t seed)
{
    GammaProcess process(rate_per_second, cv);
    return attachArrivals(requests, process, seed);
}

std::vector<TimedRequest>
onOffArrivals(const std::vector<Request> &requests,
              const OnOffTraffic &traffic, std::uint64_t seed)
{
    OnOffProcess process(traffic);
    return attachArrivals(requests, process, seed);
}

void
sortByArrival(std::vector<TimedRequest> &requests)
{
    auto earlier = [](const TimedRequest &a, const TimedRequest &b) {
        return a.arrivalSeconds < b.arrivalSeconds;
    };
    // Stable-sorting a sorted range is the identity: sorted input
    // (every generator's) skips the sort and its scratch buffer.
    if (!std::is_sorted(requests.begin(), requests.end(), earlier))
        std::stable_sort(requests.begin(), requests.end(), earlier);
}

void
requireSortedByArrival(const std::vector<TimedRequest> &requests,
                       const char *context)
{
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (std::isnan(requests[i].arrivalSeconds))
            fatal("%s: arrivalSeconds of request %u at index %zu is NaN",
                  context, static_cast<unsigned>(requests[i].request.id),
                  i);
        if (i > 0 && requests[i].arrivalSeconds <
                         requests[i - 1].arrivalSeconds)
            fatal("%s: arrivals out of order at index %zu "
                  "(request %u at %.17g after request %u at %.17g); "
                  "sortByArrival() first",
                  context, i,
                  static_cast<unsigned>(requests[i].request.id),
                  requests[i].arrivalSeconds,
                  static_cast<unsigned>(requests[i - 1].request.id),
                  requests[i - 1].arrivalSeconds);
    }
}

std::vector<TimedRequest>
immediateArrivals(const std::vector<Request> &requests)
{
    std::vector<TimedRequest> out;
    out.reserve(requests.size());
    for (const auto &r : requests)
        out.push_back({r, 0.0});
    return out;
}

} // namespace pimphony
