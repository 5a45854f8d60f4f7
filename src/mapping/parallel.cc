#include "mapping/parallel.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace pimphony {

std::string
ParallelPlan::toString() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "(TP=%u,PP=%u)", tp, pp);
    return buf;
}

unsigned
stageLayers(unsigned n_layers, unsigned pp, unsigned stage)
{
    if (pp == 0)
        panic("pipeline with zero stages");
    if (stage >= pp)
        panic("stage %u outside a %u-deep pipeline", stage, pp);
    unsigned base = std::max(1u, n_layers / pp);
    if (stage + 1 < pp)
        return base;
    unsigned assigned = (pp - 1) * base;
    // Oversubscribed pipelines (pp > n_layers) keep one layer per
    // stage; otherwise the last stage absorbs the remainder.
    return n_layers > assigned ? n_layers - assigned : base;
}

unsigned
stageLayersTotal(unsigned n_layers, unsigned pp)
{
    return (pp - 1) * stageLayers(n_layers, pp, 0) +
           stageLayers(n_layers, pp, pp - 1);
}

double
allReduceSeconds(Bytes bytes, unsigned tp, double link_bytes_per_sec,
                 double alpha_seconds)
{
    if (tp <= 1)
        return 0.0;
    // Ring all-reduce: 2(tp-1)/tp of the data crosses each link.
    double volume = 2.0 * (tp - 1) / tp * static_cast<double>(bytes);
    return 2.0 * (tp - 1) * alpha_seconds + volume / link_bytes_per_sec;
}

} // namespace pimphony
