#include "mapping/partition.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"

namespace pimphony {

std::vector<std::vector<AttentionJob>>
assignHfp(std::vector<AttentionJob> jobs, unsigned n_channels)
{
    std::vector<std::vector<AttentionJob>> out;
    assignHfp(jobs, n_channels, out);
    return out;
}

void
assignHfp(const std::vector<AttentionJob> &jobs, unsigned n_channels,
          std::vector<std::vector<AttentionJob>> &out)
{
    if (n_channels == 0)
        panic("assignHfp with zero channels");
    out.resize(n_channels);
    for (auto &channel : out)
        channel.clear();

    // Head-first mapping is fixed at compile time: command streams
    // embed physical addresses, so (request, head) pairs land on
    // channels by index, blind to each request's actual context
    // length. This is precisely the imbalance TCP removes; a
    // load-aware assignment would require the dynamic addressing
    // that conventional PIM lacks (Sec. IV-A).
    for (std::size_t i = 0; i < jobs.size(); ++i)
        out[i % n_channels].push_back(jobs[i]);
}

Tokens
tcpSliceTokens(const AttentionJob &job, unsigned n_channels)
{
    if (n_channels == 0)
        panic("tcpSliceTokens with zero channels");
    return ceilDiv<Tokens>(job.tokens, n_channels);
}

Tokens
tcpFullActivationTokens(unsigned n_channels)
{
    return static_cast<Tokens>(n_channels) * 16;
}

} // namespace pimphony
