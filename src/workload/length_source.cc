#include "workload/length_source.hh"

#include <cmath>

#include "common/logging.hh"

namespace pimphony {

void
LengthHistogram::add(Tokens prompt_tokens, Tokens decode_tokens,
                     double weight)
{
    if (!(weight > 0.0) || !std::isfinite(weight))
        fatal("length histogram weights must be positive");
    bins_.push_back({prompt_tokens, decode_tokens, weight});
    totalWeight_ += weight;
}

LengthPair
LengthHistogram::sample(Rng &rng) const
{
    if (bins_.empty())
        fatal("sampling an empty length histogram");
    double u = rng.uniform() * totalWeight_;
    double acc = 0.0;
    for (const auto &bin : bins_) {
        acc += bin.weight;
        if (u < acc)
            return {bin.promptTokens, bin.decodeTokens};
    }
    // FP accumulation can leave u a hair past the last edge.
    const Bin &last = bins_.back();
    return {last.promptTokens, last.decodeTokens};
}

} // namespace pimphony
