#include "workload/length_source.hh"

#include "common/logging.hh"

namespace pimphony {

void
requireDecodeTokens(const std::string &field, Tokens decode_tokens)
{
    if (decode_tokens == 0)
        fatal("%s must be at least 1 (got 0): requests must decode at "
              "least one token",
              field.c_str());
}

void
LengthHistogram::add(Tokens prompt_tokens, Tokens decode_tokens,
                     double weight)
{
    const std::string bin =
        "LengthHistogram bin " + std::to_string(bins_.size());
    requireDecodeTokens(bin + " decode_tokens", decode_tokens);
    requireField(bin + " weight", weight, FieldRange::Positive);
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
