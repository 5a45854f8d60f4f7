/**
 * @file
 * Request-length sources for WorkloadSpec: explicit (prompt, output)
 * pairs and empirical weighted histograms.
 *
 * The Table II synthetic generator (workload/trace.hh) samples
 * context lengths from fitted distributions; real serving traces
 * instead come as measured (prompt, output) pairs, often aggregated
 * into a weighted histogram. These sources let a WorkloadSpec draw
 * lengths from either form — explicit pairs cycled in order
 * (deterministic, no RNG), or a histogram sampled by weight
 * (deterministic per seed).
 */

#ifndef PIMPHONY_WORKLOAD_LENGTH_SOURCE_HH
#define PIMPHONY_WORKLOAD_LENGTH_SOURCE_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace pimphony {

/** One measured (prompt, output) length pair. */
struct LengthPair
{
    /** Prompt (context) tokens prefilled before decoding starts. */
    Tokens promptTokens = 0;

    /** Output (decode) tokens generated before completion. */
    Tokens decodeTokens = 0;
};

/** Fatal, naming @p field, unless a request decodes at least one
 *  token: a zero-decode request completes without a first token. */
void requireDecodeTokens(const std::string &field, Tokens decode_tokens);

/**
 * An empirical (prompt, output) length distribution: weighted bins
 * sampled by cumulative weight. Deterministic per Rng state.
 */
class LengthHistogram
{
  public:
    struct Bin
    {
        Tokens promptTokens = 0;
        Tokens decodeTokens = 0;
        double weight = 1.0;
    };

    /** Append a bin (weight must be positive, decode_tokens >= 1). */
    void add(Tokens prompt_tokens, Tokens decode_tokens,
             double weight = 1.0);

    bool empty() const { return bins_.empty(); }
    const std::vector<Bin> &bins() const { return bins_; }

    /** Draw one pair by weight; fatal on an empty histogram. */
    LengthPair sample(Rng &rng) const;

  private:
    std::vector<Bin> bins_;
    double totalWeight_ = 0.0;
};

} // namespace pimphony

#endif // PIMPHONY_WORKLOAD_LENGTH_SOURCE_HH
