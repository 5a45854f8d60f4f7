#include "system/prefill.hh"

#include <algorithm>

#include "common/units.hh"

namespace pimphony {

double
prefillFlops(const LlmConfig &model, Tokens tokens)
{
    double linear = 2.0 * static_cast<double>(model.paramCount()) *
                    static_cast<double>(tokens);
    // Causal attention: ~T^2/2 score+context pairs per head.
    double attn = 2.0 * model.nLayers * model.nHeads * model.headDim *
                  static_cast<double>(tokens) *
                  static_cast<double>(tokens);
    return linear + attn;
}

double
prefillSeconds(const LlmConfig &model, Tokens tokens,
               const XpuConfig &config, unsigned n_engines)
{
    if (tokens == 0)
        return 0.0;
    double engines = std::max(1u, n_engines);
    // Prefill GEMMs are large: assume near-saturated matrix units.
    double flops = prefillFlops(model, tokens);
    double rate = config.peakFlops * XpuConfig::kSaturatedGemmEfficiency;
    double compute = flops / (rate * engines);
    double weights = static_cast<double>(model.weightBytes()) /
                     (config.memBandwidth * engines);
    return std::max(compute, weights);
}

std::vector<PrefillChunk>
prefillChunks(const LlmConfig &model, Tokens tokens, Tokens chunk_tokens)
{
    std::vector<PrefillChunk> out;
    if (tokens == 0)
        return out;
    if (chunk_tokens == 0)
        chunk_tokens = tokens;
    out.reserve(static_cast<std::size_t>(
        ceilDiv<Tokens>(tokens, chunk_tokens)));
    double linear_per_token =
        2.0 * static_cast<double>(model.paramCount());
    double attn_coeff = 2.0 * model.nLayers * model.nHeads * model.headDim;
    for (Tokens start = 0; start < tokens; start += chunk_tokens) {
        PrefillChunk c;
        c.firstToken = start;
        c.tokens = std::min<Tokens>(chunk_tokens, tokens - start);
        Tokens end = start + c.tokens;
        // Causal attention of the chunk's tokens against everything
        // before and inside the chunk: the e^2 - s^2 split telescopes
        // to the T^2 term of prefillFlops() across chunks.
        double pairs = static_cast<double>(end) * end -
                       static_cast<double>(start) * start;
        c.flops = linear_per_token * static_cast<double>(c.tokens) +
                  attn_coeff * pairs;
        out.push_back(c);
    }
    return out;
}

std::vector<double>
prefillChunkSeconds(const LlmConfig &model, Tokens tokens,
                    Tokens chunk_tokens, const XpuConfig &config,
                    unsigned n_engines)
{
    auto chunks = prefillChunks(model, tokens, chunk_tokens);
    std::vector<double> out;
    out.reserve(chunks.size());
    if (chunks.empty())
        return out;
    double total_flops = 0.0;
    for (const auto &c : chunks)
        total_flops += c.flops;
    double total_sec = prefillSeconds(model, tokens, config, n_engines);
    for (const auto &c : chunks)
        out.push_back(total_sec * c.flops / total_flops);
    return out;
}

double
prefillSecondsFrom(const LlmConfig &model, Tokens cached, Tokens total,
                   const XpuConfig &config, unsigned n_engines)
{
    if (cached >= total)
        return 0.0;
    // The difference form (not a rebuilt flops/bandwidth max over the
    // delta) guarantees warm + cached charges conserve the cold
    // charge exactly: prefillSecondsFrom(0, c) +
    // prefillSecondsFrom(c, t) == prefillSeconds(t).
    return prefillSeconds(model, total, config, n_engines) -
           prefillSeconds(model, cached, config, n_engines);
}

std::vector<PrefillChunk>
prefillChunksFrom(const LlmConfig &model, Tokens cached, Tokens total,
                  Tokens chunk_tokens)
{
    std::vector<PrefillChunk> out;
    if (cached >= total)
        return out;
    if (chunk_tokens == 0)
        chunk_tokens = total - cached;
    out.reserve(static_cast<std::size_t>(
        ceilDiv<Tokens>(total - cached, chunk_tokens)));
    double linear_per_token =
        2.0 * static_cast<double>(model.paramCount());
    double attn_coeff = 2.0 * model.nLayers * model.nHeads * model.headDim;
    for (Tokens start = cached; start < total; start += chunk_tokens) {
        PrefillChunk c;
        c.firstToken = start;
        c.tokens = std::min<Tokens>(chunk_tokens, total - start);
        Tokens end = start + c.tokens;
        double pairs = static_cast<double>(end) * end -
                       static_cast<double>(start) * start;
        c.flops = linear_per_token * static_cast<double>(c.tokens) +
                  attn_coeff * pairs;
        out.push_back(c);
    }
    return out;
}

std::vector<double>
prefillChunkSecondsFrom(const LlmConfig &model, Tokens cached,
                        Tokens total, Tokens chunk_tokens,
                        const XpuConfig &config, unsigned n_engines)
{
    auto chunks = prefillChunksFrom(model, cached, total, chunk_tokens);
    std::vector<double> out;
    out.reserve(chunks.size());
    if (chunks.empty())
        return out;
    double total_flops = 0.0;
    for (const auto &c : chunks)
        total_flops += c.flops;
    double total_sec =
        prefillSecondsFrom(model, cached, total, config, n_engines);
    for (const auto &c : chunks)
        out.push_back(total_sec * c.flops / total_flops);
    return out;
}

std::vector<double>
preemptionSlices(double chunk_seconds, double quantum)
{
    std::vector<double> out;
    if (chunk_seconds <= 0.0)
        return out;
    if (quantum <= 0.0) {
        out.push_back(chunk_seconds);
        return out;
    }
    double remaining = chunk_seconds;
    // Mirror the sim core's slice test (a hair of tolerance keeps an
    // exact multiple at exactly charge / quantum slices despite fp
    // subtraction drift).
    while (remaining > quantum * (1.0 + 1e-9)) {
        out.push_back(quantum);
        remaining -= quantum;
    }
    out.push_back(remaining);
    return out;
}

} // namespace pimphony
