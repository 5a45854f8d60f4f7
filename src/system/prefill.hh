/**
 * @file
 * Prefill latency model (extension beyond the paper's decode-focused
 * evaluation).
 *
 * Prefill is compute-bound GEMM work: 2 x params FLOPs per context
 * token for the linear stack plus the quadratic attention term. The
 * CENT-like system prefillls on its PNM (slow -- one of the reasons
 * PIM-only systems assume prefill elsewhere), the NeuPIMs-like system
 * on its NPUs, the GPU baseline on the GPUs.
 *
 * The chunk planner splits one request's prefill into fixed-size
 * token chunks for the event-driven engine: each chunk becomes a
 * pipeline work item on the xPU stage timelines, and the causal
 * attention term makes later chunks (which attend to everything
 * before them) more expensive. Per-chunk seconds apportion the
 * scalar prefillSeconds() charge by chunk FLOPs, so the chunked total
 * matches the unchunked charge exactly.
 */

#ifndef PIMPHONY_SYSTEM_PREFILL_HH
#define PIMPHONY_SYSTEM_PREFILL_HH

#include <vector>

#include "model/llm.hh"
#include "system/xpu.hh"

namespace pimphony {

/** Total FLOPs to prefill @p tokens of context. */
double prefillFlops(const LlmConfig &model, Tokens tokens);

/**
 * Seconds to prefill @p tokens on @p n_engines compute engines of
 * @p config (weights already resident; chunked prefill streams
 * activations).
 */
double prefillSeconds(const LlmConfig &model, Tokens tokens,
                      const XpuConfig &config, unsigned n_engines);

/** One chunk of a request's prefill. */
struct PrefillChunk
{
    /** Offset of the chunk's first context token. */
    Tokens firstToken = 0;

    /** Context tokens processed by this chunk. */
    Tokens tokens = 0;

    /**
     * FLOPs of this chunk: its share of the linear stack plus the
     * causal attention over every token before and inside it. Sums
     * to prefillFlops() across a request's chunks.
     */
    double flops = 0.0;
};

/**
 * Split @p tokens of context into chunks of at most @p chunk_tokens
 * (the last chunk takes the remainder; chunk_tokens == 0 means one
 * chunk). Returns an empty plan for an empty context.
 */
// test oracle: PrefillFrom.ZeroCachedReducesToColdPlanner
std::vector<PrefillChunk> prefillChunks(const LlmConfig &model,
                                        Tokens tokens,
                                        Tokens chunk_tokens);

/**
 * Per-chunk seconds for the plan prefillChunks() produces:
 * prefillSeconds(model, tokens, config, n_engines) apportioned by
 * chunk FLOPs, so the values sum exactly to the scalar charge.
 */
// test oracle: PrefillFrom.ZeroCachedReducesToColdPlanner
std::vector<double> prefillChunkSeconds(const LlmConfig &model,
                                        Tokens tokens,
                                        Tokens chunk_tokens,
                                        const XpuConfig &config,
                                        unsigned n_engines);

/**
 * Warm-prefix delta prefill: seconds to extend an already-prefilled
 * @p cached -token KV to @p total tokens — exactly
 * prefillSeconds(total) - prefillSeconds(cached), so skipping a
 * cached prefix skips precisely the cached share of the scalar
 * charge (and full-context and warm charges telescope across session
 * turns). cached == 0 reduces to prefillSeconds() bit for bit.
 */
double prefillSecondsFrom(const LlmConfig &model, Tokens cached,
                          Tokens total, const XpuConfig &config,
                          unsigned n_engines);

/**
 * Chunk plan for the delta prefill of [cached, total): the same
 * e^2 - s^2 causal-attention split as prefillChunks() applied to the
 * tail only — the delta tokens still attend to the cached prefix.
 * Chunk FLOPs sum to prefillFlops(total) - prefillFlops(cached);
 * cached == 0 reproduces prefillChunks() exactly.
 */
std::vector<PrefillChunk> prefillChunksFrom(const LlmConfig &model,
                                            Tokens cached, Tokens total,
                                            Tokens chunk_tokens);

/**
 * Per-chunk seconds for the delta plan: prefillSecondsFrom()
 * apportioned by chunk FLOPs, summing exactly to the scalar delta
 * charge (the warm analogue of prefillChunkSeconds()).
 */
std::vector<double> prefillChunkSecondsFrom(const LlmConfig &model,
                                            Tokens cached, Tokens total,
                                            Tokens chunk_tokens,
                                            const XpuConfig &config,
                                            unsigned n_engines);

/**
 * Preemption re-plan: the dispatch slices a quantum co-scheduling
 * policy (SchedPolicyKind::TierPriority) serves one chunk's service
 * charge in — full quanta followed by the remainder, matching the
 * sim core's slice arithmetic. The slices sum exactly to
 * @p chunk_seconds: preempting a chunk relocates its remaining
 * charge in time but never loses any of it. A quantum <= 0 (or a
 * charge that fits one quantum) yields a single slice; a charge
 * <= 0 yields none.
 */
// test oracle: QueuedDevice.ChunkSlicingStartsDecodeWithinOneQuantum
std::vector<double> preemptionSlices(double chunk_seconds,
                                     double quantum);

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_PREFILL_HH
