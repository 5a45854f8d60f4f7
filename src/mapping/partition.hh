/**
 * @file
 * Intra-module workload partitioning (Sec. IV).
 *
 * HFP (head/batch-first, prior work): each (request, KV-head)
 * attention job runs wholly on one channel; channels are filled
 * round-robin by cumulative load. Long contexts leave channels idle
 * whenever there are fewer jobs than channels or the jobs are
 * unequal.
 *
 * TCP (token-centric, PIMphony): the token axis of every job is
 * sliced across all channels of the module, so every channel works on
 * every job; per-module imbalance disappears and utilization is
 * decoupled from batch size. QK^T slices concatenate for the EPU
 * softmax; SV slices need one inter-channel reduction through the
 * PIM HUB's GPR.
 */

#ifndef PIMPHONY_MAPPING_PARTITION_HH
#define PIMPHONY_MAPPING_PARTITION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace pimphony {

enum class Partitioning {
    Hfp,
    Tcp,
};

/** One attention job: the KV scan of one (request, KV-head) pair. */
struct AttentionJob
{
    RequestId request = 0;
    std::uint32_t kvHead = 0;
    Tokens tokens = 0;
};

/**
 * HFP assignment: jobs to channels, longest-processing-time-first
 * (greedy makespan heuristic, what a reasonable head-first runtime
 * does).
 *
 * @return per-channel job lists, size @p n_channels.
 */
std::vector<std::vector<AttentionJob>>
assignHfp(std::vector<AttentionJob> jobs, unsigned n_channels);

/**
 * Allocation-reusing form: fills @p out (resized to @p n_channels,
 * per-channel lists cleared) with the same assignment. The serving
 * engine calls this once per decode cycle; reusing the nested
 * vectors keeps the cycle path allocation-free once warm.
 */
void assignHfp(const std::vector<AttentionJob> &jobs, unsigned n_channels,
               std::vector<std::vector<AttentionJob>> &out);

/** Tokens a single channel processes for @p job under TCP. */
Tokens tcpSliceTokens(const AttentionJob &job, unsigned n_channels);

/**
 * Minimum total tokens at which TCP activates every channel for a
 * QK^T (one token group of 16 per channel).
 */
Tokens tcpFullActivationTokens(unsigned n_channels);

} // namespace pimphony

#endif // PIMPHONY_MAPPING_PARTITION_HH
