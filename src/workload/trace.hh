/**
 * @file
 * Synthetic long-context request traces matched to the paper's
 * Table II statistics (LongBench: QMSum, Musique; LV-Eval:
 * multifieldqa, Loogle-SD).
 *
 * We do not have the benchmark texts; the serving system reacts only
 * to the context-length distribution (channel imbalance, capacity
 * variance), so requests are synthesized from truncated distributions
 * whose mean/std/min/max match the published table.
 */

#ifndef PIMPHONY_WORKLOAD_TRACE_HH
#define PIMPHONY_WORKLOAD_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "workload/request_class.hh"

namespace pimphony {

enum class TraceTask {
    QMSum,        ///< LongBench, summarization
    Musique,      ///< LongBench, multi-hop QA
    MultifieldQa, ///< LV-Eval
    LoogleSd,     ///< LV-Eval
};

struct TraceTaskStats
{
    const char *name;
    const char *suite;
    double mean;
    double stddev;
    double min;
    double max;
};

/** Published Table II statistics for @p task. */
const TraceTaskStats &traceTaskStats(TraceTask task);

std::string traceTaskName(TraceTask task);

/** All four evaluated tasks, in paper order. */
std::vector<TraceTask> allTraceTasks();

struct Request
{
    Request() = default;
    Request(RequestId id_, Tokens context_tokens, Tokens decode_tokens,
            RequestClass cls_ = {})
        : id(id_), contextTokens(context_tokens),
          decodeTokens(decode_tokens), cls(cls_)
    {
    }

    RequestId id = 0;

    /** Prefilled context length when decoding starts. */
    Tokens contextTokens = 0;

    /** Tokens to generate before the request completes. */
    Tokens decodeTokens = 0;

    /**
     * Service class (latency tier, SLO target, tenant). The
     * default class reproduces the pre-tier engine bit for bit; see
     * workload/request_class.hh.
     */
    RequestClass cls;

    /**
     * Multi-turn session this request belongs to (kNoSession = a
     * standalone request, the default). Session turns are released
     * closed-loop — see workload/session.hh — and fleet routing
     * pins a session's turns to one replica.
     */
    SessionId session = kNoSession;

    /** Zero-based turn index within the session. */
    unsigned turn = 0;

    /**
     * Workload-declared shared-prefix identity: requests carrying
     * the same nonzero hash open with the same prefixTokens-long
     * token prefix and may share its KV through the prefix cache
     * (0 = no declared prefix, the default). Kept below 2^53 so it
     * round-trips exactly through the numeric trace format.
     */
    std::uint64_t prefixHash = 0;

    /** Length of the declared shared prefix (<= contextTokens). */
    Tokens prefixTokens = 0;
};

/**
 * Stamp @p requests with @p classes cyclically (request i gets
 * classes[i % classes.size()]) — the quick way to build a tier/tenant
 * mix from one generated trace. No-op on an empty class list.
 */
void assignRequestClassesRoundRobin(std::vector<Request> &requests,
                                    const std::vector<RequestClass> &classes);

/**
 * Deterministic request generator for one task.
 */
class TraceGenerator
{
  public:
    TraceGenerator(TraceTask task, std::uint64_t seed);

    /** Generate @p n requests decoding @p decode_tokens each. */
    std::vector<Request> generate(std::size_t n,
                                  Tokens decode_tokens = 128);

    /**
     * Generate with context lengths scaled so their mean is
     * @p target_mean (used by the context-length sweeps of Fig. 17,
     * which keep Table II's shape but move the scale).
     */
    std::vector<Request> generateScaled(std::size_t n, Tokens target_mean,
                                        Tokens decode_tokens = 128);

    /** Service class stamped on every generated request (default:
     *  the implicit pre-tier class). */
    void setRequestClass(const RequestClass &cls) { cls_ = cls; }

    /** Draw one context length; generate() draws once per request. */
    Tokens sampleLength();

  private:
    TraceTask task_;
    Rng rng_;
    RequestId next_ = 0;
    RequestClass cls_;

    /** The task's length model, fitted once per process. */
    struct LengthModel;
    const LengthModel *model_ = nullptr;
};

} // namespace pimphony

#endif // PIMPHONY_WORKLOAD_TRACE_HH
