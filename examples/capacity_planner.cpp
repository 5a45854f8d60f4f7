/**
 * @file
 * Capacity planner: given a model and a context-length distribution,
 * estimate how many PIM modules a deployment needs for a target
 * concurrent batch under static vs DPA memory management -- the
 * operational face of Sec. VI.
 */

#include <cstdio>

#include "alloc/kv_allocator.hh"
#include "common/logging.hh"
#include "system/cluster.hh"
#include "workload/trace.hh"

using namespace pimphony;

namespace {

/** Requests admitted on a given capacity under an allocator kind. */
std::size_t
admissible(AllocatorKind kind, Bytes capacity, const LlmConfig &model,
           const std::vector<Request> &requests)
{
    KvAllocator alloc(kind, capacity, model.kvBytesPerToken(),
                      model.contextWindow);
    std::size_t n = 0;
    for (const auto &r : requests) {
        if (!alloc.tryAdmit(r.id, r.contextTokens + r.decodeTokens))
            break;
        ++n;
    }
    return n;
}

} // namespace

int
main()
{
    setLogThreshold(LogLevel::Warn);

    auto model = LlmConfig::llm7b(true);
    const std::size_t target_batch = 32;

    TraceGenerator gen(TraceTask::MultifieldQa, 4321);
    auto requests = gen.generate(256, 128);

    std::printf("capacity planning for %s, multifieldqa-like contexts, "
                "target batch %zu\n\n",
                model.name.c_str(), target_batch);
    std::printf("%8s %10s %16s %16s\n", "modules", "capacity",
                "static batch", "DPA batch");

    auto base = ClusterConfig::centLike(model);
    for (unsigned modules = 2; modules <= 64; modules *= 2) {
        Bytes capacity =
            static_cast<Bytes>(modules) * base.module.capacityBytes;
        if (capacity <= model.weightBytes()) {
            std::printf("%8u %9llu G %16s %16s\n", modules,
                        static_cast<unsigned long long>(capacity >> 30),
                        "weights!", "weights!");
            continue;
        }
        Bytes kv = capacity - model.weightBytes();
        std::size_t st = admissible(AllocatorKind::Static, kv, model,
                                    requests);
        std::size_t lz = admissible(AllocatorKind::LazyChunk, kv, model,
                                    requests);
        std::printf("%8u %9llu G %16zu %16zu%s\n", modules,
                    static_cast<unsigned long long>(capacity >> 30), st,
                    lz,
                    lz >= target_batch && st < target_batch
                        ? "   <- DPA reaches target first"
                        : "");
    }

    std::printf("\nrule of thumb: static reserves %llu MiB per request "
                "(T_max %llu); DPA reserves the actual footprint in "
                "1 MiB chunks.\n",
                static_cast<unsigned long long>(
                    (model.kvBytesPerToken() * model.contextWindow) >>
                    20),
                static_cast<unsigned long long>(model.contextWindow));
    return 0;
}
