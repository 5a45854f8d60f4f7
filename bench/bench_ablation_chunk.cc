/**
 * @file
 * Ablation: DPA chunk size. Smaller chunks reduce last-chunk
 * fragmentation but inflate the VA2PA table and the host mapping
 * traffic; the paper's 1 MB default balances both.
 */

#include "bench_util.hh"
#include "alloc/kv_allocator.hh"
#include "workload/trace.hh"

using namespace pimphony;

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, "Ablation: DPA chunk size");
    bench::JsonRows json("bench_ablation_chunk");
    printBanner(std::cout,
                "Ablation: DPA chunk size (LLM-7B-128K-GQA, "
                "multifieldqa trace, 114 GiB usable)");

    auto model = LlmConfig::llm7b(true);
    TraceGenerator gen(TraceTask::MultifieldQa, 77);
    auto requests = gen.generate(64, 128);

    bench::MirroredTable t(

        {"chunk", "admitted", "capacity util", "VA2PA bytes",
                    "host msgs"},

        args.json ? &json : nullptr);
    const std::vector<Bytes> chunks = {256_KiB, 1_MiB, 4_MiB, 16_MiB,
                                       64_MiB};
    struct AdmitStats
    {
        std::size_t admitted;
        double capacityUtil;
        Bytes va2paBytes;
        std::uint64_t hostMsgs;
    };
    auto outs = bench::runSweep(args, chunks.size(), [&](std::size_t i) {
        KvAllocator alloc(AllocatorKind::LazyChunk, 114_GiB,
                          model.kvBytesPerToken(), model.contextWindow,
                          chunks[i]);
        std::size_t admitted = 0;
        for (const auto &r : requests) {
            if (alloc.tryAdmit(r.id, r.contextTokens))
                ++admitted;
            else
                break;
        }
        // The HUB dispatcher's VA2PA table holds one 8 B entry per
        // mapped chunk (Sec. VI-C).
        return AdmitStats{admitted, alloc.capacityUtilization(),
                          alloc.chunksInUse() * 8, alloc.hostInterventions()};
    });
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const auto &r = outs[i].value;
        t.addRow({TablePrinter::fmtInt(chunks[i] >> 10) + " KiB",
                  TablePrinter::fmtInt(r.admitted),
                  TablePrinter::fmtPercent(r.capacityUtil),
                  TablePrinter::fmtInt(r.va2paBytes),
                  TablePrinter::fmtInt(r.hostMsgs)},
                 args.threads, outs[i].wallSeconds);
    }
    t.print(std::cout);
    bench::writeJsonIfRequested(json, args);
    return 0;
}
