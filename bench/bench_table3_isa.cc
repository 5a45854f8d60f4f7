/**
 * @file
 * Table III: the PIM instruction set -- arguments and sequencer
 * expansion behaviour, demonstrated on a concrete GEMV program.
 */

#include "bench_util.hh"
#include "isa/pim_instruction.hh"

using namespace pimphony;

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, "Table III: ISA summary");
    bench::JsonRows json("bench_table3_isa");
    printBanner(std::cout, "Table III: PIM instructions for LLM inference");

    bench::MirroredTable t(

        {"Instruction", "Description", "Arguments"},

        args.json ? &json : nullptr);
    t.addRow({"WR-INP", "copy input from GPR to GBuf",
              "Ch-mask Op-size GPR-addr GBuf-Idx"});
    t.addRow({"MAC", "dot-product on a DRAM row",
              "Ch-mask Op-size GBuf-Idx Row/Col Out-Idx"});
    t.addRow({"RD-OUT", "copy output from OutReg to GPR",
              "Ch-mask Op-size GPR-addr Out-Idx"});
    t.print(std::cout);

    printBanner(std::cout,
                "Sequencer expansion of a (48,32)x(32,1) GEMV program");
    std::vector<PimInstruction> prog = {
        PimInstruction::wrInp(0xFFFF, 2, 0, 0),
        PimInstruction::mac(0xFFFF, 2, 0, 0, 0, 0),
        PimInstruction::rdOut(0xFFFF, 1, 64, 0),
        PimInstruction::mac(0xFFFF, 2, 0, 1, 0, 2),
        PimInstruction::rdOut(0xFFFF, 1, 96, 1),
        PimInstruction::mac(0xFFFF, 2, 0, 2, 0, 4),
        PimInstruction::rdOut(0xFFFF, 1, 128, 2),
    };
    auto stream = expandProgram(prog);
    std::cout << "  program: " << prog.size() << " instructions ("
              << programBytes(prog) << " B) -> " << stream.size()
              << " channel commands\n";
    for (const auto &c : stream.commands())
        std::cout << "    " << c.toString() << " (group " << c.group
                  << ")\n";
    std::cout << "  validation: "
              << (stream.validate(64, 16).empty() ? "ok" : "FAILED")
              << "\n";
    bench::writeJsonIfRequested(json, args);
    return 0;
}
