/**
 * @file
 * Functional dataflow replay for command streams.
 *
 * The timing simulator never touches data, mirroring the paper's
 * methodology — but that leaves a class of generator bugs invisible
 * (right command counts, wrong operands). This checker replays a
 * stream's architectural semantics symbolically: WR-INP deposits a
 * logical source-tile id into the GBuf entry, MAC records the
 * (source tile, weight tile) product into its output accumulator,
 * RD-OUT drains the accumulator. Tests then assert that each drained
 * accumulation contains exactly the products the kernel's mathematics
 * requires.
 */

#ifndef PIMPHONY_KERNELS_DATAFLOW_HH
#define PIMPHONY_KERNELS_DATAFLOW_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "dram/timing.hh"
#include "isa/pim_command.hh"

namespace pimphony {

/** One (source tile, weight tile) product recorded by a MAC. */
struct Product
{
    std::int32_t src = -1;   ///< logical input tile id
    std::uint64_t pos = 0;   ///< weight tile position (row-major)

    bool
    operator==(const Product &o) const
    {
        return src == o.src && pos == o.pos;
    }
};

/** One drained accumulation. */
struct DrainRecord
{
    std::int32_t outEntry = -1;
    std::vector<Product> products;
};

/**
 * Replay @p stream and return every drained accumulation in drain
 * order. Panics on architectural misuse: a MAC reading a GBuf entry
 * no WR-INP populated, or a stream ending with un-drained
 * accumulations.
 */
// test oracle: QktDataflow.EveryScoreComputedExactlyOnce and others
std::vector<DrainRecord> replayDataflow(const CommandStream &stream,
                                        const AimTimingParams &params);

} // namespace pimphony

#endif // PIMPHONY_KERNELS_DATAFLOW_HH
