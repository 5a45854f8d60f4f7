/**
 * @file
 * Test-local queue arbiters shared by the device tests.
 */

#ifndef PIMPHONY_TESTS_TEST_ARBITERS_HH
#define PIMPHONY_TESTS_TEST_ARBITERS_HH

#include <vector>

#include "sim/device.hh"

namespace pimphony {

/**
 * Decode before chunks, FIFO inside each kind, and chunks sliced at
 * @p chunk_quantum (<= 0: unsliced): a single-class order that takes
 * its own quantum, so device tests can drive slicing at any scale.
 */
class DecodeFirstArbiter : public sim::QueueArbiter
{
  public:
    explicit DecodeFirstArbiter(double chunk_quantum = 0.0)
        : chunkQuantum_(chunk_quantum)
    {
    }

    std::size_t
    pickNext(const std::vector<const sim::WorkItem *> &eligible)
        const override
    {
        for (std::size_t i = 0; i < eligible.size(); ++i)
            if (eligible[i]->kind == sim::WorkItem::Kind::DecodeCycle)
                return i;
        return 0;
    }

    double
    sliceSeconds(const sim::WorkItem &item) const override
    {
        return item.kind == sim::WorkItem::Kind::PrefillChunk
                   ? chunkQuantum_
                   : 0.0;
    }

  private:
    double chunkQuantum_;
};

} // namespace pimphony

#endif // PIMPHONY_TESTS_TEST_ARBITERS_HH
