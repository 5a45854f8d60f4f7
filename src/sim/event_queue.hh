/**
 * @file
 * Discrete-event queue keyed by simulated time.
 *
 * The serving engine's event-driven core schedules per-cohort,
 * per-stage work completions and open-loop request arrivals as
 * events; the queue pops them in (time, insertion-order) order so
 * simultaneous events run FIFO.
 *
 * Performance contract (sweep scale): events carry a small-buffer
 * callback (sim::SimFn) stored inline in the heap's backing vector,
 * so scheduling and dispatching an event performs no per-event heap
 * allocation on the common paths — the backing vector reallocates
 * only on high-water growth and is reusable across runs. The heap
 * is hand-rolled (binary, (time, seq)-ordered) so push/pop move
 * events instead of copying their callbacks.
 */

#ifndef PIMPHONY_SIM_EVENT_QUEUE_HH
#define PIMPHONY_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/small_fn.hh"

namespace pimphony {
namespace sim {

class EventQueue
{
  public:
    using Callback = SimFn;

    /** Time of the most recently dispatched event. */
    double now() const { return now_; }

    /**
     * Schedule @p fn at absolute simulated time @p time. Times
     * earlier than now() are clamped to now() (a causally "late"
     * hand-off runs immediately).
     */
    void schedule(double time, Callback fn);

    bool empty() const { return heap_.empty(); }
    std::size_t pending() const { return heap_.size(); }

    /** Events dispatched so far (throughput accounting). */
    std::uint64_t dispatched() const { return dispatched_; }

    /** Dispatch the earliest event. @return false when empty. */
    bool runOne();

    /** Dispatch events until the queue drains. */
    void runAll();

    /**
     * Dispatch every event scheduled at or before @p horizon
     * (inclusive), in the same (time, seq) order runAll() would use,
     * and stop with later events still pending. Interleaving
     * runUntil() calls with increasing horizons dispatches exactly
     * the runAll() sequence — the property the fleet simulation's
     * conservative time windows rely on. now() stays at the last
     * dispatched event (not @p horizon), so a later schedule()
     * between windows is never clamped forward.
     */
    void runUntil(double horizon);

  private:
    struct Event
    {
        double time;
        std::uint64_t seq;
        Callback fn;
    };

    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.time != b.time)
            return a.time < b.time;
        return a.seq < b.seq;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    std::vector<Event> heap_;
    double now_ = 0.0;
    std::uint64_t seq_ = 0;
    std::uint64_t dispatched_ = 0;
};

} // namespace sim
} // namespace pimphony

#endif // PIMPHONY_SIM_EVENT_QUEUE_HH
