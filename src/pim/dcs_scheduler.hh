/**
 * @file
 * Dynamic PIM Command Scheduling (DCS), Sec. V-C of the paper.
 *
 * The controller splits arriving commands into an I/O transfer queue
 * (WR-INP, RD-OUT) and a compute queue (MAC). Queues are in-order
 * internally but issue out-of-order with respect to each other. A
 * Dependency Table (D-Table) records, per GBuf and per OBuf entry,
 * the most recent command that accessed it; each new command receives
 * that command's ID as its Dependency ID (DID). A Status Table
 * (S-Table) records, per entry, the last accessor and the cycle at
 * which its access completes, plus an is-MAC flag that lets
 * consecutive MACs accumulating into the same OBuf entry chain at the
 * minimum tCCDS interval instead of waiting tMAC.
 */

#ifndef PIMPHONY_PIM_DCS_SCHEDULER_HH
#define PIMPHONY_PIM_DCS_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "pim/scheduler.hh"

namespace pimphony {

/** One S-Table row: who touched the entry and when they finish. */
struct STableEntry
{
    CommandId id = kNoCommand;
    Cycle expire = 0;
    bool isMac = false;
};

class DcsScheduler : public CommandScheduler
{
  public:
    using CommandScheduler::CommandScheduler;

    ScheduleResult schedule(const CommandStream &stream,
                            bool keep_timeline = false) override;

    /**
     * Hardware cost of the dependency-tracking structures in bytes:
     * one D-Table ID and one S-Table row per GBuf and OBuf entry.
     * The paper reports 576 B of metadata per controller.
     */
    // paper component: the 576 B D-Table plus S-Table of Sec. V-C
    Bytes metadataBytes() const;
};

} // namespace pimphony

#endif // PIMPHONY_PIM_DCS_SCHEDULER_HH
