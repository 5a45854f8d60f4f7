/**
 * @file
 * Dynamic PIM Command Scheduling (DCS), Sec. V-C of the paper.
 *
 * The controller splits arriving commands into an I/O transfer queue
 * (WR-INP, RD-OUT) and a compute queue (MAC). Queues are in-order
 * internally but issue out-of-order with respect to each other. The
 * paper's D-Table and S-Table keep one row per GBuf and per OBuf
 * entry; so does the model. A row holds the kind and completion
 * cycle of the last command issued on the entry, and how many
 * commands on it the queue running ahead has passed without their
 * issuing. A command waits while its entry holds such a command, so
 * the commands on one entry issue in program order; the last one
 * issued is then the one it depends on, and it waits for that one to
 * complete. The exception is the is-MAC flag: consecutive MACs reading
 * one GBuf entry or accumulating into one OBuf entry chain at the
 * minimum tCCDS interval instead of waiting tMAC.
 */

#ifndef PIMPHONY_PIM_DCS_SCHEDULER_HH
#define PIMPHONY_PIM_DCS_SCHEDULER_HH

#include "pim/scheduler.hh"

namespace pimphony {

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
