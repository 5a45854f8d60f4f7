#include "pim/dcs_scheduler.hh"

#include <cstdint>
#include <utility>
#include <vector>

namespace pimphony {

Bytes
DcsScheduler::metadataBytes() const
{
    // Per entry: D-Table ID (2 B) + S-Table {id 2 B, expire 4 B,
    // flags 1 B}, for every GBuf and output entry, mirroring the
    // paper's 576 B per-controller metadata estimate.
    unsigned entries = params_.gbufEntries + params_.outputEntries;
    return static_cast<Bytes>(entries) * (2 + 2 + 4 + 1);
}

ScheduleResult
DcsScheduler::schedule(const CommandStream &stream, bool keep_timeline)
{
    /** One table row: a GBuf or output entry. */
    struct Entry
    {
        /** Completion cycle of the last command issued on the entry;
         *  0 (never delays anything) while none has. */
        Cycle complete = 0;

        /** Kind of that command: a MAC after a MAC chains (is-MAC). */
        CommandKind kind = CommandKind::Mac;

        /** Commands on the entry the leading queue has passed and
         *  that have not issued yet. */
        std::int32_t held = 0;
    };

    struct Rule
    {
        std::vector<Entry> gbuf;
        std::vector<Entry> obuf;

        /** The entries @p c touches; null for an unused operand. */
        std::pair<Entry *, Entry *>
        entries(const PimCommand &c)
        {
            Entry *g = nullptr;
            Entry *o = nullptr;
            if (c.kind != CommandKind::RdOut) {
                if (c.gbufIdx < 0 ||
                    c.gbufIdx >= static_cast<std::int32_t>(gbuf.size()))
                    panic("%s gbuf index %d out of range",
                          c.kind == CommandKind::Mac ? "MAC" : "WR-INP",
                          c.gbufIdx);
                g = &gbuf[c.gbufIdx];
            }
            if (c.kind != CommandKind::WrInp) {
                if (c.outIdx < 0 ||
                    c.outIdx >= static_cast<std::int32_t>(obuf.size()))
                    panic("%s out index %d out of range (outputEntries=%zu)",
                          c.kind == CommandKind::Mac ? "MAC" : "RD-OUT",
                          c.outIdx, obuf.size());
                o = &obuf[c.outIdx];
            }
            return {g, o};
        }

        Readiness
        ready(const PimCommand &c, bool, bool lead)
        {
            Readiness r;
            auto [g, o] = entries(c);
            for (const Entry *e : {g, o}) {
                if (!e)
                    continue;
                // A passed command on the entry precedes this one and
                // has not issued: its completion is not known yet.
                if (lead && e->held > 0)
                    return {kNever};
                // Read-after-read on a GBuf entry carries no hazard,
                // and consecutive MACs on an OBuf entry chain at tCCDS
                // (is-MAC): the bus spacing suffices.
                if (c.kind == CommandKind::Mac && e->kind == CommandKind::Mac)
                    continue;
                if (e->complete > r.at) {
                    // Bus idle time waiting for the binding
                    // dependency is a stall of its kind.
                    r.at = e->complete;
                    r.cause = e->kind;
                    r.charged = true;
                }
            }
            return r;
        }

        void
        hold(const PimCommand &c, int delta)
        {
            auto [g, o] = entries(c);
            for (Entry *e : {g, o})
                if (e)
                    e->held += delta;
        }

        void
        onIssue(const PimCommand &c, bool, Issued at)
        {
            auto [g, o] = entries(c);
            for (Entry *e : {g, o}) {
                if (e) {
                    e->complete = at.complete;
                    e->kind = c.kind;
                }
            }
        }
    } rule{std::vector<Entry>(params_.gbufEntries),
           std::vector<Entry>(params_.outputEntries)};
    return scheduleTwoQueues(stream, keep_timeline, rule, "DCS");
}

} // namespace pimphony
