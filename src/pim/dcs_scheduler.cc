#include "pim/dcs_scheduler.hh"

namespace pimphony {

namespace {

/** Dependency of one command on an earlier command's completion. */
struct Dependency
{
    CommandId on = kNoCommand;

    /** True when issue may chain at tCCDS without completion wait
     *  (consecutive MACs on the same OBuf entry, via is-MAC). */
    bool chain = false;

    /** Kind of the dependency target, for stall attribution. */
    CommandKind kind = CommandKind::Mac;
};

struct DepSet
{
    Dependency gbuf;
    Dependency obuf;
};

} // namespace

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
    const auto &cmds = stream.commands();

    // --- D-Table pass: assign dependency IDs in program order. ---
    std::vector<CommandId> gbuf_last(params_.gbufEntries, kNoCommand);
    std::vector<CommandId> obuf_last(params_.outputEntries, kNoCommand);
    std::vector<DepSet> deps(cmds.size());

    auto kind_of = [&](CommandId id) { return cmds[id].kind; };

    for (std::size_t i = 0; i < cmds.size(); ++i) {
        const PimCommand &c = cmds[i];
        DepSet d;
        switch (c.kind) {
          case CommandKind::WrInp: {
            if (c.gbufIdx < 0 ||
                c.gbufIdx >= static_cast<std::int32_t>(params_.gbufEntries))
                panic("WR-INP gbuf index %d out of range", c.gbufIdx);
            CommandId last = gbuf_last[c.gbufIdx];
            if (last != kNoCommand)
                d.gbuf = {last, false, kind_of(last)};
            gbuf_last[c.gbufIdx] = c.id;
            break;
          }
          case CommandKind::Mac: {
            if (c.gbufIdx < 0 ||
                c.gbufIdx >= static_cast<std::int32_t>(params_.gbufEntries))
                panic("MAC gbuf index %d out of range", c.gbufIdx);
            if (c.outIdx < 0 ||
                c.outIdx >= static_cast<std::int32_t>(params_.outputEntries))
                panic("MAC out index %d out of range (outputEntries=%u)",
                      c.outIdx, params_.outputEntries);
            CommandId g = gbuf_last[c.gbufIdx];
            if (g != kNoCommand) {
                // Read-after-read on a GBuf entry carries no hazard:
                // a MAC whose predecessor on the entry was another
                // MAC may issue as soon as the bus allows.
                bool read_chain = kind_of(g) == CommandKind::Mac;
                d.gbuf = {g, read_chain, kind_of(g)};
            }
            CommandId o = obuf_last[c.outIdx];
            if (o != kNoCommand) {
                // is-MAC: consecutive MACs on the same OBuf entry
                // chain at tCCDS; a RD-OUT must fully drain first.
                bool chain = kind_of(o) == CommandKind::Mac;
                d.obuf = {o, chain, kind_of(o)};
            }
            gbuf_last[c.gbufIdx] = c.id;
            obuf_last[c.outIdx] = c.id;
            break;
          }
          case CommandKind::RdOut: {
            if (c.outIdx < 0 ||
                c.outIdx >= static_cast<std::int32_t>(params_.outputEntries))
                panic("RD-OUT out index %d out of range", c.outIdx);
            CommandId o = obuf_last[c.outIdx];
            if (o != kNoCommand)
                d.obuf = {o, false, kind_of(o)};
            obuf_last[c.outIdx] = c.id;
            break;
          }
        }
        deps[i] = d;
    }

    // --- Issue: a head is ready once its dependencies complete. ---
    struct Rule
    {
        const std::vector<DepSet> &deps;

        Readiness
        ready(std::size_t idx, bool, const std::vector<bool> &issued,
              const std::vector<Cycle> &complete) const
        {
            Readiness r;
            auto consider = [&](const Dependency &dep) {
                if (dep.on == kNoCommand || r.at == kNever)
                    return;
                if (!issued[dep.on]) {
                    r.at = kNever;
                    return;
                }
                if (dep.chain)
                    return; // bus spacing suffices (is-MAC chaining)
                if (complete[dep.on] > r.at) {
                    // Bus idle time waiting for the binding
                    // dependency is a stall of its kind.
                    r.at = complete[dep.on];
                    r.cause = dep.kind;
                    r.charged = true;
                }
            };
            consider(deps[idx].gbuf);
            consider(deps[idx].obuf);
            return r;
        }

        void onIssue(std::size_t, bool, Issued) {}
    } rule{deps};
    return scheduleTwoQueues(stream, keep_timeline, rule, "DCS");
}

} // namespace pimphony
