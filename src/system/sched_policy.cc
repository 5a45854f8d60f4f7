#include "system/sched_policy.hh"

#include "common/logging.hh"

namespace pimphony {

std::string
schedPolicyName(SchedPolicyKind kind)
{
    switch (kind) {
      case SchedPolicyKind::Fifo:         return "fifo";
      case SchedPolicyKind::SloAdmission: return "slo-admission";
      case SchedPolicyKind::TierPriority: return "tier-priority";
    }
    return "?";
}

std::vector<SchedPolicyKind>
allSchedPolicies()
{
    return {SchedPolicyKind::Fifo, SchedPolicyKind::SloAdmission,
            SchedPolicyKind::TierPriority};
}

std::size_t
TierPriorityArbiter::pickNext(
    const std::vector<const sim::WorkItem *> &eligible) const
{
    // Strict bands: (tier, kind) ascending with decode before chunks
    // inside one tier; FIFO (first occurrence) inside a band.
    std::size_t best = 0;
    auto band = [](const sim::WorkItem &w) {
        return (static_cast<std::uint64_t>(w.tier) << 1) |
               (w.kind == sim::WorkItem::Kind::PrefillChunk ? 1u : 0u);
    };
    std::uint64_t best_band = band(*eligible[0]);
    for (std::size_t i = 1; i < eligible.size(); ++i) {
        std::uint64_t b = band(*eligible[i]);
        if (b < best_band) {
            best_band = b;
            best = i;
        }
    }
    return best;
}

double
TierPriorityArbiter::sliceSeconds(const sim::WorkItem &item) const
{
    if (item.kind == sim::WorkItem::Kind::PrefillChunk)
        return kPreemptQuantumSeconds;
    // Lower-tier in-flight decode work is preempted at the
    // tier-inversion bound; tier-0 decode always runs unsliced.
    if (item.tier > 0)
        return kTierPreemptQuantumSeconds;
    return 0.0;
}

void
SchedPolicyConfig::validate(const std::string &path) const
{
    requireField(path + "sloTargetGapSeconds", sloTargetGapSeconds,
                 FieldRange::Finite);
    if (kind == SchedPolicyKind::SloAdmission)
        requireField(path + "sloTargetGapSeconds", sloTargetGapSeconds,
                     FieldRange::Positive, schedPolicyName(kind).c_str());
}

} // namespace pimphony
