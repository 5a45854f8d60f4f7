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

bool
SloAdmissionPolicy::admitPrefillAt(double observed_p95_gap,
                                   std::size_t gap_samples,
                                   bool decode_in_flight,
                                   double target_gap) const
{
    // The gate can only bind while decode work is in flight: with
    // nothing decoding there is no SLO pressure, and a binding gate
    // would deadlock admission (no event could ever clear it).
    if (!decode_in_flight || gap_samples < config_.sloMinSamples)
        return true;
    return observed_p95_gap <= config_.sloHeadroom * target_gap;
}

std::size_t
TierPriorityPolicy::pickNext(
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
TierPriorityPolicy::sliceSeconds(const sim::WorkItem &item) const
{
    if (item.kind == sim::WorkItem::Kind::PrefillChunk)
        return config_.preemptQuantumSeconds;
    // Lower-tier in-flight decode work is preempted at the
    // tier-inversion bound; tier-0 decode always runs unsliced.
    if (item.tier > 0)
        return config_.tierPreemptQuantumSeconds;
    return 0.0;
}

void
SchedPolicyConfig::validate(const std::string &path) const
{
    requireField(path + "preemptQuantumSeconds", preemptQuantumSeconds,
                 FieldRange::Finite);
    requireField(path + "sloTargetGapSeconds", sloTargetGapSeconds,
                 FieldRange::Finite);
    requireField(path + "sloHeadroom", sloHeadroom, FieldRange::Finite);
    requireField(path + "tierPreemptQuantumSeconds",
                 tierPreemptQuantumSeconds, FieldRange::Finite);
    const std::string policy = schedPolicyName(kind);
    auto used = [&](const char *field, double v) {
        requireField(path + field, v, FieldRange::Positive, policy.c_str());
    };
    switch (kind) {
      case SchedPolicyKind::Fifo:
        break;
      case SchedPolicyKind::TierPriority:
        used("preemptQuantumSeconds", preemptQuantumSeconds);
        break;
      case SchedPolicyKind::SloAdmission:
        used("sloTargetGapSeconds", sloTargetGapSeconds);
        used("sloHeadroom", sloHeadroom);
        used("sloWindow", sloWindow);
        // A window never holds more than sloWindow samples, so a
        // larger minimum would keep the gate open for good.
        if (sloMinSamples > sloWindow)
            fatal("%ssloMinSamples (%u) exceeds %ssloWindow (%u): the "
                  "%s gate could never bind",
                  path.c_str(), sloMinSamples, path.c_str(), sloWindow,
                  policy.c_str());
        break;
    }
}

std::unique_ptr<SchedPolicy>
makeSchedPolicy(const SchedPolicyConfig &config)
{
    config.validate();
    switch (config.kind) {
      case SchedPolicyKind::Fifo:
        return std::make_unique<FifoPolicy>(config);
      case SchedPolicyKind::SloAdmission:
        return std::make_unique<SloAdmissionPolicy>(config);
      case SchedPolicyKind::TierPriority:
        return std::make_unique<TierPriorityPolicy>(config);
    }
    fatal("unknown scheduling policy");
}

} // namespace pimphony
