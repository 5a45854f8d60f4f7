#include "dram/timing.hh"

#include "common/logging.hh"

namespace pimphony {

void
AimTimingParams::validate(const std::string &path) const
{
    requireField(path + "clockGhz", clockGhz, FieldRange::Positive);
    requireField(path + "tCcds", tCcds, 1);
    // A refresh that lasts a whole interval never lets a command issue.
    if (tRefi > 0 && tRfc >= tRefi)
        fatal("%stRfc must be below tRefi when refresh is on (got tRfc "
              "%llu, tRefi %llu)",
              path.c_str(), static_cast<unsigned long long>(tRfc),
              static_cast<unsigned long long>(tRefi));
    requireField(path + "gbufEntries", gbufEntries, 1);
    requireField(path + "outputEntries", outputEntries, 1);
}

AimTimingParams
AimTimingParams::aimx()
{
    return AimTimingParams{};
}

AimTimingParams
AimTimingParams::aimxWithObuf(unsigned obuf_entries)
{
    AimTimingParams p;
    p.outputEntries = obuf_entries;
    return p;
}

AimTimingParams
AimTimingParams::illustrative()
{
    AimTimingParams p;
    p.tCcds = 2;
    p.tWrInp = 4;
    p.tMac = 3;
    p.tRdOut = 4;
    p.tRcdRd = 0;
    p.tRp = 0;
    p.tRefi = 0; // disable refresh for the worked example
    p.tRfc = 0;
    p.outputEntries = 4;
    return p;
}

} // namespace pimphony
