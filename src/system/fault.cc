#include "system/fault.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pimphony {

FaultEvent
crashAt(double at_seconds, double drain_seconds)
{
    FaultEvent e;
    e.kind = FaultEvent::Kind::Crash;
    e.atSeconds = at_seconds;
    e.drainSeconds = drain_seconds;
    return e;
}

FaultEvent
degradeAt(double at_seconds, double slowdown_factor,
          double duration_seconds)
{
    FaultEvent e;
    e.kind = FaultEvent::Kind::Degrade;
    e.atSeconds = at_seconds;
    e.slowdownFactor = slowdown_factor;
    e.durationSeconds = duration_seconds;
    return e;
}

FaultEvent
recoverAt(double at_seconds, double model_reload_seconds)
{
    FaultEvent e;
    e.kind = FaultEvent::Kind::Recover;
    e.atSeconds = at_seconds;
    e.modelReloadSeconds = model_reload_seconds;
    return e;
}

std::string
faultKindName(FaultEvent::Kind kind)
{
    switch (kind) {
      case FaultEvent::Kind::Crash:   return "crash";
      case FaultEvent::Kind::Degrade: return "degrade";
      case FaultEvent::Kind::Recover: return "recover";
    }
    return "?";
}

bool
FaultSchedule::empty() const
{
    for (const auto &events : replicas)
        if (!events.empty())
            return false;
    return true;
}

std::size_t
FaultSchedule::eventCount() const
{
    std::size_t n = 0;
    for (const auto &events : replicas)
        n += events.size();
    return n;
}

void
FaultSchedule::validate(unsigned fleet_replicas) const
{
    // Empty slots beyond the fleet are harmless: an empty schedule
    // of any shape validates.
    for (std::size_t r = fleet_replicas; r < replicas.size(); ++r)
        if (!replicas[r].empty())
            fatal("FaultSchedule: events scripted for replica %zu of "
                  "a %u-replica fleet",
                  r, fleet_replicas);
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        double last = 0.0;
        bool down = false;
        for (std::size_t i = 0; i < replicas[r].size(); ++i) {
            const FaultEvent &e = replicas[r][i];
            if (!(e.atSeconds >= 0.0))
                fatal("FaultSchedule: replica %zu event %zu (%s) at "
                      "negative time %.17g",
                      r, i, faultKindName(e.kind).c_str(),
                      e.atSeconds);
            if (e.atSeconds < last)
                fatal("FaultSchedule: replica %zu events out of "
                      "order at index %zu (%.17g after %.17g)",
                      r, i, e.atSeconds, last);
            last = e.atSeconds;
            switch (e.kind) {
              case FaultEvent::Kind::Crash:
                if (down)
                    fatal("FaultSchedule: replica %zu crashes again "
                          "at %.17g while still down",
                          r, e.atSeconds);
                if (e.drainSeconds < 0.0)
                    fatal("FaultSchedule: negative drainSeconds");
                down = true;
                break;
              case FaultEvent::Kind::Recover:
                if (!down)
                    fatal("FaultSchedule: replica %zu recovers at "
                          "%.17g without a preceding crash",
                          r, e.atSeconds);
                if (e.modelReloadSeconds < 0.0)
                    fatal("FaultSchedule: negative modelReloadSeconds");
                down = false;
                break;
              case FaultEvent::Kind::Degrade:
                if (!(e.slowdownFactor > 0.0))
                    fatal("FaultSchedule: replica %zu degrade at "
                          "%.17g with nonpositive slowdown %.17g",
                          r, e.atSeconds, e.slowdownFactor);
                if (!(e.durationSeconds > 0.0))
                    fatal("FaultSchedule: replica %zu degrade at "
                          "%.17g with nonpositive duration",
                          r, e.atSeconds);
                break;
            }
        }
    }
}

FaultSchedule
buildFaultSchedule(const FaultSpec &spec, std::uint64_t seed)
{
    FaultSchedule schedule;
    schedule.replicas.resize(spec.replicas);
    if (spec.mtbfSeconds <= 0.0 || spec.horizonSeconds <= 0.0)
        return schedule;

    for (unsigned r = 0; r < spec.replicas; ++r) {
        // Per-replica stream: splitmix64-style mix of (seed, r), so
        // replica i's fault history is independent of the fleet size
        // and of the other replicas' draws.
        std::uint64_t mixed =
            seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(r) + 1);
        mixed ^= mixed >> 30;
        mixed *= 0xbf58476d1ce4e5b9ULL;
        mixed ^= mixed >> 27;
        Rng rng(mixed);
        auto expo = [&rng](double mean) {
            // Inverse-CDF exponential; uniform() < 1 keeps log finite.
            return -mean * std::log(1.0 - rng.uniform());
        };
        std::vector<FaultEvent> &events = schedule.replicas[r];
        double t = 0.0;
        for (;;) {
            t += expo(spec.mtbfSeconds);
            if (t >= spec.horizonSeconds)
                break;
            if (rng.uniform() < spec.degradeProbability) {
                double duration = expo(spec.mttrSeconds);
                events.push_back(
                    degradeAt(t, spec.slowdownFactor, duration));
                t += duration;
            } else {
                double repair = expo(spec.mttrSeconds);
                events.push_back(crashAt(t, spec.drainSeconds));
                events.push_back(recoverAt(
                    t + spec.drainSeconds + repair,
                    spec.modelReloadSeconds));
                t += spec.drainSeconds + repair +
                     spec.modelReloadSeconds;
            }
        }
    }
    schedule.validate(spec.replicas);
    return schedule;
}

} // namespace pimphony
