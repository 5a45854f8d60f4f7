#include "workload/spec.hh"

#include <cmath>

#include "common/logging.hh"

namespace pimphony {

// Golden-ratio / xxhash odd constants: cheap, stable stream salts.
// The length stream keeps the build seed itself so a TableTask spec
// reproduces TraceGenerator(task, seed) exactly.
std::uint64_t
workloadLengthSeed(std::uint64_t build_seed)
{
    return build_seed;
}

std::uint64_t
workloadArrivalSeed(std::uint64_t build_seed)
{
    return build_seed ^ 0x9e3779b97f4a7c15ULL;
}

std::uint64_t
workloadSessionSeed(std::uint64_t build_seed)
{
    return build_seed ^ 0xc2b2ae3d27d4eb4fULL;
}

std::uint64_t
workloadPrefixSeed(std::uint64_t build_seed)
{
    return build_seed ^ 0xa0761d6478bd642fULL;
}

std::unique_ptr<ArrivalProcess>
makeArrivalProcess(const ArrivalSpec &arrival)
{
    switch (arrival.kind) {
      case ArrivalKind::Immediate:
        return std::make_unique<ImmediateProcess>();
      case ArrivalKind::Poisson:
        return std::make_unique<PoissonProcess>(arrival.ratePerSecond);
      case ArrivalKind::Gamma:
        return std::make_unique<GammaProcess>(arrival.ratePerSecond,
                                              arrival.cv);
      case ArrivalKind::OnOff:
        return std::make_unique<OnOffProcess>(arrival.onOff);
      case ArrivalKind::RateCurve:
        return std::make_unique<PiecewiseRateCurve>(arrival.curve);
    }
    fatal("unknown arrival kind");
}

namespace {

/**
 * Sequential (prompt, output) draws for one build: whichever source
 * the spec names, draws advance a single stream so session turns and
 * standalone requests consume lengths in generation order.
 */
class LengthDraws
{
  public:
    LengthDraws(const LengthSpec &spec, std::uint64_t length_seed)
        : spec_(spec), rng_(length_seed)
    {
        switch (spec_.kind) {
          case LengthSourceKind::TableTask:
            if (spec_.decodeTokens == 0)
                fatal("requests must decode at least one token");
            generator_ = std::make_unique<TraceGenerator>(spec_.task,
                                                          length_seed);
            break;
          case LengthSourceKind::Pairs:
            if (spec_.pairs.empty())
                fatal("WorkloadSpec: Pairs length source needs at "
                      "least one (prompt, output) pair");
            break;
          case LengthSourceKind::Histogram:
            if (spec_.histogram.empty())
                fatal("WorkloadSpec: Histogram length source needs "
                      "at least one bin");
            break;
        }
    }

    LengthPair
    next()
    {
        switch (spec_.kind) {
          case LengthSourceKind::TableTask:
            return {generator_->sampleLength(), spec_.decodeTokens};
          case LengthSourceKind::Pairs: {
            const LengthPair &p =
                spec_.pairs[nextPair_ % spec_.pairs.size()];
            ++nextPair_;
            return p;
          }
          case LengthSourceKind::Histogram:
            return spec_.histogram.sample(rng_);
        }
        fatal("unknown length source kind");
    }

  private:
    const LengthSpec &spec_;
    Rng rng_;
    std::unique_ptr<TraceGenerator> generator_;
    std::size_t nextPair_ = 0;
};

/**
 * Pooled shared-prefix draws. Inert (no randomness consumed, nothing
 * stamped) unless the spec declares prefixes, so prefix-free specs
 * keep building bit-identical workloads.
 */
class PrefixDraws
{
  public:
    PrefixDraws(const PrefixSpec &spec, std::uint64_t prefix_seed)
        : spec_(spec), rng_(prefix_seed),
          active_(spec.share > 0.0 && spec.tokens > 0)
    {
        if (active_ && spec_.pool == 0)
            fatal("WorkloadSpec: prefix pool must be >= 1");
    }

    /** Stamp @p r if it draws a pooled prefix its context can hold. */
    void
    stamp(Request &r)
    {
        if (!active_)
            return;
        double u = rng_.uniform();
        double v = rng_.uniform(); // always drawn: stable stream
        if (u >= spec_.share || r.contextTokens < spec_.tokens)
            return;
        auto idx = static_cast<std::uint64_t>(
            v * static_cast<double>(spec_.pool));
        if (idx >= spec_.pool)
            idx = spec_.pool - 1;
        // xxhash-style avalanche, masked to 53 bits so the hash
        // round-trips exactly through the numeric trace format.
        std::uint64_t h = (idx + 1) * 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ULL;
        h ^= h >> 33;
        h &= (1ULL << 53) - 1;
        r.prefixHash = h ? h : 1;
        r.prefixTokens = spec_.tokens;
    }

  private:
    const PrefixSpec &spec_;
    Rng rng_;
    bool active_;
};

} // namespace

BuiltWorkload
buildWorkload(const WorkloadSpec &spec, std::uint64_t seed)
{
    if (spec.session.turns == 0)
        fatal("WorkloadSpec: session.turns must be >= 1");
    if (!std::isfinite(spec.session.thinkMeanSeconds) ||
        spec.session.thinkMeanSeconds < 0.0)
        fatal("WorkloadSpec: session.thinkMeanSeconds must be finite "
              "and >= 0 (got %g)", spec.session.thinkMeanSeconds);

    LengthDraws lengths(spec.length, workloadLengthSeed(seed));
    PrefixDraws prefixes(spec.prefix, workloadPrefixSeed(seed));
    auto process = makeArrivalProcess(spec.arrival);
    process->reset(workloadArrivalSeed(seed));

    auto classOf = [&spec](std::size_t i) -> RequestClass {
        if (spec.classes.empty())
            return RequestClass{};
        return spec.classes[i % spec.classes.size()];
    };

    BuiltWorkload out;
    const unsigned turns = spec.session.turns;
    if (turns <= 1) {
        // Open-loop: one request per arrival, the legacy
        // generator-plus-arrivals composition bit for bit.
        out.initial.reserve(spec.count);
        for (std::size_t i = 0; i < spec.count; ++i) {
            LengthPair p = lengths.next();
            Request r(static_cast<RequestId>(i), p.promptTokens,
                      p.decodeTokens, classOf(i));
            prefixes.stamp(r);
            out.initial.push_back({r, process->next()});
        }
        sortByArrival(out.initial);
        return out;
    }

    // Sessions: count sessions of `turns` turns each. The arrival
    // process times the session openings (turn 0); later turns chain
    // closed-loop through the SessionBook with exponential think
    // times from their own stream.
    Rng think_rng(workloadSessionSeed(seed));
    out.initial.reserve(spec.count);
    out.sessions.reserve(spec.count * (turns - 1));
    for (std::size_t s = 0; s < spec.count; ++s) {
        double start = process->next();
        RequestClass cls = classOf(s);
        auto base = static_cast<RequestId>(s * turns);
        Tokens history = 0;
        for (unsigned k = 0; k < turns; ++k) {
            LengthPair p = lengths.next();
            Tokens ctx = spec.session.carryHistory
                             ? history + p.promptTokens
                             : p.promptTokens;
            Request r(base + k, ctx, p.decodeTokens, cls);
            r.session = static_cast<SessionId>(s + 1);
            r.turn = k;
            if (k == 0) {
                prefixes.stamp(r); // a prefix opens the session
                out.initial.push_back({r, start});
            } else {
                double think = 0.0;
                if (spec.session.thinkMeanSeconds > 0.0) {
                    double u = think_rng.uniform();
                    if (u <= 0.0)
                        u = 1e-12;
                    think = -std::log(u) *
                            spec.session.thinkMeanSeconds;
                }
                out.sessions.emplace(base + k - 1,
                                     SessionTurn{r, think});
            }
            history += p.promptTokens + p.decodeTokens;
        }
    }
    sortByArrival(out.initial);
    return out;
}

} // namespace pimphony
