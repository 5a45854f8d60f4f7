#include "workload/spec.hh"

#include <optional>
#include <string>

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

/** Whether @p spec declares shared prefixes at all. */
bool
prefixesOn(const PrefixSpec &spec)
{
    return spec.share > 0.0 && spec.tokens > 0;
}

/**
 * Stamp @p r with a pooled prefix if it draws one its context can
 * hold. Inert (no randomness drawn) unless the spec declares
 * prefixes, so prefix-free specs keep building bit-identical
 * workloads.
 */
void
stampPrefix(const PrefixSpec &spec, Rng &rng, Request &r)
{
    if (!prefixesOn(spec))
        return;
    double u = rng.uniform();
    double v = rng.uniform(); // always drawn: stable stream
    if (u >= spec.share || r.contextTokens < spec.tokens)
        return;
    auto idx = static_cast<std::uint64_t>(v * static_cast<double>(spec.pool));
    if (idx >= spec.pool)
        idx = spec.pool - 1;
    // xxhash-style avalanche, masked to 53 bits so the hash
    // round-trips exactly through the numeric trace format.
    std::uint64_t h = (idx + 1) * 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    h &= (1ULL << 53) - 1;
    r.prefixHash = h ? h : 1;
    r.prefixTokens = spec.tokens;
}

} // namespace

void
WorkloadSpec::validate() const
{
    switch (length.kind) {
      case LengthSourceKind::TableTask:
        requireDecodeTokens("WorkloadSpec::length.decodeTokens",
                            length.decodeTokens);
        break;
      case LengthSourceKind::Pairs:
        if (length.pairs.empty())
            fatal("WorkloadSpec::length.pairs: the Pairs length source "
                  "needs at least one (prompt, output) pair");
        for (std::size_t i = 0; i < length.pairs.size(); ++i)
            requireDecodeTokens("WorkloadSpec::length.pairs[" +
                                    std::to_string(i) + "].decodeTokens",
                                length.pairs[i].decodeTokens);
        break;
      case LengthSourceKind::Histogram:
        // LengthHistogram::add() checked each bin.
        if (length.histogram.empty())
            fatal("WorkloadSpec::length.histogram: the Histogram length "
                  "source needs at least one bin");
        break;
    }
    makeArrivalProcess(arrival);
    for (std::size_t i = 0; i < classes.size(); ++i)
        requireField("WorkloadSpec::classes[" + std::to_string(i) +
                         "].gapSloSeconds",
                     classes[i].gapSloSeconds, FieldRange::NonNegative);
    requireField("WorkloadSpec::session.turns", session.turns, 1);
    requireField("WorkloadSpec::session.thinkMeanSeconds",
                 session.thinkMeanSeconds, FieldRange::NonNegative);
    requireField("WorkloadSpec::prefix.share", prefix.share,
                 FieldRange::Fraction);
    if (prefixesOn(prefix))
        requireField("WorkloadSpec::prefix.pool", prefix.pool, 1);
}

BuiltWorkload
buildWorkload(const WorkloadSpec &spec, std::uint64_t seed)
{
    spec.validate();
    // One length stream, drawn in generation order whichever source
    // the spec names, so session turns and standalone requests draw
    // alike.
    const LengthSpec &length = spec.length;
    std::optional<TraceGenerator> table;
    if (length.kind == LengthSourceKind::TableTask)
        table.emplace(length.task, workloadLengthSeed(seed));
    Rng length_rng(workloadLengthSeed(seed));
    std::size_t next_pair = 0;
    auto nextLength = [&]() -> LengthPair {
        switch (length.kind) {
          case LengthSourceKind::TableTask:
            return {table->sampleLength(), length.decodeTokens};
          case LengthSourceKind::Pairs:
            return length.pairs[next_pair++ % length.pairs.size()];
          case LengthSourceKind::Histogram:
            return length.histogram.sample(length_rng);
        }
        fatal("unknown length source kind");
    };
    Rng prefix_rng(workloadPrefixSeed(seed));
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
        // Open-loop: one request per arrival, the TraceGenerator-
        // plus-attachArrivals composition bit for bit.
        out.initial.reserve(spec.count);
        for (std::size_t i = 0; i < spec.count; ++i) {
            LengthPair p = nextLength();
            Request r(static_cast<RequestId>(i), p.promptTokens,
                      p.decodeTokens, classOf(i));
            stampPrefix(spec.prefix, prefix_rng, r);
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
            LengthPair p = nextLength();
            Tokens ctx = spec.session.carryHistory
                             ? history + p.promptTokens
                             : p.promptTokens;
            Request r(base + k, ctx, p.decodeTokens, cls);
            r.session = static_cast<SessionId>(s + 1);
            r.turn = k;
            if (k == 0) {
                // A prefix opens the session.
                stampPrefix(spec.prefix, prefix_rng, r);
                out.initial.push_back({r, start});
            } else {
                double think = 0.0;
                if (spec.session.thinkMeanSeconds > 0.0)
                    think = think_rng.exponential() *
                            spec.session.thinkMeanSeconds;
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
