#include "workload/trace.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <optional>

#include "workload/length_source.hh"

namespace pimphony {

namespace {

// Table II of the paper.
const TraceTaskStats kStats[] = {
    {"QMSum", "LongBench", 13966, 6182, 2651, 30456},
    {"Musique", "LongBench", 16362, 1651, 6820, 17917},
    {"multifieldqa", "LV-Eval", 60780, 31025, 20333, 119480},
    {"Loogle-SD", "LV-Eval", 50693, 26506, 13347, 109221},
};

} // namespace

const TraceTaskStats &
traceTaskStats(TraceTask task)
{
    return kStats[static_cast<int>(task)];
}

std::string
traceTaskName(TraceTask task)
{
    return traceTaskStats(task).name;
}

std::vector<TraceTask>
allTraceTasks()
{
    return {TraceTask::QMSum, TraceTask::Musique, TraceTask::MultifieldQa,
            TraceTask::LoogleSd};
}

/** A task's length model; exactly one member is set. */
struct TraceGenerator::LengthModel
{
    std::optional<TruncatedNormal> normal;
    std::optional<TruncatedLognormal> lognormal;
};

TraceGenerator::TraceGenerator(TraceTask task, std::uint64_t seed)
    : task_(task), rng_(seed)
{
    // Each task is fitted once per process: the lognormal fit
    // integrates numerically, 0.1-0.6 ms a task.
    static const auto models = [] {
        std::array<LengthModel, std::size(kStats)> out;
        for (std::size_t i = 0; i < out.size(); ++i) {
            const TraceTaskStats &s = kStats[i];
            if (s.stddev > 0.4 * s.mean) // heavy-tailed LV-Eval tasks
                out[i].lognormal.emplace(s.mean, s.stddev, s.min, s.max);
            else
                out[i].normal.emplace(s.mean, s.stddev, s.min, s.max);
        }
        return out;
    }();
    model_ = &models[static_cast<std::size_t>(task)];
}

Tokens
TraceGenerator::sampleLength()
{
    double v = model_->lognormal ? model_->lognormal->sample(rng_)
                                 : model_->normal->sample(rng_);
    return static_cast<Tokens>(std::llround(v));
}

std::vector<Request>
TraceGenerator::generate(std::size_t n, Tokens decode_tokens)
{
    requireDecodeTokens("TraceGenerator::generate decode_tokens",
                        decode_tokens);
    std::vector<Request> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Request r;
        r.id = next_++;
        r.contextTokens = sampleLength();
        r.decodeTokens = decode_tokens;
        r.cls = cls_;
        out.push_back(r);
    }
    return out;
}

void
assignRequestClassesRoundRobin(std::vector<Request> &requests,
                               const std::vector<RequestClass> &classes)
{
    if (classes.empty())
        return;
    for (std::size_t i = 0; i < requests.size(); ++i)
        requests[i].cls = classes[i % classes.size()];
}

std::vector<Request>
TraceGenerator::generateScaled(std::size_t n, Tokens target_mean,
                               Tokens decode_tokens)
{
    auto reqs = generate(n, decode_tokens);
    const TraceTaskStats &s = traceTaskStats(task_);
    double scale = static_cast<double>(target_mean) / s.mean;
    for (auto &r : reqs) {
        double scaled = static_cast<double>(r.contextTokens) * scale;
        r.contextTokens =
            std::max<Tokens>(16, static_cast<Tokens>(std::llround(scaled)));
    }
    return reqs;
}

} // namespace pimphony
