#include "workload/trace.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

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

TraceGenerator::TraceGenerator(TraceTask task, std::uint64_t seed)
    : task_(task), rng_(seed)
{
    const TraceTaskStats &s = traceTaskStats(task_);
    if (s.stddev > 0.4 * s.mean) {
        // Heavy-tailed LV-Eval-style tasks.
        lognormal_ = std::make_unique<TruncatedLognormal>(
            s.mean, s.stddev, s.min, s.max);
    } else {
        normal_ = std::make_unique<TruncatedNormal>(s.mean, s.stddev,
                                                    s.min, s.max);
    }
}

Tokens
TraceGenerator::sampleLength()
{
    double v = lognormal_ ? lognormal_->sample(rng_)
                          : normal_->sample(rng_);
    return static_cast<Tokens>(std::llround(v));
}

std::vector<Request>
TraceGenerator::generate(std::size_t n, Tokens decode_tokens)
{
    if (decode_tokens == 0)
        fatal("requests must decode at least one token");
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
