#include "core/orchestrator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "workload/length_source.hh"

namespace pimphony {

PimphonyOrchestrator::PimphonyOrchestrator(OrchestratorConfig config)
    : config_(std::move(config))
{
    engineOptions().validate("OrchestratorConfig::");
    requireDecodeTokens("OrchestratorConfig::decodeTokens",
                        config_.decodeTokens);
}

EngineOptions
PimphonyOrchestrator::engineOptions() const
{
    EngineOptions opts;
    // The shared serving knobs travel as one block (the
    // ServingOptions base both structs embed).
    static_cast<ServingOptions &>(opts) = config_;
    opts.allocator = config_.options.allocatorKind();
    return opts;
}

ClusterConfig
PimphonyOrchestrator::cluster() const
{
    ClusterConfig c = config_.system == SystemKind::PimOnly
        ? ClusterConfig::centLike(config_.model)
        : ClusterConfig::neupimsLike(config_.model);
    if (config_.modulesOverride != 0) {
        c.nModules = config_.modulesOverride;
        c.plan = ParallelPlan{c.nModules, 1};
    }
    applyOptions(c, config_.options);
    return c;
}

std::vector<ParallelPlan>
PimphonyOrchestrator::candidatePlans() const
{
    ClusterConfig c = cluster();
    std::vector<ParallelPlan> plans;
    for (unsigned tp = 1; tp <= c.nModules; tp *= 2) {
        unsigned pp = c.nModules / tp;
        if (tp * pp != c.nModules)
            continue;
        // PP cannot exceed the layer count.
        if (pp > config_.model.nLayers)
            continue;
        plans.push_back(ParallelPlan{tp, pp});
    }
    return plans;
}

EvaluationResult
PimphonyOrchestrator::runPlan(const std::vector<Request> &requests,
                              const ParallelPlan &plan) const
{
    ClusterConfig c = cluster();
    c.plan = plan;
    ServingEngine engine(c, config_.model, requests, engineOptions());
    EvaluationResult out;
    out.engine = engine.run();
    out.plan = plan;
    out.label = config_.options.label();
    return out;
}

EvaluationResult
PimphonyOrchestrator::evaluateRequests(
    const std::vector<Request> &requests) const
{
    if (config_.plan.tp != 0)
        return runPlan(requests, config_.plan);

    // Auto-search: best throughput over the candidate plans.
    EvaluationResult best;
    bool have = false;
    for (const auto &plan : candidatePlans()) {
        EvaluationResult r = runPlan(requests, plan);
        if (!have ||
            r.engine.tokensPerSecond > best.engine.tokensPerSecond) {
            best = r;
            have = true;
        }
    }
    if (!have)
        fatal("no feasible (TP,PP) plan");
    return best;
}

EvaluationResult
PimphonyOrchestrator::evaluate(TraceTask task) const
{
    TraceGenerator gen(task, config_.seed);
    auto requests = gen.generate(config_.nRequests, config_.decodeTokens);
    return evaluateRequests(requests);
}

} // namespace pimphony
