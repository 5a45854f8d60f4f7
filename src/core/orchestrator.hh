/**
 * @file
 * PIMphony orchestrator: the library's top-level API.
 *
 * A PimphonyOrchestrator owns a system configuration (CENT-like
 * PIM-only or NeuPIMs-like xPU+PIM), a model, and the technique set
 * {TCP, DCS, DPA}; it evaluates serving workloads and exposes the
 * metrics the paper's evaluation reports. The (TP, PP) plan can be
 * fixed or auto-searched ("optimal TP/PP settings", Figs. 13-15).
 */

#ifndef PIMPHONY_CORE_ORCHESTRATOR_HH
#define PIMPHONY_CORE_ORCHESTRATOR_HH

#include <cstdint>
#include <vector>

#include "system/engine.hh"
#include "workload/trace.hh"

namespace pimphony {

/**
 * Top-level evaluation configuration. The serving knobs shared with
 * the engine (prefillChunkTokens, chargePrefill, sched,
 * tenantBudgets, prefixCache, maxSteps) live in the ServingOptions
 * base — system/serving_options.hh documents them — and are
 * forwarded to EngineOptions wholesale, so a new serving knob is
 * added in exactly one place.
 */
struct OrchestratorConfig : ServingOptions
{
    SystemKind system = SystemKind::PimOnly;
    LlmConfig model = LlmConfig::llm7b(false);
    PimphonyOptions options;

    /** Fixed plan; tp = 0 requests an automatic TP/PP search. */
    ParallelPlan plan{0, 0};

    /** Module-count override (0 = the preset's deployment size). */
    unsigned modulesOverride = 0;

    /** Requests per evaluation and decode length. */
    std::size_t nRequests = 48;
    Tokens decodeTokens = 128;
    std::uint64_t seed = 42;
};

struct EvaluationResult
{
    EngineResult engine;
    ParallelPlan plan;
    std::string label;
};

class PimphonyOrchestrator
{
  public:
    /** Fatal on a bad configuration, naming the field. */
    explicit PimphonyOrchestrator(OrchestratorConfig config);

    /** Evaluate one trace task end to end. */
    EvaluationResult evaluate(TraceTask task) const;

    /** Evaluate a pre-built request list. */
    EvaluationResult evaluateRequests(
        const std::vector<Request> &requests) const;

    /** Candidate (TP, PP) plans for the configured module count. */
    std::vector<ParallelPlan> candidatePlans() const;

    /** The cluster this orchestrator drives (post-options). */
    ClusterConfig cluster() const;

    const OrchestratorConfig &config() const { return config_; }

  private:
    /** The options every plan's engine runs with. */
    EngineOptions engineOptions() const;

    EvaluationResult runPlan(const std::vector<Request> &requests,
                             const ParallelPlan &plan) const;

    OrchestratorConfig config_;
};

} // namespace pimphony

#endif // PIMPHONY_CORE_ORCHESTRATOR_HH
