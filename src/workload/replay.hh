/**
 * @file
 * Workload trace replay: save/load built workloads as JSON so any
 * generated or hand-built workload is replayable bit for bit across
 * benches and fleet runs.
 *
 * Format ("pimphony-trace-v1"):
 *
 *   {
 *     "format": "pimphony-trace-v1",
 *     "requests": [ {"id": 0, "arrival_s": 0.125, "context": 13000,
 *                    "decode": 128, "session": 1, "turn": 0,
 *                    "tier": 0, "gap_slo_s": 0.05, "tenant": 0},
 *                   ... ],
 *     "successors": [ {"after": 0, "think_s": 2.5, "id": 1, ...same
 *                      request fields...}, ... ]
 *   }
 *
 * "requests" holds the open-loop arrivals (BuiltWorkload::initial,
 * arrival order); "successors" the closed-loop session turns keyed
 * by their predecessor ("after"), written in ascending key order so
 * the file is byte-stable for a given workload. All values are
 * numbers; doubles are written with %.17g (round-trip exact) and
 * parsed with std::from_chars, so a load reproduces the saved
 * workload bit for bit regardless of locale. Integer keys must be
 * whole, non-negative, within their field's type and at most 2^53;
 * a request's unknown keys (such as an older file's "weight") are
 * ignored.
 */

#ifndef PIMPHONY_WORKLOAD_REPLAY_HH
#define PIMPHONY_WORKLOAD_REPLAY_HH

#include <string>

#include "workload/spec.hh"

namespace pimphony {

/** Write @p workload to @p path (fatal on I/O failure). */
void saveWorkload(const std::string &path,
                  const BuiltWorkload &workload);

/** Read a workload saved by saveWorkload (fatal on parse errors). */
BuiltWorkload loadWorkload(const std::string &path);

} // namespace pimphony

#endif // PIMPHONY_WORKLOAD_REPLAY_HH
