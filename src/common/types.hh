/**
 * @file
 * Fundamental scalar types shared across the simulator.
 */

#ifndef PIMPHONY_COMMON_TYPES_HH
#define PIMPHONY_COMMON_TYPES_HH

#include <cstdint>

namespace pimphony {

/** Simulated cycle count on the PIM command clock. */
using Cycle = std::uint64_t;

/** Simulated wall-clock time in nanoseconds. */
using NanoSeconds = double;

/** Byte counts (capacities, footprints, transfer sizes). */
using Bytes = std::uint64_t;

/** Identifier for a serving request. */
using RequestId = std::uint32_t;

/** Identifier for a multi-turn serving session. */
using SessionId = std::uint32_t;

/** Sentinel meaning "not part of a session" (Request::session). */
inline constexpr SessionId kNoSession = 0;

/** Identifier for a PIM channel within a module. */
using ChannelId = std::uint32_t;

/** Identifier for a PIM module within a node/cluster. */
using ModuleId = std::uint32_t;

/** Identifier for a PIM command within a stream. */
using CommandId = std::uint64_t;

/** Token counts (context lengths, KV-cache sizes in tokens). */
using Tokens = std::uint64_t;

/** Energy in picojoules. */
using PicoJoules = double;

} // namespace pimphony

#endif // PIMPHONY_COMMON_TYPES_HH
