/**
 * @file
 * Logging and error-reporting primitives in the gem5 tradition.
 *
 * panic()  -- an internal invariant was violated; this is a simulator
 *             bug, never the user's fault. Aborts.
 * fatal()  -- the simulation cannot continue because of a user-visible
 *             problem (bad configuration, impossible workload). Exits.
 * warn()   -- something is modelled approximately; results may be
 *             affected but execution continues.
 *
 * The sink is thread-safe: the threshold is an atomic and every
 * message is formatted off-lock and emitted as one serialized write,
 * so concurrent sweep-runner workers (common/parallel) never
 * interleave partial lines (regression-tested in
 * tests/logging_test.cc).
 */

#ifndef PIMPHONY_COMMON_LOGGING_HH
#define PIMPHONY_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <string>

namespace pimphony {

/** Severity levels understood by the log sink. */
enum class LogLevel {
    Warn,
    Fatal,
    Panic,
};

/**
 * Install a minimum level below which messages are suppressed
 * (default LogLevel::Warn).
 */
void setLogThreshold(LogLevel level);

/** Internal invariant violation: print and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** User/config error: print and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Possible modelling shortcut or suspicious condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** The range of a real configuration field; none admits NaN or inf. */
enum class FieldRange { Finite, NonNegative, Positive, Fraction };

/**
 * The field check every options struct's validate() is built on:
 * fatal() unless @p value lies in @p range, naming @p field
 * ("FleetOptions::retryBackoffSeconds must be finite and >= 0 (got
 * -1)"). A Positive field only a setting uses names it as
 * @p needed_by ("tier-priority needs a positive <field> (got 0)").
 */
void requireField(const std::string &field, double value, FieldRange range,
                  const char *needed_by = nullptr);

/** The same check for a count: fatal() unless @p value >= @p min. */
void requireField(const std::string &field, std::uint64_t value,
                  std::uint64_t min);

} // namespace pimphony

#endif // PIMPHONY_COMMON_LOGGING_HH
