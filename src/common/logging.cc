#include "common/logging.hh"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace pimphony {

namespace {

// The threshold is read on every log call, possibly from sweep-runner
// worker threads while a bench's main thread adjusts it; the sink
// mutex serializes whole lines so concurrent messages never
// interleave mid-line.
std::atomic<LogLevel> g_threshold{LogLevel::Warn};
std::mutex g_sink_mutex;

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Warn:   return "warn";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Panic:  return "panic";
    }
    return "?";
}

void
vlogMessage(LogLevel level, const char *fmt, va_list args)
{
    if (static_cast<int>(level) <
        static_cast<int>(g_threshold.load(std::memory_order_relaxed)))
        return;

    // Format the whole line before touching the sink so the lock is
    // held only for one write, and a line is emitted atomically with
    // respect to other threads.
    char stack_buf[512];
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt,
                                args_copy);
    va_end(args_copy);
    if (needed < 0)
        return;

    const char *msg = stack_buf;
    std::vector<char> heap_buf;
    if (static_cast<std::size_t>(needed) >= sizeof(stack_buf)) {
        heap_buf.resize(static_cast<std::size_t>(needed) + 1);
        std::vsnprintf(heap_buf.data(), heap_buf.size(), fmt, args);
        msg = heap_buf.data();
    }

    std::lock_guard<std::mutex> lock(g_sink_mutex);
    std::fprintf(stderr, "[%s] %s\n", levelTag(level), msg);
}

} // namespace

void
setLogThreshold(LogLevel level)
{
    g_threshold.store(level, std::memory_order_relaxed);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage(LogLevel::Panic, fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage(LogLevel::Fatal, fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage(LogLevel::Warn, fmt, args);
    va_end(args);
}

void
requireField(const std::string &field, double value, FieldRange range,
             const char *needed_by)
{
    static const char *const kMust[] = {"finite", "finite and >= 0",
                                        "finite and positive", "in [0, 1]"};
    const bool finite = std::isfinite(value);
    bool ok = finite;
    if (range == FieldRange::NonNegative)
        ok = finite && value >= 0.0;
    else if (range == FieldRange::Positive)
        ok = finite && value > 0.0;
    else if (range == FieldRange::Fraction)
        ok = value >= 0.0 && value <= 1.0; // NaN fails both
    if (ok)
        return;
    if (needed_by)
        fatal("%s needs a positive %s (got %g)", needed_by, field.c_str(),
              value);
    fatal("%s must be %s (got %g%s)", field.c_str(),
          kMust[static_cast<int>(range)], value,
          range == FieldRange::Fraction ? ", outside [0, 1]" : "");
}

void
requireField(const std::string &field, std::uint64_t value,
             std::uint64_t min)
{
    if (value < min)
        fatal("%s must be at least %llu (got %llu)", field.c_str(),
              static_cast<unsigned long long>(min),
              static_cast<unsigned long long>(value));
}

} // namespace pimphony
