/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses:
 * --smoke/--json flag handling, the cumulative technique stacks, and
 * a minimal machine-readable row writer (BENCH_<name>.json) so CI
 * and sweep scripts can track the numbers without scraping tables.
 */

#ifndef PIMPHONY_BENCH_BENCH_UTIL_HH
#define PIMPHONY_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "core/orchestrator.hh"

namespace pimphony {
namespace bench {

struct BenchArgs
{
    /** Tiny sweep for CI liveness. */
    bool smoke = false;

    /** Also emit machine-readable rows to @ref jsonPath. */
    bool json = false;

    /** Output path for --json (default BENCH_<bench name>.json). */
    std::string jsonPath;

    /**
     * Sweep concurrency (--threads N, else PIMPHONY_THREADS, else
     * 1 = the exact serial path). --threads 0 resolves to all
     * hardware threads.
     */
    unsigned threads = 1;

    // --- Workload-realism flags. Only benches that opt in via the
    // --- parseBenchArgs workload_flags mask accept them; everywhere
    // --- else they stay unknown flags (exit 2). -------------------

    /** --trace=PATH: replay a saved workload instead of generating
     *  (kTraceFlags). Empty = generate. */
    std::string tracePath;

    /** --save-trace[=PATH]: save the generated workload for replay
     *  (kTraceFlags). Empty = don't save. */
    std::string saveWorkloadPath;

    /** --rate-curve=R1,R2,...: diurnal arrival-rate profile in
     *  requests/second (kRateCurveFlag). Empty = bench default. */
    std::vector<double> rateCurve;
};

/** Opt-in masks for parseBenchArgs' workload flags. */
enum WorkloadFlag : unsigned {
    kNoWorkloadFlags = 0,

    /** Accept --trace=PATH and --save-trace[=PATH]. */
    kTraceFlags = 1u << 0,

    /** Accept --rate-curve=R1,R2,... */
    kRateCurveFlag = 1u << 1,
};

/**
 * Minimal flag handling for the serving benches: recognizes --smoke
 * (tiny sweep for CI liveness), --json[=PATH] (machine-readable
 * rows; PATH defaults to BENCH_<name>.json in the working
 * directory), --threads N (sweep concurrency; 0 = all hardware
 * threads, default PIMPHONY_THREADS else 1), and --help, and fails
 * loudly — usage on stderr, exit 2 — on anything else, so a typo'd
 * flag cannot silently run the full sweep in CI.
 *
 * @p workload_flags opts the bench into the workload-realism flags
 * (WorkloadFlag mask): kTraceFlags adds --trace=PATH /
 * --save-trace[=PATH] (workload/replay.hh round trip), kRateCurveFlag
 * adds --rate-curve=R1,R2,... (a diurnal PiecewiseRateCurve profile).
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, const char *description,
               unsigned workload_flags = kNoWorkloadFlags)
{
    BenchArgs out;
    out.threads = SweepRunner::defaultThreads();
    std::string prog = argc > 0 ? argv[0] : "bench";
    std::string name = prog;
    std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    if (name.rfind("bench_", 0) == 0)
        name = name.substr(6);
    out.jsonPath = "BENCH_" + name + ".json";
    std::string default_trace = "TRACE_" + name + ".json";
    auto parse_threads = [&](const std::string &value) {
        char *end = nullptr;
        unsigned long v = std::strtoul(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0') {
            std::cerr << prog << ": bad --threads value '" << value
                      << "'\n";
            std::exit(2);
        }
        out.threads = v == 0 ? SweepRunner::hardwareThreads()
                             : static_cast<unsigned>(v);
    };
    auto parse_rates = [&](const std::string &value) {
        out.rateCurve.clear();
        const char *p = value.c_str();
        for (;;) {
            char *end = nullptr;
            double v = std::strtod(p, &end);
            if (end == p || v < 0.0) {
                std::cerr << prog << ": bad --rate-curve value '"
                          << value << "'\n";
                std::exit(2);
            }
            out.rateCurve.push_back(v);
            if (*end == '\0')
                break;
            if (*end != ',') {
                std::cerr << prog << ": bad --rate-curve value '"
                          << value << "'\n";
                std::exit(2);
            }
            p = end + 1;
        }
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            out.smoke = true;
        } else if ((workload_flags & kTraceFlags) &&
                   arg.rfind("--trace=", 0) == 0) {
            out.tracePath = arg.substr(8);
        } else if ((workload_flags & kTraceFlags) &&
                   arg == "--save-trace") {
            out.saveWorkloadPath = default_trace;
        } else if ((workload_flags & kTraceFlags) &&
                   arg.rfind("--save-trace=", 0) == 0) {
            out.saveWorkloadPath = arg.substr(13);
        } else if ((workload_flags & kRateCurveFlag) &&
                   arg.rfind("--rate-curve=", 0) == 0) {
            parse_rates(arg.substr(13));
        } else if (arg == "--json") {
            out.json = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            out.json = true;
            out.jsonPath = arg.substr(7);
        } else if (arg == "--threads" && i + 1 < argc) {
            parse_threads(argv[++i]);
        } else if (arg.rfind("--threads=", 0) == 0) {
            parse_threads(arg.substr(10));
        } else if (arg == "--help" || arg == "-h") {
            std::cout << prog << " -- " << description << "\n\n"
                      << "usage: " << prog
                      << " [--smoke] [--json[=PATH]] [--threads N]\n"
                      << "  --smoke        tiny sweep (CI keeps the "
                         "harness alive)\n"
                      << "  --json[=PATH]  also write machine-readable "
                         "rows (default "
                      << out.jsonPath << ")\n"
                      << "  --threads N    run sweep configs on N "
                         "threads (0 = all cores;\n"
                         "                 default $PIMPHONY_THREADS, "
                         "else 1 = serial).\n"
                         "                 Rows are emitted in "
                         "submission order and stay\n"
                         "                 bit-identical to a serial "
                         "run.\n";
            if (workload_flags & kTraceFlags)
                std::cout
                    << "  --trace=PATH   replay a saved workload "
                       "instead of generating\n"
                    << "  --save-trace[=PATH]\n"
                       "                 save the generated workload "
                       "(default " << default_trace << ")\n";
            if (workload_flags & kRateCurveFlag)
                std::cout
                    << "  --rate-curve=R1,R2,...\n"
                       "                 diurnal arrival-rate profile "
                       "(req/s per segment)\n";
            std::cout << "  --help         this message\n";
            std::exit(0);
        } else {
            std::cerr << prog << ": unknown flag '" << arg << "'\n"
                      << "usage: " << prog
                      << " [--smoke|--json[=PATH]|--threads N|--help]\n";
            std::exit(2);
        }
    }
    return out;
}

/**
 * Outcome of one sweep cell run through runSweep: the cell's value
 * plus its wall-clock seconds on whichever worker executed it. The
 * wall time is recorded in JSON rows as config_wall_ms; under a
 * parallel run it includes any core contention, so cross-config
 * timing comparisons should use --threads 1 numbers.
 */
template <typename R>
struct SweepCell
{
    R value{};
    double wallSeconds = 0.0;
};

/**
 * Evaluate fn(0..n-1) on the configured sweep concurrency
 * (args.threads; 1 = the exact serial loop) and return the outcomes
 * in submission order. Cells must be independent: each builds its
 * own engine/model instances and derives randomness from explicit
 * per-cell seeds, which is what keeps an N-thread sweep
 * bit-identical to the serial run. Emit table/JSON rows from the
 * returned vector — never from inside fn.
 */
template <typename Fn>
auto
runSweep(const BenchArgs &args, std::size_t n, Fn &&fn)
    -> std::vector<SweepCell<std::decay_t<decltype(fn(std::size_t{0}))>>>
{
    using R = std::decay_t<decltype(fn(std::size_t{0}))>;
    std::vector<SweepCell<R>> out(n);
    SweepRunner runner(args.threads);
    runner.forEach(n, [&](std::size_t i) {
        auto t0 = std::chrono::steady_clock::now();
        out[i].value = fn(i);
        out[i].wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
    });
    return out;
}

/**
 * Machine-readable bench output: a flat array of row objects under
 * {"bench": ..., "rows": [...]}. Values are written as JSON numbers
 * (%.17g doubles round-trip) or escaped strings; every row carries
 * whatever fields its bench chooses, so downstream tooling (the CI
 * perf compare, sweep plotters) selects by key instead of column
 * position.
 */
class JsonRows
{
  public:
    explicit JsonRows(std::string bench_name)
        : bench_(std::move(bench_name))
    {
    }

    void
    beginRow()
    {
        rows_.emplace_back();
    }

    void
    field(const char *key, const std::string &v)
    {
        addRaw(key, "\"" + escape(v) + "\"");
    }

    void
    field(const char *key, const char *v)
    {
        field(key, std::string(v));
    }

    void
    field(const char *key, double v)
    {
        addRaw(key, formatNumber(v));
    }

    void
    field(const char *key, std::uint64_t v)
    {
        addRaw(key, std::to_string(v));
    }

    void
    field(const char *key, unsigned v)
    {
        addRaw(key, std::to_string(v));
    }

    /** Write {"bench":…,"rows":[…]} to @p path (true on success). */
    bool
    writeFile(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        os << "{\n  \"bench\": \"" << escape(bench_)
           << "\",\n  \"rows\": [\n";
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            os << "    {";
            const auto &row = rows_[r];
            for (std::size_t f = 0; f < row.size(); ++f) {
                os << "\"" << row[f].first << "\": " << row[f].second;
                if (f + 1 < row.size())
                    os << ", ";
            }
            os << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
        }
        os << "  ]\n}\n";
        return static_cast<bool>(os);
    }

  private:
    void
    addRaw(const char *key, std::string value)
    {
        rows_.back().emplace_back(key, std::move(value));
    }

    /**
     * The one double formatter every JSON number goes through:
     * %.17g round-trips any finite double exactly, the decimal
     * point is forced to '.' even under a locale that prints ','
     * (which would corrupt the document), and non-finite values —
     * invalid JSON literals — degrade to null rather than emitting
     * "inf"/"nan" tokens parsers reject.
     */
    static std::string
    formatNumber(double v)
    {
        if (!std::isfinite(v))
            return "null";
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        for (char *p = buf; *p; ++p)
            if (*p == ',')
                *p = '.';
        return buf;
    }

    static std::string
    escape(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            unsigned char u = static_cast<unsigned char>(c);
            switch (c) {
              case '"':
                out += "\\\"";
                break;
              case '\\':
                out += "\\\\";
                break;
              case '\n':
                out += "\\n";
                break;
              case '\t':
                out += "\\t";
                break;
              case '\r':
                out += "\\r";
                break;
              default:
                if (u < 0x20) {
                    // Remaining control characters are illegal raw
                    // inside JSON strings; \u-escape them.
                    char b[8];
                    std::snprintf(b, sizeof(b), "\\u%04x", u);
                    out += b;
                } else {
                    out.push_back(c);
                }
            }
        }
        return out;
    }

    std::string bench_;
    std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/**
 * A TablePrinter that mirrors every row into a shared JsonRows (when
 * one is attached): cell strings are keyed by a sanitized form of
 * the column header (lowercase, non-alphanumerics collapsed to '_'),
 * plus an optional "section" field when one bench prints several
 * tables. This is how the legacy figure/table harnesses expose
 * machine-readable rows without restructuring their sweep loops —
 * values stay formatted strings; downstream tooling selects by key.
 */
class MirroredTable
{
  public:
    MirroredTable(const std::vector<std::string> &headers, JsonRows *json,
                  std::string section = "")
        : table_(headers), json_(json), section_(std::move(section))
    {
        keys_.reserve(headers.size());
        std::vector<std::string> bases;
        bases.reserve(headers.size());
        for (const auto &h : headers) {
            std::string base = sanitizeKey(h);
            // Repeated headers (e.g. a paper-vs-ours table) get a
            // positional suffix so the JSON object keys stay unique;
            // only exact base-key repeats collide.
            unsigned n = 0;
            for (const auto &b : bases)
                if (b == base)
                    ++n;
            bases.push_back(base);
            if (n > 0)
                base += "_" + std::to_string(n + 1);
            keys_.push_back(std::move(base));
        }
    }

    void
    addRow(const std::vector<std::string> &cells)
    {
        table_.addRow(cells);
        if (!json_)
            return;
        json_->beginRow();
        if (!section_.empty())
            json_->field("section", section_);
        for (std::size_t i = 0; i < cells.size() && i < keys_.size();
             ++i)
            json_->field(keys_[i].c_str(), cells[i]);
    }

    /**
     * addRow for sweep-runner cells: also records the runner
     * provenance (threads, config_wall_ms) in the mirrored JSON row.
     * Timing-stripped comparisons (the CI determinism jobs) drop
     * both keys alongside wall_ms/events_per_sec.
     */
    void
    addRow(const std::vector<std::string> &cells, unsigned threads,
           double wall_seconds)
    {
        addRow(cells);
        if (!json_)
            return;
        json_->field("threads", threads);
        json_->field("config_wall_ms", wall_seconds * 1e3);
    }

    void print(std::ostream &os) { table_.print(os); }

    static std::string
    sanitizeKey(const std::string &header)
    {
        std::string key;
        key.reserve(header.size());
        bool last_us = false;
        for (char c : header) {
            if (std::isalnum(static_cast<unsigned char>(c))) {
                key.push_back(static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c))));
                last_us = false;
            } else if (!key.empty() && !last_us) {
                key.push_back('_');
                last_us = true;
            }
        }
        while (!key.empty() && key.back() == '_')
            key.pop_back();
        return key.empty() ? "col" : key;
    }

  private:
    TablePrinter table_;
    JsonRows *json_;
    std::string section_;
    std::vector<std::string> keys_;
};

/** Write @p json to args.jsonPath when --json was requested. */
inline void
writeJsonIfRequested(const JsonRows &json, const BenchArgs &args)
{
    if (!args.json)
        return;
    if (json.writeFile(args.jsonPath))
        std::cout << "wrote " << args.jsonPath << "\n";
    else
        std::cerr << "failed to write " << args.jsonPath << "\n";
}

/** The four cumulative technique stacks every throughput figure uses. */
inline std::vector<PimphonyOptions>
cumulativeOptions()
{
    return {
        PimphonyOptions::baseline(),
        PimphonyOptions{true, false, false},
        PimphonyOptions{true, true, false},
        PimphonyOptions{true, true, true},
    };
}

inline std::string
fmtSpeedup(double v)
{
    return TablePrinter::fmt(v, 2) + "x";
}

/** Quiet the log for clean figure output. */
struct QuietLogs
{
    QuietLogs() { setLogThreshold(LogLevel::Warn); }
};

} // namespace bench
} // namespace pimphony

#endif // PIMPHONY_BENCH_BENCH_UTIL_HH
