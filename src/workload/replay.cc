#include "workload/replay.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/logging.hh"

namespace pimphony {

namespace {

/** %.17g round-trips doubles exactly; the comma swap keeps the file
 *  locale-independent (same fix as bench JSON emission). */
std::string
numberToken(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    std::string s(buf);
    std::replace(s.begin(), s.end(), ',', '.');
    return s;
}

std::string
numberToken(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
appendRequestFields(std::string &out, const Request &r)
{
    out += "\"id\": " + numberToken(std::uint64_t{r.id});
    out += ", \"context\": " + numberToken(r.contextTokens);
    out += ", \"decode\": " + numberToken(r.decodeTokens);
    out += ", \"session\": " + numberToken(std::uint64_t{r.session});
    out += ", \"turn\": " + numberToken(std::uint64_t{r.turn});
    out += ", \"tier\": " + numberToken(std::uint64_t{r.cls.tier});
    out += ", \"gap_slo_s\": " + numberToken(r.cls.gapSloSeconds);
    out += ", \"tenant\": " + numberToken(std::uint64_t{r.cls.tenant});
    // Only prefix-declaring requests carry the two extra keys, so
    // prefix-free traces stay byte-identical to the v1 files earlier
    // PRs committed. The hash is < 2^53 by construction (trace.hh),
    // so the all-numeric parser round-trips it exactly.
    if (r.prefixHash != 0) {
        out += ", \"prefix_hash\": " + numberToken(r.prefixHash);
        out += ", \"prefix_tokens\": " + numberToken(r.prefixTokens);
    }
}

/** Cursor over the loaded file for the minimal parser below. */
struct Cursor
{
    const char *begin;
    const char *p;
    const char *end;
    const char *path;
};

void
skipWs(Cursor &c)
{
    while (c.p < c.end && (*c.p == ' ' || *c.p == '\t' ||
                           *c.p == '\n' || *c.p == '\r'))
        ++c.p;
}

[[noreturn]] void
parseFail(const Cursor &c, const char *what)
{
    // Report the failure position as line:column (1-based, counted
    // from the bytes already consumed) alongside the raw byte
    // offset, so a malformed hand-edited trace is diagnosable from
    // the log line alone.
    std::size_t line = 1, column = 1;
    for (const char *q = c.begin; q < c.p; ++q) {
        if (*q == '\n') {
            ++line;
            column = 1;
        } else {
            ++column;
        }
    }
    fatal("%s:%zu:%zu: bad trace file: %s (at byte %zd)", c.path,
          line, column, what, c.p - c.begin);
}

bool
eat(Cursor &c, char ch)
{
    skipWs(c);
    if (c.p < c.end && *c.p == ch) {
        ++c.p;
        return true;
    }
    return false;
}

void
expect(Cursor &c, char ch, const char *what)
{
    if (!eat(c, ch))
        parseFail(c, what);
}

std::string
parseString(Cursor &c)
{
    expect(c, '"', "expected string");
    std::string out;
    while (c.p < c.end && *c.p != '"') {
        if (*c.p == '\\')
            parseFail(c, "escapes are not used in trace files");
        out += *c.p++;
    }
    expect(c, '"', "unterminated string");
    return out;
}

double
parseNumber(Cursor &c)
{
    skipWs(c);
    double v = 0.0;
    auto r = std::from_chars(c.p, c.end, v);
    if (r.ec != std::errc{})
        parseFail(c, "expected number");
    c.p = r.ptr;
    return v;
}

/** One flat all-numeric object: {"key": number, ...}. */
std::map<std::string, double>
parseNumberObject(Cursor &c)
{
    std::map<std::string, double> fields;
    expect(c, '{', "expected object");
    if (eat(c, '}'))
        return fields;
    for (;;) {
        std::string key = parseString(c);
        expect(c, ':', "expected ':'");
        fields[key] = parseNumber(c);
        if (eat(c, ','))
            continue;
        expect(c, '}', "expected '}'");
        return fields;
    }
}

double
fieldOr(const std::map<std::string, double> &fields, const char *key,
        double fallback)
{
    auto it = fields.find(key);
    return it == fields.end() ? fallback : it->second;
}

/**
 * Integer key @p key as a T, 0 when absent. The value must be a
 * whole number in [0, min(max T, 2^53)]: 2^53 is the largest integer
 * the all-double format round-trips exactly.
 */
template <typename T>
T
integerField(const std::map<std::string, double> &fields, const char *key,
             const Cursor &c)
{
    auto it = fields.find(key);
    if (it == fields.end())
        return 0;
    const double max = std::min(
        0x1p53, static_cast<double>(std::numeric_limits<T>::max()));
    const double v = it->second;
    if (!(v >= 0.0 && v <= max && std::floor(v) == v)) {
        std::string what = std::string("'") + key +
                           "' must be an integer in [0, " +
                           numberToken(static_cast<std::uint64_t>(max)) +
                           "], got " + numberToken(v);
        parseFail(c, what.c_str());
    }
    return static_cast<T>(v);
}

/** Seconds key @p key, 0 when absent; fails unless finite and >= 0. */
double
secondsField(const std::map<std::string, double> &fields, const char *key,
             const Cursor &c)
{
    const double v = fieldOr(fields, key, 0.0);
    if (!(std::isfinite(v) && v >= 0.0)) {
        std::string what = std::string("'") + key +
                           "' must be finite and >= 0, got " +
                           numberToken(v);
        parseFail(c, what.c_str());
    }
    return v;
}

Request
requestFromFields(const std::map<std::string, double> &fields,
                  const Cursor &c)
{
    if (!fields.count("id") || !fields.count("context") ||
        !fields.count("decode"))
        parseFail(c, "request needs id/context/decode");
    Request r;
    r.id = integerField<RequestId>(fields, "id", c);
    r.contextTokens = integerField<Tokens>(fields, "context", c);
    r.decodeTokens = integerField<Tokens>(fields, "decode", c);
    if (r.decodeTokens == 0)
        parseFail(c, "'decode' must be at least 1, got 0: requests must "
                     "decode at least one token");
    r.session = integerField<SessionId>(fields, "session", c);
    r.turn = integerField<unsigned>(fields, "turn", c);
    r.cls.tier = integerField<unsigned>(fields, "tier", c);
    r.cls.gapSloSeconds = secondsField(fields, "gap_slo_s", c);
    r.cls.tenant = integerField<unsigned>(fields, "tenant", c);
    r.prefixHash = integerField<std::uint64_t>(fields, "prefix_hash", c);
    r.prefixTokens = integerField<Tokens>(fields, "prefix_tokens", c);
    return r;
}

} // namespace

void
saveWorkload(const std::string &path, const BuiltWorkload &workload)
{
    std::string out;
    out += "{\n  \"format\": \"pimphony-trace-v1\",\n";
    out += "  \"requests\": [";
    for (std::size_t i = 0; i < workload.initial.size(); ++i) {
        const TimedRequest &timed = workload.initial[i];
        out += i ? ",\n    {" : "\n    {";
        appendRequestFields(out, timed.request);
        out += ", \"arrival_s\": " + numberToken(timed.arrivalSeconds);
        out += "}";
    }
    out += workload.initial.empty() ? "],\n" : "\n  ],\n";
    // The book iterates in ascending predecessor order, which keeps
    // the file byte-stable for a given workload.
    out += "  \"successors\": [";
    bool first = true;
    for (const auto &kv : workload.sessions) {
        out += first ? "\n    {" : ",\n    {";
        first = false;
        out += "\"after\": " + numberToken(std::uint64_t{kv.first});
        out += ", \"think_s\": " + numberToken(kv.second.thinkSeconds);
        out += ", ";
        appendRequestFields(out, kv.second.request);
        out += "}";
    }
    out += workload.sessions.empty() ? "]\n}\n" : "\n  ]\n}\n";

    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file)
        fatal("cannot write trace '%s'", path.c_str());
    file << out;
    file.flush();
    if (!file)
        fatal("write to trace '%s' failed", path.c_str());
}

BuiltWorkload
loadWorkload(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        fatal("cannot open trace '%s'", path.c_str());
    std::ostringstream buf;
    buf << file.rdbuf();
    std::string text = buf.str();

    Cursor c{text.data(), text.data(), text.data() + text.size(),
             path.c_str()};
    BuiltWorkload out;
    // Successors in file order; sorted once below, so a hand-edited
    // file in any key order loads in O(n log n).
    std::vector<SessionBook::value_type> successors;
    bool format_seen = false;
    expect(c, '{', "expected top-level object");
    if (!eat(c, '}')) {
        for (;;) {
            std::string key = parseString(c);
            expect(c, ':', "expected ':'");
            if (key == "format") {
                if (parseString(c) != "pimphony-trace-v1")
                    parseFail(c, "unknown trace format");
                format_seen = true;
            } else if (key == "requests" || key == "successors") {
                expect(c, '[', "expected array");
                if (!eat(c, ']')) {
                    for (;;) {
                        auto fields = parseNumberObject(c);
                        Request r = requestFromFields(fields, c);
                        if (key == "requests") {
                            out.initial.push_back(
                                {r, fieldOr(fields, "arrival_s", 0.0)});
                        } else {
                            if (!fields.count("after"))
                                parseFail(c, "successor needs 'after'");
                            auto pred = integerField<RequestId>(
                                fields, "after", c);
                            double think =
                                secondsField(fields, "think_s", c);
                            successors.emplace_back(
                                pred, SessionTurn{r, think});
                        }
                        if (eat(c, ','))
                            continue;
                        expect(c, ']', "expected ']'");
                        break;
                    }
                }
            } else {
                parseFail(c, "unknown top-level key");
            }
            if (eat(c, ','))
                continue;
            expect(c, '}', "expected '}'");
            break;
        }
    }
    if (!format_seen)
        fatal("%s: not a pimphony trace (missing format tag)",
              path.c_str());
    auto key_less = [](const SessionBook::value_type &a,
                       const SessionBook::value_type &b) {
        return a.first < b.first;
    };
    std::sort(successors.begin(), successors.end(), key_less);
    auto dup = std::adjacent_find(
        successors.begin(), successors.end(),
        [](const SessionBook::value_type &a,
           const SessionBook::value_type &b) { return a.first == b.first; });
    if (dup != successors.end())
        fatal("%s: duplicate successor key %u", path.c_str(), dup->first);
    out.sessions.reserve(successors.size());
    for (auto &kv : successors) // in key order: each one appends
        out.sessions.emplace(kv.first, std::move(kv.second));
    // Saved files are arrival-ordered already; hand-edited ones may
    // not be, and every consumer requires the invariant.
    sortByArrival(out.initial);
    return out;
}

} // namespace pimphony
