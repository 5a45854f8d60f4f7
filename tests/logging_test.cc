/**
 * @file
 * Regression tests for the thread-safe log sink (common/logging):
 * concurrent writers from sweep-runner-style worker threads must
 * emit whole lines (no interleaving, no partial writes), threshold
 * changes are atomic with respect to concurrent logging, and
 * oversized messages survive the stack-buffer fallback intact.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace pimphony {
namespace {

/** Redirect stderr to a temp file for the object's lifetime. */
class CapturedStderr
{
  public:
    CapturedStderr()
    {
        path_ = ::testing::TempDir() + "logging_test_capture.txt";
        std::fflush(stderr);
        saved_ = ::dup(2);
        int fd = ::open(path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY,
                        0600);
        ::dup2(fd, 2);
        ::close(fd);
    }

    ~CapturedStderr()
    {
        restore();
        std::remove(path_.c_str());
    }

    std::vector<std::string>
    lines()
    {
        restore();
        std::vector<std::string> out;
        std::ifstream is(path_);
        std::string line;
        while (std::getline(is, line))
            out.push_back(line);
        return out;
    }

  private:
    void
    restore()
    {
        if (saved_ < 0)
            return;
        std::fflush(stderr);
        ::dup2(saved_, 2);
        ::close(saved_);
        saved_ = -1;
    }

    std::string path_;
    int saved_ = -1;
};

TEST(Logging, ConcurrentWritersNeverInterleaveLines)
{
    constexpr unsigned n_threads = 8;
    constexpr unsigned n_messages = 200;
    setLogThreshold(LogLevel::Warn);

    const std::string filler(40, 'x');
    CapturedStderr capture;
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < n_threads; ++t)
        writers.emplace_back([t, &filler]() {
            for (unsigned m = 0; m < n_messages; ++m)
                warn("writer %u message %u %s end", t, m,
                     filler.c_str());
        });
    for (auto &w : writers)
        w.join();

    auto lines = capture.lines();

    ASSERT_EQ(lines.size(),
              static_cast<std::size_t>(n_threads) * n_messages);
    // Every line must be one complete message — parse the writer and
    // sequence number, rebuild the expected line, and require an
    // exact match; any interleaving or truncation breaks it.
    std::map<std::pair<unsigned, unsigned>, unsigned> seen;
    for (const auto &line : lines) {
        unsigned t = 0, m = 0;
        int matched = std::sscanf(line.c_str(),
                                  "[warn] writer %u message %u", &t,
                                  &m);
        ASSERT_EQ(matched, 2) << "mangled line: " << line;
        std::string expected = "[warn] writer " + std::to_string(t) +
                               " message " + std::to_string(m) + " " +
                               filler + " end";
        EXPECT_EQ(line, expected);
        ++seen[{t, m}];
    }
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(n_threads) * n_messages);
    for (const auto &kv : seen)
        EXPECT_EQ(kv.second, 1u);
}

TEST(Logging, ThresholdSuppressesLowerLevels)
{
    CapturedStderr capture;
    setLogThreshold(LogLevel::Fatal);
    warn("should be suppressed");
    setLogThreshold(LogLevel::Warn);
    warn("should appear");
    auto lines = capture.lines();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "[warn] should appear");
}

TEST(Logging, OversizedMessagesSurviveHeapFallback)
{
    setLogThreshold(LogLevel::Warn);
    // Larger than the sink's 512-byte stack buffer.
    std::string big(2000, 'a');
    {
        CapturedStderr capture;
        warn("%s tail", big.c_str());
        auto lines = capture.lines();
        ASSERT_EQ(lines.size(), 1u);
        EXPECT_EQ(lines[0], "[warn] " + big + " tail");
    }
}

TEST(Logging, ConcurrentThresholdChangesAreSafe)
{
    setLogThreshold(LogLevel::Warn);
    CapturedStderr capture;
    std::thread flipper([]() {
        for (int i = 0; i < 500; ++i)
            setLogThreshold(i % 2 ? LogLevel::Warn
                                  : LogLevel::Fatal);
    });
    std::thread writer([]() {
        for (int i = 0; i < 500; ++i)
            warn("tick %d", i);
    });
    flipper.join();
    writer.join();
    setLogThreshold(LogLevel::Warn); // back to the default
    // No assertion beyond "no crash / no torn line": every emitted
    // line must still be complete.
    for (const auto &line : capture.lines())
        EXPECT_EQ(line.rfind("[warn] tick ", 0), 0u) << line;
}

} // namespace
} // namespace pimphony
