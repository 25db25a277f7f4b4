/**
 * Unit tests for the whole-token number parser that fptrace's flags and
 * the bench environment variables share. Bad values are tested on
 * strings; nothing here starts a thread or a simulation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/sweep.hh"

using namespace fp;
using common::parseNumber;

TEST(ParseNumberTest, AcceptsOnlyAWholeTokenInRange)
{
    unsigned jobs = 7;
    EXPECT_TRUE(parseNumber("1", 1u, 256u, jobs));
    EXPECT_EQ(jobs, 1u);
    EXPECT_TRUE(parseNumber("256", 1u, 256u, jobs));
    EXPECT_EQ(jobs, 256u);
    for (const char *bad : {"", "0", "257", "100000", "-1", "+4", " 4",
                            "4 ", "4x", "abc", "1e3", "4294967296"}) {
        EXPECT_FALSE(parseNumber(bad, 1u, 256u, jobs)) << "'" << bad << "'";
        EXPECT_EQ(jobs, 256u) << "a rejected value must not be stored";
    }
}

TEST(ParseNumberTest, FloatingPointRejectsNanInfAndOutOfRange)
{
    double scale = 0.0;
    EXPECT_TRUE(parseNumber("0.1", 1e-6, 1e3, scale));
    EXPECT_DOUBLE_EQ(scale, 0.1);
    EXPECT_TRUE(parseNumber("1e-6", 1e-6, 1e3, scale));
    for (const char *bad : {"abc", "-1", "0", "1001", "nan", "inf", "-inf",
                            "1e400", "0.1x", ""})
        EXPECT_FALSE(parseNumber(bad, 1e-6, 1e3, scale)) << "'" << bad << "'";
}

TEST(ParseNumberTest, SixtyFourBitBounds)
{
    std::uint64_t ns = 0;
    constexpr std::uint64_t day = sim::HealthHeartbeatGuard::max_interval_ns;
    EXPECT_TRUE(parseNumber("0", std::uint64_t{0}, day, ns));
    EXPECT_TRUE(parseNumber(std::to_string(day), std::uint64_t{0}, day, ns));
    EXPECT_EQ(ns, day);
    EXPECT_FALSE(parseNumber(std::to_string(day + 1), std::uint64_t{0}, day,
                             ns));
    EXPECT_FALSE(parseNumber("18446744073709551616", std::uint64_t{0},
                             ~std::uint64_t{0}, ns));
}

TEST(EnvNumberTest, UnsetMeansFallbackAndABadValueIsFatal)
{
    const char *name = "FP_PARSE_TEST_VARIABLE";
    unsetenv(name);
    EXPECT_EQ(common::envNumber(name, 3u, 1u, 8u), 3u);
    setenv(name, "5", 1);
    EXPECT_EQ(common::envNumber(name, 3u, 1u, 8u), 5u);
    setenv(name, "9", 1);
    try {
        common::envNumber(name, 3u, 1u, 8u);
        ADD_FAILURE() << "an out-of-range value was accepted";
    } catch (const common::SimError &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find(name), std::string::npos) << message;
        EXPECT_NE(message.find("[1, 8]"), std::string::npos) << message;
    }
    unsetenv(name);
}

TEST(EnvNumberTest, BenchVariablesHaveTheirDocumentedRanges)
{
    // FINEPACK_BENCH_JOBS is capped, so a typo cannot ask for thousands
    // of threads.
    EXPECT_EQ(sim::SweepRunner::max_jobs, 256u);
    unsetenv("FINEPACK_BENCH_HEARTBEAT_NS");
    EXPECT_EQ(sim::HealthHeartbeatGuard::intervalNs(), 0u);
    setenv("FINEPACK_BENCH_HEARTBEAT_NS", "-5", 1);
    EXPECT_THROW(sim::HealthHeartbeatGuard::intervalNs(), common::SimError);
    unsetenv("FINEPACK_BENCH_HEARTBEAT_NS");
}
