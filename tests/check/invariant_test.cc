/**
 * Tests for the FP_INVARIANT machinery: registry counting, failure
 * behavior, and - when checks are compiled in - that the instrumented
 * hot paths actually evaluate their invariants.
 */

#include <gtest/gtest.h>

#include "check/invariant.hh"
#include "common/event_queue.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"

using namespace fp;
using check::InvariantRegistry;

namespace {

class InvariantTest : public ::testing::Test
{
  protected:
    void SetUp() override { InvariantRegistry::instance().reset(); }
    void TearDown() override { InvariantRegistry::instance().reset(); }
};

} // namespace

TEST_F(InvariantTest, RegistryCountsChecksPerName)
{
    auto &registry = InvariantRegistry::instance();
    EXPECT_EQ(registry.totalChecks(), 0u);

    registry.recordCheck("alpha");
    registry.recordCheck("alpha");
    registry.recordCheck("beta");

    EXPECT_EQ(registry.checks("alpha"), 2u);
    EXPECT_EQ(registry.checks("beta"), 1u);
    EXPECT_EQ(registry.checks("gamma"), 0u);
    EXPECT_EQ(registry.totalChecks(), 3u);
    EXPECT_EQ(registry.counts().size(), 2u);
}

TEST_F(InvariantTest, FailurePanicsAndIsCounted)
{
    auto &registry = InvariantRegistry::instance();
    EXPECT_THROW(registry.fail("broken", __FILE__, __LINE__, "boom"),
                 common::SimError);
    EXPECT_EQ(registry.failures(), 1u);
    try {
        registry.fail("broken", __FILE__, __LINE__, "boom");
    } catch (const common::SimError &err) {
        EXPECT_EQ(err.kind(), common::SimError::Kind::Panic);
        EXPECT_NE(std::string(err.what()).find("[broken]"),
                  std::string::npos);
    }
}

TEST_F(InvariantTest, MacroPassesAndCountsWhenEnabled)
{
    FP_INVARIANT(1 + 1 == 2, "macro-smoke", "arithmetic broke");
    if constexpr (check::invariants_enabled) {
        EXPECT_EQ(InvariantRegistry::instance().checks("macro-smoke"), 1u);
    } else {
        EXPECT_EQ(InvariantRegistry::instance().totalChecks(), 0u);
    }
}

TEST_F(InvariantTest, MacroFailsOnViolationWhenEnabled)
{
    if constexpr (check::invariants_enabled) {
        EXPECT_THROW(
            FP_INVARIANT(false, "must-fail", "intentional violation"),
            common::SimError);
        EXPECT_EQ(InvariantRegistry::instance().failures(), 1u);
    } else {
        // Compiled out: the violated condition is never evaluated.
        EXPECT_NO_THROW(
            FP_INVARIANT(false, "must-fail", "intentional violation"));
    }
}

TEST_F(InvariantTest, RwqHotPathIsInstrumented)
{
    if constexpr (!check::invariants_enabled)
        GTEST_SKIP() << "FP_CHECK disabled in this build";

    finepack::RwqPartition partition(1, finepack::defaultConfig());
    icn::Store store(0x1000, 8, 0, 1);
    partition.push(store);
    icn::Store hit(0x1002, 8, 0, 1); // overlapping rewrite
    partition.push(hit);

    auto &registry = InvariantRegistry::instance();
    EXPECT_EQ(registry.checks("rwq-payload-accounting"), 2u);
    EXPECT_EQ(registry.checks("rwq-offset-in-window"), 2u);
    EXPECT_EQ(registry.checks("rwq-overwrite-in-place"), 2u);
    EXPECT_EQ(registry.checks("rwq-entry-budget"), 2u);
}

TEST_F(InvariantTest, PacketizerIsInstrumented)
{
    if constexpr (!check::invariants_enabled)
        GTEST_SKIP() << "FP_CHECK disabled in this build";

    finepack::FinePackConfig config = finepack::defaultConfig();
    finepack::RwqPartition partition(1, config);
    partition.push(icn::Store(0x1000, 8, 0, 1));
    auto flushed = partition.flush(finepack::FlushReason::release);

    finepack::Packetizer packetizer(0, config);
    packetizer.packetize(flushed);

    auto &registry = InvariantRegistry::instance();
    EXPECT_EQ(registry.checks("packetizer-byte-conservation"), 1u);
    EXPECT_EQ(registry.checks("packetizer-run-splitting"), 1u);
    EXPECT_EQ(registry.checks("packetizer-payload-budget"), 1u);
    EXPECT_EQ(registry.checks("rwq-flush-nonempty"), 1u);
}

TEST_F(InvariantTest, EventQueueIsInstrumented)
{
    if constexpr (!check::invariants_enabled)
        GTEST_SKIP() << "FP_CHECK disabled in this build";

    common::EventQueue queue;
    int fired = 0;
    queue.schedule([&fired]() { ++fired; }, 10,
                   common::Event::prio_default, "test.event");
    queue.run();

    auto &registry = InvariantRegistry::instance();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(registry.checks("event-not-in-past"), 1u);
    EXPECT_EQ(registry.checks("event-time-monotonic"), 1u);
}
