/**
 * Unit tests for the same-tick race detector and the schedule
 * perturbation harness: injected conflicts must fire, commutative
 * patterns must stay quiet, waivers must suppress, and a full
 * simulated run must be schedule-independent (identical oracle and
 * stats digests under shuffled tie-breaks).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/digest.hh"
#include "check/race_detector.hh"
#include "common/event_queue.hh"
#include "sim/driver.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

using namespace fp;
using common::AccessRecorder;
using common::Event;
using common::EventQueue;
using check::RaceDetector;

namespace {

/** Schedule a lambda that declares one access when it executes. */
void
scheduleAccess(EventQueue &queue, Tick when, int priority,
               const void *resource, const char *label, bool write)
{
    queue.schedule(
        [&queue, resource, label, write]() {
            AccessRecorder rec(queue);
            if (write)
                rec.write(resource, label);
            else
                rec.read(resource, label);
        },
        when, priority, "test.event");
}

trace::WorkloadTrace
smallTrace(const std::string &name)
{
    workloads::WorkloadParams params;
    params.scale = 0.05;
    params.num_gpus = 4;
    params.seed = 42;
    return workloads::createWorkload(name)->generateTrace(params);
}

} // namespace

TEST(RaceDetectorTest, InjectedSameTickWriteWriteConflictFires)
{
    // The acceptance-criterion test: two events at the same
    // (tick, priority) writing the same resource MUST be flagged.
    EventQueue queue;
    RaceDetector detector;
    queue.setObserver(&detector);

    int resource = 0;
    scheduleAccess(queue, 10, Event::prio_default, &resource, "victim",
                   true);
    scheduleAccess(queue, 10, Event::prio_default, &resource, "victim",
                   true);
    queue.run();
    detector.finish();

    ASSERT_EQ(detector.conflicts().size(), 1u);
    const auto &conflict = detector.conflicts().front();
    EXPECT_STREQ(conflict.kind(), "W/W");
    EXPECT_EQ(conflict.tick, 10u);
    EXPECT_EQ(conflict.priority, Event::prio_default);
    EXPECT_EQ(conflict.label, "victim");
    EXPECT_EQ(conflict.resource, &resource);
    EXPECT_LT(conflict.first_sequence, conflict.second_sequence);
    EXPECT_EQ(detector.contendedBatches(), 1u);
}

TEST(RaceDetectorTest, ReadThenWriteAndWriteThenReadConflict)
{
    EventQueue queue;
    RaceDetector detector;
    queue.setObserver(&detector);

    int a = 0, b = 0;
    scheduleAccess(queue, 5, Event::prio_default, &a, "a", false);
    scheduleAccess(queue, 5, Event::prio_default, &a, "a", true);
    scheduleAccess(queue, 9, Event::prio_default, &b, "b", true);
    scheduleAccess(queue, 9, Event::prio_default, &b, "b", false);
    queue.run();
    detector.finish();

    ASSERT_EQ(detector.conflicts().size(), 2u);
    EXPECT_STREQ(detector.conflicts()[0].kind(), "R/W");
    EXPECT_STREQ(detector.conflicts()[1].kind(), "R/W");
}

TEST(RaceDetectorTest, CommutativePatternsStayQuiet)
{
    EventQueue queue;
    RaceDetector detector;
    queue.setObserver(&detector);

    int shared = 0, mine = 0, yours = 0;
    // Concurrent reads never conflict.
    scheduleAccess(queue, 1, Event::prio_default, &shared, "s", false);
    scheduleAccess(queue, 1, Event::prio_default, &shared, "s", false);
    // Writes to distinct resources never conflict.
    scheduleAccess(queue, 2, Event::prio_default, &mine, "m", true);
    scheduleAccess(queue, 2, Event::prio_default, &yours, "y", true);
    // Same resource at different ticks is ordered by time.
    scheduleAccess(queue, 3, Event::prio_default, &shared, "s", true);
    scheduleAccess(queue, 4, Event::prio_default, &shared, "s", true);
    // Same tick, different priorities is ordered by priority.
    scheduleAccess(queue, 5, Event::prio_arrival, &shared, "s", true);
    scheduleAccess(queue, 5, Event::prio_inject, &shared, "s", true);
    queue.run();
    detector.finish();

    EXPECT_TRUE(detector.conflicts().empty());
    EXPECT_EQ(detector.waivedConflicts(), 0u);
}

TEST(RaceDetectorTest, RepeatedAccessesWithinOneEventDoNotConflict)
{
    EventQueue queue;
    RaceDetector detector;
    queue.setObserver(&detector);

    int resource = 0;
    queue.schedule(
        [&queue, &resource]() {
            AccessRecorder rec(queue);
            rec.read(&resource, "r");
            rec.write(&resource, "r");
            rec.write(&resource, "r");
        },
        10, Event::prio_default, "test.event");
    // A second, non-touching event keeps the batch contended.
    queue.schedule([]() {}, 10, Event::prio_default, "test.event");
    queue.run();
    detector.finish();

    EXPECT_TRUE(detector.conflicts().empty());
    EXPECT_EQ(detector.contendedBatches(), 1u);
}

TEST(RaceDetectorTest, WaiverSuppressesByLabelGlob)
{
    EventQueue queue;
    RaceDetector detector;
    detector.waive("fabric.down*");
    queue.setObserver(&detector);

    int downlink = 0, uplink = 0;
    scheduleAccess(queue, 10, Event::prio_arrival, &downlink,
                   "fabric.down2", true);
    scheduleAccess(queue, 10, Event::prio_arrival, &downlink,
                   "fabric.down2", true);
    scheduleAccess(queue, 10, Event::prio_arrival, &uplink,
                   "fabric.up1", true);
    scheduleAccess(queue, 10, Event::prio_arrival, &uplink,
                   "fabric.up1", true);
    queue.run();
    detector.finish();

    EXPECT_EQ(detector.waivedConflicts(), 1u);
    ASSERT_EQ(detector.conflicts().size(), 1u);
    EXPECT_EQ(detector.conflicts().front().label, "fabric.up1");
}

TEST(RaceDetectorTest, ResetClearsStateButKeepsWaivers)
{
    EventQueue queue;
    RaceDetector detector;
    detector.waive("noisy*");
    queue.setObserver(&detector);

    int resource = 0;
    scheduleAccess(queue, 1, Event::prio_default, &resource, "x", true);
    scheduleAccess(queue, 1, Event::prio_default, &resource, "x", true);
    queue.run();
    detector.finish();
    ASSERT_EQ(detector.conflicts().size(), 1u);

    detector.reset();
    EXPECT_TRUE(detector.conflicts().empty());
    EXPECT_EQ(detector.eventsObserved(), 0u);
    EXPECT_EQ(detector.contendedBatches(), 0u);
    ASSERT_EQ(detector.waivers().size(), 1u);
    EXPECT_EQ(detector.waivers().front(), "noisy*");
}

TEST(RaceDetectorTest, GlobMatchSemantics)
{
    EXPECT_TRUE(RaceDetector::globMatch("*", "anything"));
    EXPECT_TRUE(RaceDetector::globMatch("fabric.down*", "fabric.down0"));
    EXPECT_TRUE(RaceDetector::globMatch("fabric.down*", "fabric.down"));
    EXPECT_FALSE(RaceDetector::globMatch("fabric.down*", "fabric.up0"));
    EXPECT_TRUE(RaceDetector::globMatch("gpu?.egress", "gpu3.egress"));
    EXPECT_FALSE(RaceDetector::globMatch("gpu?.egress", "gpu12.egress"));
    EXPECT_TRUE(RaceDetector::globMatch("*rwq*", "gpu0.egress.rwq[2]"));
    EXPECT_FALSE(RaceDetector::globMatch("", "x"));
    EXPECT_TRUE(RaceDetector::globMatch("", ""));
}

TEST(RaceDetectorTest, ReportSerializesConflicts)
{
    EventQueue queue;
    RaceDetector detector;
    queue.setObserver(&detector);

    int resource = 0;
    scheduleAccess(queue, 7, Event::prio_inject, &resource, "res", true);
    scheduleAccess(queue, 7, Event::prio_inject, &resource, "res", true);
    queue.run();
    detector.finish();

    std::ostringstream os;
    detector.writeReport(os);
    const std::string report = os.str();
    EXPECT_NE(report.find("\"conflicts\""), std::string::npos);
    EXPECT_NE(report.find("\"W/W\""), std::string::npos);
    EXPECT_NE(report.find("\"res\""), std::string::npos);
    EXPECT_NE(report.find("\"contended_batches\""), std::string::npos);
    EXPECT_NE(report.find("\"first_sequence\""), std::string::npos);
}

TEST(RaceDetectorTest, SimulatedRunHasNoUnwaivedConflicts)
{
    // End-to-end static pass: a finepack replay under the detector must
    // be conflict-free once the known-commutative downlink FIFO
    // arbitration is waived.
    trace::WorkloadTrace trace = smallTrace("jacobi");

    RaceDetector detector;
    detector.waive("fabric.down*");

    sim::SimConfig config;
    config.check = true;
    config.queue_observer = &detector;
    sim::SimulationDriver driver(config);
    sim::RunResult result = driver.run(trace, sim::Paradigm::finepack);
    detector.finish();

    EXPECT_GT(detector.eventsObserved(), 0u);
    EXPECT_GT(detector.accessesRecorded(), 0u);
    EXPECT_TRUE(detector.conflicts().empty())
        << detector.conflicts().size() << " unwaived conflicts, first: "
        << detector.conflicts().front().label;
    EXPECT_EQ(detector.droppedConflicts(), 0u);
    EXPECT_GT(result.oracle_transactions, 0u);
    EXPECT_NE(result.oracle_digest, 0u);
}

TEST(RaceDetectorTest, ShuffledSchedulesProduceIdenticalDigests)
{
    // End-to-end dynamic pass: permuting same-(tick, priority) order
    // must not change what the run computes - identical oracle digests
    // and identical timing under every seed.
    trace::WorkloadTrace trace = smallTrace("sssp");

    auto run_once = [&](std::uint64_t seed) {
        sim::SimConfig config;
        config.check = true;
        config.tie_break_shuffle_seed = seed;
        sim::SimulationDriver driver(config);
        return driver.run(trace, sim::Paradigm::finepack);
    };

    sim::RunResult baseline = run_once(0);
    ASSERT_NE(baseline.oracle_digest, 0u);
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        sim::RunResult shuffled = run_once(seed);
        EXPECT_EQ(shuffled.oracle_digest, baseline.oracle_digest)
            << "oracle digest diverged under seed " << seed;
        EXPECT_EQ(shuffled.total_time, baseline.total_time);
        EXPECT_EQ(shuffled.wire_bytes, baseline.wire_bytes);
        EXPECT_EQ(shuffled.messages, baseline.messages);
    }
}

TEST(DigestTest, KnownFnv1aValues)
{
    check::Digest digest;
    EXPECT_EQ(digest.value(), 0xcbf29ce484222325ull);
    digest.update(std::string_view("a"));
    EXPECT_EQ(digest.value(), 0xaf63dc4c8601ec8cull);

    check::Digest order_a, order_b;
    order_a.updateU64(1);
    order_a.updateU64(2);
    order_b.updateU64(2);
    order_b.updateU64(1);
    EXPECT_NE(order_a.value(), order_b.value());
}
