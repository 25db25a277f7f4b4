/**
 * @file
 * HealthMonitor tests. The watchdog's decision core is
 * evaluate(now_ns) -- a pure function of externally supplied clock
 * readings and the attached progress atomics -- so the stall scenarios
 * (wedged queue, quiescent sweep, episode re-arming) are driven with
 * synthetic timestamps and never sleep. One test exercises the real
 * start()/stop() thread path end to end; the file name carries
 * "thread" so the TSan preset (`ctest -L threadsafe`) covers it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>

#include "common/event_queue.hh"
#include "obs/flight_recorder.hh"
#include "obs/health.hh"
#include "../support/mini_json.hh"

using namespace fp;
using fp::testing::parseJson;
using obs::FlightRecorder;
using obs::HealthMonitor;

namespace {

constexpr std::uint64_t ms = 1'000'000ULL;

HealthMonitor::Options
syntheticOptions()
{
    HealthMonitor::Options options;
    options.heartbeat_ns = 10 * ms;
    options.stall_ns = 50 * ms;
    return options;
}

/**
 * A recorder wedged mid-run: three events queued, exactly one
 * executed, so the published counters show depth > 0 with processing
 * frozen -- the signature of a stuck handler.
 */
void
wedgeRecorder(common::EventQueue &queue, FlightRecorder &recorder)
{
    queue.addObserver(&recorder);
    recorder.beginRun(&queue);
    for (int i = 0; i < 3; ++i)
        queue.schedule([]() {}, 10 * (i + 1),
                       common::Event::prio_default, "health.wedged");
    ASSERT_TRUE(queue.step());
    queue.removeObserver(&recorder);
    ASSERT_GT(recorder.queueDepth(), 0u);
}

} // namespace

TEST(HealthMonitor, WedgedQueueIsDiagnosedWithinStallThreshold)
{
    common::EventQueue queue;
    FlightRecorder recorder(16);
    wedgeRecorder(queue, recorder);

    HealthMonitor monitor(syntheticOptions());
    monitor.attachRecorder(&recorder);

    std::uint64_t t0 = 1'000'000'000ULL;
    EXPECT_FALSE(monitor.evaluate(t0)); // arming sample
    EXPECT_EQ(monitor.heartbeats(), 1u);

    // Progress frozen but still inside the threshold: no diagnosis.
    EXPECT_FALSE(monitor.evaluate(t0 + 49 * ms));
    EXPECT_EQ(monitor.stallsDetected(), 0u);

    // One heartbeat interval later the frozen signature crosses the
    // threshold with work still queued: exactly one wedged episode.
    EXPECT_TRUE(monitor.evaluate(t0 + 59 * ms));
    EXPECT_EQ(monitor.stallsDetected(), 1u);
    // The episode does not re-fire while still stalled.
    EXPECT_FALSE(monitor.evaluate(t0 + 200 * ms));
    EXPECT_EQ(monitor.stallsDetected(), 1u);
}

TEST(HealthMonitor, StallReArmsAfterProgressResumes)
{
    common::EventQueue queue;
    FlightRecorder recorder(16);
    wedgeRecorder(queue, recorder);

    HealthMonitor monitor(syntheticOptions());
    monitor.attachRecorder(&recorder);

    std::uint64_t t0 = 1'000'000'000ULL;
    EXPECT_FALSE(monitor.evaluate(t0));
    EXPECT_TRUE(monitor.evaluate(t0 + 60 * ms));

    // The wedged handler comes back to life: signature moves, the
    // episode re-arms ...
    recorder.record(obs::FlightKind::note, 99, "health.progress");
    EXPECT_FALSE(monitor.evaluate(t0 + 70 * ms));
    // ... and a second freeze is a second episode.
    EXPECT_TRUE(monitor.evaluate(t0 + 70 * ms + 51 * ms));
    EXPECT_EQ(monitor.stallsDetected(), 2u);
}

TEST(HealthMonitor, QuiescentSweepIsDiagnosed)
{
    // Queue drained (depth 0) but the sweep still has shards
    // outstanding: the "quiescent" flavor of stall.
    FlightRecorder recorder(16);
    std::atomic<std::uint64_t> done{1};
    std::atomic<std::uint64_t> total{4};

    HealthMonitor monitor(syntheticOptions());
    monitor.attachRecorder(&recorder);
    monitor.setSweepProgress(&done, &total);

    std::uint64_t t0 = 1'000'000'000ULL;
    EXPECT_FALSE(monitor.evaluate(t0));
    EXPECT_TRUE(monitor.evaluate(t0 + 60 * ms));
    EXPECT_EQ(monitor.stallsDetected(), 1u);
}

TEST(HealthMonitor, FinishedRunNeverStalls)
{
    // Depth 0 and no outstanding sweep: frozen counters mean "done",
    // not "stuck".
    FlightRecorder recorder(16);
    HealthMonitor monitor(syntheticOptions());
    monitor.attachRecorder(&recorder);

    std::uint64_t t0 = 1'000'000'000ULL;
    EXPECT_FALSE(monitor.evaluate(t0));
    EXPECT_FALSE(monitor.evaluate(t0 + 500 * ms));
    EXPECT_EQ(monitor.stallsDetected(), 0u);
    // Heartbeats kept flowing the whole time.
    EXPECT_EQ(monitor.heartbeats(), 2u);
}

TEST(HealthMonitor, NoProgressSourceMeansNoDiagnosis)
{
    HealthMonitor monitor(syntheticOptions());
    std::uint64_t t0 = 1'000'000'000ULL;
    EXPECT_FALSE(monitor.evaluate(t0));
    EXPECT_FALSE(monitor.evaluate(t0 + 1000 * ms));
    EXPECT_EQ(monitor.stallsDetected(), 0u);
}

TEST(HealthMonitor, HeartbeatCadenceFollowsInterval)
{
    HealthMonitor::Options options;
    options.heartbeat_ns = 10 * ms;
    HealthMonitor monitor(options);

    std::uint64_t t0 = 1'000'000'000ULL;
    monitor.evaluate(t0);           // first sample always beats
    monitor.evaluate(t0 + 3 * ms);  // inside the interval: no beat
    monitor.evaluate(t0 + 11 * ms); // past it: beat
    monitor.evaluate(t0 + 12 * ms); // inside again
    monitor.evaluate(t0 + 25 * ms); // beat
    EXPECT_EQ(monitor.heartbeats(), 3u);
}

TEST(HealthMonitorThread, WatchdogThreadEmitsParsableHeartbeats)
{
    common::EventQueue queue;
    FlightRecorder recorder(16);
    queue.addObserver(&recorder);
    recorder.beginRun(&queue);
    queue.schedule([]() {}, 5, common::Event::prio_default,
                   "health.thread_smoke");
    queue.run();
    recorder.endRun();
    queue.removeObserver(&recorder);

    const std::string sink =
        ::testing::TempDir() + "health_thread_heartbeat.ndjson";
    HealthMonitor::Options options;
    options.heartbeat_ns = 5 * ms;
    options.heartbeat_path = sink;
    HealthMonitor monitor(options);
    monitor.attachRecorder(&recorder);

    monitor.start();
    monitor.start(); // idempotent
    // The watchdog beats every 5 ms; poll with a bound generous enough
    // for loaded CI machines instead of one fixed sleep.
    for (int spin = 0; spin < 4000 && monitor.heartbeats() < 2; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    monitor.stop();
    monitor.stop(); // idempotent
    EXPECT_GE(monitor.heartbeats(), 2u);

    std::ifstream in(sink);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    auto doc = parseJson(line);
    EXPECT_EQ(doc.at("kind").string, "heartbeat");
    EXPECT_EQ(doc.at("schema_version").number, 1.0);
    EXPECT_EQ(doc.at("events").number, 1.0);
    EXPECT_EQ(doc.at("queue").at("processed").number, 1.0);
    EXPECT_FALSE(doc.has("alloc")); // counted by alloc_budget_test
    EXPECT_TRUE(doc.has("rss_hwm_kb"));
}
