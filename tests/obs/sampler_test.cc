/**
 * Unit tests for the periodic sampler: sample placement relative to
 * event execution, baseline priming, series export, trace mirroring,
 * and run-to-run determinism.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/event_queue.hh"
#include "common/json.hh"
#include "obs/sampler.hh"
#include "obs/trace_event.hh"
#include "../support/mini_json.hh"

using namespace fp;
using namespace fp::common;
using namespace fp::obs;
using fp::testing::parseJson;

TEST(SamplerTest, IntervalMustBePositive)
{
    EXPECT_THROW(PeriodicSampler(0), fp::common::SimError);
}

TEST(SamplerTest, PumpWithoutTracksJustDrainsTheQueue)
{
    PeriodicSampler sampler(100);
    EventQueue queue;
    int fired = 0;
    queue.schedule([&]() { ++fired; }, 250, Event::prio_default, "test.event");
    sampler.pump(queue);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.now(), 250u);
    EXPECT_TRUE(sampler.series().empty());
}

TEST(SamplerTest, SamplesAtEveryBoundaryUpToTheLastEvent)
{
    PeriodicSampler sampler(100);
    sampler.beginRun();

    EventQueue queue;
    double gauge = 0.0;
    sampler.addTrack("gauge", [&]() { return gauge; });

    // The gauge steps to 1 at tick 150 and to 2 at tick 350.
    queue.schedule([&]() { gauge = 1.0; }, 150,
                   Event::prio_default, "test.event");
    queue.schedule([&]() { gauge = 2.0; }, 350,
                   Event::prio_default, "test.event");
    sampler.pump(queue);

    ASSERT_EQ(sampler.series().size(), 1u);
    const auto &s = sampler.series()[0];
    EXPECT_EQ(s.name, "gauge");
    // Baseline at 0, then boundaries 100..300 (the 300 boundary is
    // <= the tick-350 event, so it samples the pre-event state).
    ASSERT_EQ(s.ticks.size(), 4u);
    EXPECT_EQ(s.ticks[0], 0u);
    EXPECT_EQ(s.ticks[1], 100u);
    EXPECT_EQ(s.ticks[2], 200u);
    EXPECT_EQ(s.ticks[3], 300u);
    EXPECT_DOUBLE_EQ(s.values[0], 0.0);
    EXPECT_DOUBLE_EQ(s.values[1], 0.0); // before the tick-150 event
    EXPECT_DOUBLE_EQ(s.values[2], 1.0);
    EXPECT_DOUBLE_EQ(s.values[3], 1.0); // before the tick-350 event
}

TEST(SamplerTest, RepeatedPumpsContinueOneSeries)
{
    PeriodicSampler sampler(100);
    sampler.beginRun();

    EventQueue queue;
    double gauge = 0.0;
    sampler.addTrack("gauge", [&]() { return gauge; });

    queue.schedule([&]() { gauge = 5.0; }, 120,
                   Event::prio_default, "test.event");
    sampler.pump(queue);
    // Second driver iteration: more events on the same queue.
    queue.schedule([&]() { gauge = 9.0; }, 320,
                   Event::prio_default, "test.event");
    sampler.pump(queue);

    const auto &s = sampler.series()[0];
    // Baseline 0, boundary 100 from the first pump; 200 and 300 from
    // the second (primed only once).
    ASSERT_EQ(s.ticks.size(), 4u);
    EXPECT_EQ(s.ticks[2], 200u);
    EXPECT_EQ(s.ticks[3], 300u);
    EXPECT_DOUBLE_EQ(s.values[2], 5.0);
    EXPECT_DOUBLE_EQ(s.values[3], 5.0);
}

TEST(SamplerTest, BeginRunDropsSeriesEndRunKeepsThem)
{
    PeriodicSampler sampler(10);
    sampler.beginRun();
    sampler.addTrack("g", []() { return 1.0; });
    sampler.sampleAt(0);
    sampler.endRun();
    // The gauge is gone but the recorded points survive endRun().
    ASSERT_EQ(sampler.series().size(), 1u);
    EXPECT_EQ(sampler.series()[0].values.size(), 1u);
    sampler.sampleAt(10); // no gauges left: a no-op
    EXPECT_EQ(sampler.series()[0].values.size(), 1u);

    sampler.beginRun();
    EXPECT_TRUE(sampler.series().empty());
}

TEST(SamplerTest, MirrorsSamplesIntoTraceCounters)
{
    PeriodicSampler sampler(100);
    TraceSink sink;
    sampler.attachTraceSink(&sink);
    sampler.beginRun();
    sampler.addTrack("gpu0.rwq.entries[1]", []() { return 3.0; });

    EventQueue queue;
    queue.schedule([]() {}, 100, Event::prio_default, "test.event");
    sampler.pump(queue);

    std::ostringstream os;
    sink.write(os);
    auto events = parseJson(os.str()).at("traceEvents");
    ASSERT_EQ(events.array.size(), 2u); // baseline + tick-100 boundary
    for (const auto &e : events.array) {
        EXPECT_EQ(e.at("ph").string, "C");
        EXPECT_EQ(e.at("name").string, "gpu0.rwq.entries[1]");
        EXPECT_DOUBLE_EQ(e.at("args").at("value").number, 3.0);
    }
}

TEST(SamplerTest, DumpJsonMatchesSeries)
{
    PeriodicSampler sampler(50);
    sampler.beginRun();
    sampler.addTrack("a", []() { return 2.0; });
    sampler.sampleAt(0);
    sampler.sampleAt(50);

    std::ostringstream os;
    JsonWriter json(os);
    sampler.dumpJson(json);
    auto doc = parseJson(os.str());
    EXPECT_DOUBLE_EQ(doc.at("interval_ticks").number, 50.0);
    const auto &track = doc.at("tracks").at("a");
    ASSERT_EQ(track.at("ticks").array.size(), 2u);
    EXPECT_DOUBLE_EQ(track.at("ticks").array[1].number, 50.0);
    EXPECT_DOUBLE_EQ(track.at("values").array[0].number, 2.0);
}

TEST(SamplerTest, IdenticalRunsProduceIdenticalSeries)
{
    auto run = [](PeriodicSampler &sampler) {
        sampler.beginRun();
        EventQueue queue;
        double load = 0.0;
        sampler.addTrack("load", [&]() { return load; });
        // A little event cascade: each event reschedules a follower.
        for (Tick t = 37; t < 1000; t += 91)
            queue.schedule([&load, t]() {
                load = static_cast<double>(t % 13);
            }, t, Event::prio_default, "test.event");
        sampler.pump(queue);
        sampler.endRun();
    };

    PeriodicSampler first(64);
    PeriodicSampler second(64);
    run(first);
    run(second);

    ASSERT_EQ(first.series().size(), second.series().size());
    EXPECT_EQ(first.series()[0].ticks, second.series()[0].ticks);
    EXPECT_EQ(first.series()[0].values, second.series()[0].values);
    EXPECT_GE(first.series()[0].ticks.size(), 2u);
}
