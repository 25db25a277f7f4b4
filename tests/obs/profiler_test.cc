/**
 * @file
 * obs::Profiler unit tests: label attribution, scope nesting and
 * self-time, the JSON schema of the `host` stats section, trace
 * emission, and aggregate reset.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/json.hh"
#include "obs/profiler.hh"
#include "obs/trace_event.hh"
#include "../support/mini_json.hh"

namespace {

using fp::common::Event;
using fp::common::EventQueue;
using fp::common::JsonWriter;
using fp::obs::HostHotspot;
using fp::obs::Profiler;
using fp::testing::parseJson;

/** Burn a little real time so durations are measurably nonzero. */
void
spin()
{
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 20000; ++i)
        sink = sink + i;
}

const HostHotspot *
find(const std::vector<HostHotspot> &rows, const std::string &label)
{
    for (const HostHotspot &row : rows)
        if (row.label == label)
            return &row;
    return nullptr;
}

TEST(Profiler, AttributesEventsToLabels)
{
    EventQueue queue;
    Profiler profiler;
    profiler.beginRun(&queue);
    queue.schedule([] { spin(); }, 10, Event::prio_default, "store.issue");
    queue.schedule([] { spin(); }, 20, Event::prio_default, "store.issue");
    queue.schedule([] { spin(); }, 30, Event::prio_default, "link.deliver");
    queue.run();
    profiler.endRun();

    EXPECT_EQ(profiler.events(), 3u);
    EXPECT_EQ(profiler.queuePushes(), 3u);
    EXPECT_EQ(profiler.queuePops(), 3u);
    EXPECT_EQ(profiler.queueStaleDrops(), 0u);
    EXPECT_GE(profiler.queuePeakDepth(), 1u);

    auto rows = profiler.hotspots();
    const HostHotspot *store = find(rows, "store.issue");
    const HostHotspot *link = find(rows, "link.deliver");
    ASSERT_NE(store, nullptr);
    ASSERT_NE(link, nullptr);
    EXPECT_EQ(store->count, 2u);
    EXPECT_EQ(link->count, 1u);
    for (const HostHotspot &row : rows) {
        EXPECT_LE(row.self_ns, row.total_ns) << row.label;
        EXPECT_LE(row.max_ns, row.total_ns) << row.label;
    }
}

TEST(Profiler, ScopeNestsEventsAndSeparatesSelfTime)
{
    EventQueue queue;
    Profiler profiler;
    profiler.beginRun(&queue);
    queue.schedule([] { spin(); }, 5, Event::prio_default, "inner.event");
    {
        Profiler::Scope outer(&profiler, "outer.scope");
        queue.run();
    }
    profiler.endRun();

    auto rows = profiler.hotspots();
    const HostHotspot *outer = find(rows, "outer.scope");
    const HostHotspot *inner = find(rows, "inner.event");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // The scope encloses the event: its total covers the event's, and
    // its self time is total minus the nested event's duration.
    EXPECT_GE(outer->total_ns, inner->total_ns);
    EXPECT_LE(outer->self_ns, outer->total_ns - inner->total_ns);
}

TEST(Profiler, ScopeInsideAnEventAggregatesWithoutASlice)
{
    // A per-message scope inside a handler counts like any frame, but
    // only the scopes outside events keep host-timeline slices.
    EventQueue queue;
    Profiler profiler;
    profiler.beginRun(&queue);
    for (fp::Tick t = 1; t <= 3; ++t) {
        queue.schedule(
            [&profiler] {
                Profiler::Scope inner(&profiler, "inner.scope");
                spin();
            },
            t, Event::prio_default, "outer.event");
    }
    {
        Profiler::Scope outer(&profiler, "outer.scope");
        queue.run();
    }
    profiler.endRun();

    auto rows = profiler.hotspots();
    const HostHotspot *inner = find(rows, "inner.scope");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->count, 3u);
    EXPECT_EQ(profiler.sliceCount(), 1u);
}

TEST(Profiler, TopNLimitsAndSortsBySelfTime)
{
    EventQueue queue;
    Profiler profiler;
    profiler.beginRun(&queue);
    queue.schedule([] { spin(); }, 1, Event::prio_default, "alpha");
    queue.schedule([] {}, 2, Event::prio_default, "beta");
    queue.schedule([] {}, 3, Event::prio_default, "gamma");
    queue.run();
    profiler.endRun();

    auto all = profiler.hotspots();
    EXPECT_EQ(all.size(), 3u);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_GE(all[i - 1].self_ns, all[i].self_ns);
    auto top = profiler.hotspots(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].label, all[0].label);
}

TEST(Profiler, NullScopeIsInert)
{
    // Call sites pass the (possibly null) configured profiler straight
    // through; a null profiler must cost nothing and crash nothing.
    Profiler::Scope scope(nullptr, "nothing");
}

TEST(Profiler, BucketsMergeByLabelText)
{
    // Identical label text from different addresses (e.g. the same
    // literal in two translation units) must report as one row.
    static const char first[] = "same.label";
    static const char second[] = "same.label";
    ASSERT_NE(static_cast<const void *>(first),
              static_cast<const void *>(second));

    EventQueue queue;
    Profiler profiler;
    profiler.beginRun(&queue);
    queue.schedule([] {}, 1, Event::prio_default, first);
    queue.schedule([] {}, 2, Event::prio_default, second);
    queue.run();
    profiler.endRun();

    auto rows = profiler.hotspots();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].label, "same.label");
    EXPECT_EQ(rows[0].count, 2u);
}

TEST(Profiler, DumpJsonMatchesSchemaAndAccessors)
{
    EventQueue queue;
    Profiler profiler;
    profiler.beginRun(&queue);
    queue.schedule([] { spin(); }, 10, Event::prio_default, "hot.label");
    {
        Profiler::Scope scope(&profiler, "scope.label");
        queue.run();
    }
    profiler.endRun();

    std::ostringstream os;
    JsonWriter json(os);
    profiler.dumpJson(json);
    ASSERT_TRUE(json.complete());

    auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("events").number, 1.0);
    EXPECT_EQ(doc.at("wall_ns").number,
              static_cast<double>(profiler.wallNs()));
    EXPECT_GE(doc.at("events_per_sec").number, 0.0);
    EXPECT_EQ(doc.at("queue").at("pushes").number, 1.0);
    EXPECT_EQ(doc.at("queue").at("pops").number, 1.0);
    EXPECT_EQ(doc.at("queue").at("stale_drops").number, 0.0);
    EXPECT_GE(doc.at("queue").at("peak_depth").number, 1.0);
    // Allocation counts come from the allocator (alloc_budget_test),
    // not from the profiler.
    EXPECT_FALSE(doc.has("alloc"));

    const auto &hotspots = doc.at("hotspots");
    ASSERT_TRUE(hotspots.isArray());
    ASSERT_EQ(hotspots.array.size(), 2u);
    for (const auto &row : hotspots.array) {
        EXPECT_TRUE(row.has("label"));
        EXPECT_TRUE(row.has("count"));
        EXPECT_TRUE(row.has("total_ns"));
        EXPECT_TRUE(row.has("self_ns"));
        EXPECT_TRUE(row.has("max_ns"));
    }
}

TEST(Profiler, EmitTraceRendersScopeSlicesUnderHostPid)
{
    EventQueue queue;
    Profiler profiler;
    profiler.beginRun(&queue);
    {
        Profiler::Scope a(&profiler, "slice.a");
        spin();
    }
    {
        Profiler::Scope b(&profiler, "slice.b");
        spin();
    }
    profiler.endRun();

    EXPECT_EQ(profiler.sliceCount(), 2u);
    EXPECT_EQ(profiler.droppedSlices(), 0u);

    fp::obs::TraceSink sink;
    profiler.emitTrace(sink);
    // 2 metadata (process + thread name) + 2 slices + 1 counter.
    EXPECT_EQ(sink.eventCount(), 5u);

    std::ostringstream os;
    sink.write(os);
    auto doc = parseJson(os.str());
    bool saw_host_pid = false;
    for (const auto &event : doc.at("traceEvents").array) {
        if (event.at("pid").number ==
            static_cast<double>(fp::obs::trace_pid_host))
            saw_host_pid = true;
    }
    EXPECT_TRUE(saw_host_pid);
}

TEST(Profiler, ScopeClosedBeforeTheFirstRunStartsTheTimeline)
{
    // fptrace loads the trace in a scope before the first run.
    Profiler profiler;
    {
        Profiler::Scope load(&profiler, "trace.read");
        spin();
    }
    EventQueue queue;
    profiler.beginRun(&queue);
    {
        Profiler::Scope run(&profiler, "slice.run");
        spin();
    }
    profiler.endRun();
    ASSERT_EQ(profiler.sliceCount(), 2u);

    fp::obs::TraceSink sink;
    profiler.emitTrace(sink);
    std::ostringstream os;
    sink.write(os);
    auto doc = parseJson(os.str());
    std::vector<std::string> labels;
    for (const auto &event : doc.at("traceEvents").array) {
        if (event.at("ph").string != "X")
            continue;
        labels.push_back(event.at("name").string);
        // Microseconds since the load began: well under a second.
        EXPECT_GE(event.at("ts").number, 0.0) << labels.back();
        EXPECT_LT(event.at("ts").number, 1e6) << labels.back();
        if (labels.back() == "trace.read") {
            EXPECT_EQ(event.at("ts").number, 0.0);
        }
    }
    EXPECT_EQ(labels, (std::vector<std::string>{"trace.read", "slice.run"}));
}

TEST(Profiler, AggregatesAccumulateAcrossRunsAndResetClears)
{
    Profiler profiler;
    for (int rep = 0; rep < 2; ++rep) {
        EventQueue queue; // fresh queue per rep, as cmdProfile does
        profiler.beginRun(&queue);
        queue.schedule([] { spin(); }, 1, Event::prio_default, "rep.work");
        queue.run();
        profiler.endRun();
    }
    EXPECT_EQ(profiler.events(), 2u);
    EXPECT_EQ(profiler.queuePushes(), 2u);
    EXPECT_GT(profiler.wallNs(), 0u);
    EXPECT_GT(profiler.eventsPerSec(), 0.0);
    auto rows = profiler.hotspots();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].count, 2u);

    profiler.reset();
    EXPECT_EQ(profiler.events(), 0u);
    EXPECT_EQ(profiler.wallNs(), 0u);
    EXPECT_EQ(profiler.queuePushes(), 0u);
    EXPECT_TRUE(profiler.hotspots().empty());
    EXPECT_EQ(profiler.sliceCount(), 0u);
    EXPECT_EQ(profiler.eventsPerSec(), 0.0);
}

} // namespace
