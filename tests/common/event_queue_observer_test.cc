/**
 * @file
 * EventQueue observer dispatch: the multi-observer hook list, the
 * no-observer fast path's hook counts, access-observer routing, and
 * the always-on operation counters the self-profiler reads.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/event_queue.hh"

namespace {

using fp::Tick;
using fp::common::AccessRecorder;
using fp::common::Event;
using fp::common::EventQueue;
using fp::common::EventQueueObserver;

/** Counts every hook invocation; optionally consumes accesses. */
class CountingObserver : public EventQueueObserver
{
  public:
    explicit CountingObserver(bool wants_accesses = false)
        : _wants_accesses(wants_accesses)
    {}

    void beginEvent(const Event &event) override
    {
        ++begins;
        labels.push_back(event.description());
    }

    void endEvent(const Event &) override { ++ends; }

    void
    recordAccess(const void *, const char *label, bool is_write) override
    {
        ++accesses;
        access_labels.push_back(std::string(label) +
                                (is_write ? ":w" : ":r"));
    }

    bool wantsAccesses() const override { return _wants_accesses; }

    int begins = 0;
    int ends = 0;
    int accesses = 0;
    std::vector<std::string> labels;
    std::vector<std::string> access_labels;

  private:
    bool _wants_accesses;
};

TEST(EventQueueObserver, NoObserverMeansNoDispatch)
{
    EventQueue queue;
    EXPECT_FALSE(queue.observed());
    EXPECT_EQ(queue.observer(), nullptr);

    int ran = 0;
    queue.schedule([&ran]() { ++ran; }, 10, Event::prio_default, "test.event");
    queue.run();
    EXPECT_EQ(ran, 1);
    // Still nothing attached after running - the fast path is the
    // steady state, not a transient.
    EXPECT_FALSE(queue.observed());
}

TEST(EventQueueObserver, SingleObserverSeesEveryEvent)
{
    EventQueue queue;
    CountingObserver obs;
    queue.addObserver(&obs);
    EXPECT_TRUE(queue.observed());

    queue.schedule([]() {}, 1, Event::prio_default, "first");
    queue.schedule([]() {}, 2, Event::prio_default, "second");
    queue.run();

    EXPECT_EQ(obs.begins, 2);
    EXPECT_EQ(obs.ends, 2);
    ASSERT_EQ(obs.labels.size(), 2u);
    EXPECT_EQ(obs.labels[0], "first");
    EXPECT_EQ(obs.labels[1], "second");
}

TEST(EventQueueObserver, TwoObserversBothDispatched)
{
    EventQueue queue;
    CountingObserver a, b;
    queue.addObserver(&a);
    queue.addObserver(&b);

    queue.schedule([]() {}, 5, Event::prio_default, "test.event");
    queue.run();
    EXPECT_EQ(a.begins, 1);
    EXPECT_EQ(b.begins, 1);
    EXPECT_EQ(a.ends, 1);
    EXPECT_EQ(b.ends, 1);
}

TEST(EventQueueObserver, RemoveRestoresFastPath)
{
    EventQueue queue;
    CountingObserver obs;
    queue.addObserver(&obs);
    queue.schedule([]() {}, 1, Event::prio_default, "test.event");
    queue.run();
    EXPECT_EQ(obs.begins, 1);

    queue.removeObserver(&obs);
    EXPECT_FALSE(queue.observed());
    queue.schedule([]() {}, 2, Event::prio_default, "test.event");
    queue.run();
    // No hooks after detach: the count is frozen.
    EXPECT_EQ(obs.begins, 1);
    EXPECT_EQ(obs.ends, 1);
}

TEST(EventQueueObserver, LegacySetObserverReplacesList)
{
    EventQueue queue;
    CountingObserver a, b;
    queue.addObserver(&a);
    queue.setObserver(&b); // replaces, not appends
    queue.schedule([]() {}, 1, Event::prio_default, "test.event");
    queue.run();
    EXPECT_EQ(a.begins, 0);
    EXPECT_EQ(b.begins, 1);

    queue.setObserver(nullptr); // detaches everything
    EXPECT_FALSE(queue.observed());
}

TEST(EventQueueObserver, AccessRoutingSkipsExecutionOnlyObservers)
{
    EventQueue queue;
    CountingObserver profiler_like(/*wants_accesses=*/false);
    queue.addObserver(&profiler_like);
    // An execution-only observer must leave access recording inert:
    // AccessRecorder sees a null observer and component code keeps its
    // single-branch fast path (this is what keeps profiled runs
    // digest-identical to unprofiled ones).
    EXPECT_EQ(queue.observer(), nullptr);
    AccessRecorder inert(queue);
    EXPECT_FALSE(inert.active());
    inert.write(&queue, "resource");
    EXPECT_EQ(profiler_like.accesses, 0);

    CountingObserver detector_like(/*wants_accesses=*/true);
    queue.addObserver(&detector_like);
    EXPECT_EQ(queue.observer(), &detector_like);
    AccessRecorder active(queue);
    EXPECT_TRUE(active.active());
    active.write(&queue, "resource");
    active.read(&queue, "resource");
    EXPECT_EQ(detector_like.accesses, 2);
    EXPECT_EQ(detector_like.access_labels[0], "resource:w");
    EXPECT_EQ(detector_like.access_labels[1], "resource:r");
    // The execution-only observer never saw a declaration.
    EXPECT_EQ(profiler_like.accesses, 0);

    // Removing the access consumer restores the inert routing even
    // though an observer is still attached.
    queue.removeObserver(&detector_like);
    EXPECT_TRUE(queue.observed());
    EXPECT_EQ(queue.observer(), nullptr);
}

TEST(EventQueueObserver, OperationCountersTrackQueueChurn)
{
    EventQueue queue;
    EXPECT_EQ(queue.eventsScheduled(), 0u);
    EXPECT_EQ(queue.eventsProcessed(), 0u);
    EXPECT_EQ(queue.staleDrops(), 0u);
    EXPECT_EQ(queue.peakDepth(), 0u);

    queue.schedule([]() {}, 10, Event::prio_default, "test.event");
    queue.schedule([]() {}, 20, Event::prio_default, "test.event");
    queue.schedule([]() {}, 30, Event::prio_default, "test.event");
    EXPECT_EQ(queue.eventsScheduled(), 3u);
    EXPECT_EQ(queue.peakDepth(), 3u);

    queue.run();
    EXPECT_EQ(queue.eventsProcessed(), 3u);
    // Depth high-water mark survives the drain.
    EXPECT_EQ(queue.peakDepth(), 3u);
    EXPECT_EQ(queue.staleDrops(), 0u);
}

TEST(EventQueueObserver, StaleDropsCountCancelledEntries)
{
    EventQueue queue;
    fp::common::LambdaEvent cancelled([]() { FAIL(); },
                                      Event::prio_default, "cancelled");
    fp::common::LambdaEvent moved([]() {}, Event::prio_default, "moved");
    queue.schedule(&cancelled, 10);
    queue.schedule(&moved, 20);
    cancelled.cancel();
    queue.reschedule(&moved, 40); // leaves one stale heap entry
    queue.run();
    // One stale entry each from the cancel and the reschedule.
    EXPECT_EQ(queue.staleDrops(), 2u);
    EXPECT_EQ(queue.eventsProcessed(), 1u);
}

TEST(EventQueueObserver, LabeledLambdaEventsReportTheirLabel)
{
    EventQueue queue;
    CountingObserver obs;
    queue.addObserver(&obs);
    queue.scheduleIn([]() {}, 5, Event::prio_default, "my.label");
    queue.scheduleIn([]() {}, 6, Event::prio_default, "other.label");
    queue.run();
    ASSERT_EQ(obs.labels.size(), 2u);
    EXPECT_EQ(obs.labels[0], "my.label");
    EXPECT_EQ(obs.labels[1], "other.label");
}

} // namespace
