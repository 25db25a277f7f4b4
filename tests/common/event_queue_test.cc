/** Unit tests for the discrete-event simulation core. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"

using namespace fp;
using fp::common::Event;
using fp::common::EventQueue;

namespace {

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id, int priority =
                       Event::prio_default)
        : Event(priority), _log(log), _id(id)
    {}

    void process() override { _log.push_back(_id); }

  private:
    std::vector<int> &_log;
    int _id;
};

} // namespace

TEST(EventQueueTest, StartsEmptyAtTickZero)
{
    EventQueue queue;
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.now(), 0u);
    EXPECT_EQ(queue.nextEventTick(), max_tick);
    EXPECT_FALSE(queue.step());
}

TEST(EventQueueTest, RunOnEmptyQueueTerminates)
{
    EventQueue queue;
    EXPECT_EQ(queue.run(), 0u);
    EXPECT_EQ(queue.run(max_tick), 0u);
}

TEST(EventQueueTest, ExecutesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    queue.schedule(&c, 300);
    queue.schedule(&a, 100);
    queue.schedule(&b, 200);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.now(), 300u);
}

TEST(EventQueueTest, SameTickOrdersByPriorityThenInsertion)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent low(log, 1, Event::prio_stat);
    RecordingEvent high(log, 2, Event::prio_arrival);
    RecordingEvent first(log, 3, Event::prio_default);
    RecordingEvent second(log, 4, Event::prio_default);
    queue.schedule(&low, 50);
    queue.schedule(&first, 50);
    queue.schedule(&second, 50);
    queue.schedule(&high, 50);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{2, 3, 4, 1}));
}

TEST(EventQueueTest, LambdaEventsRun)
{
    EventQueue queue;
    int count = 0;
    queue.schedule([&]() { ++count; }, 10, Event::prio_default, "test.event");
    queue.scheduleIn([&]() { ++count; }, 20,
                     Event::prio_default, "test.event");
    queue.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(queue.now(), 20u);
}

TEST(EventQueueTest, EventsScheduleMoreEvents)
{
    EventQueue queue;
    std::vector<Tick> ticks;
    std::function<void()> chain = [&]() {
        ticks.push_back(queue.now());
        if (ticks.size() < 5)
            queue.scheduleIn(chain, 10, Event::prio_default, "test.event");
    };
    queue.schedule(chain, 0, Event::prio_default, "test.event");
    queue.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{0, 10, 20, 30, 40}));
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    queue.schedule(&a, 10);
    queue.schedule(&b, 20);
    a.cancel();
    EXPECT_FALSE(a.scheduled());
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueueTest, CancelledQueueIsEmpty)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    queue.schedule(&a, 10);
    a.cancel();
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, RescheduleMovesEvent)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    queue.schedule(&a, 100);
    queue.schedule(&b, 50);
    queue.reschedule(&a, 10); // move earlier
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(queue.eventsProcessed(), 2u);
}

TEST(EventQueueTest, RescheduleUnscheduledActsAsSchedule)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    queue.reschedule(&a, 5);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueueTest, CancelThenRescheduleRunsOnce)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    queue.schedule(&a, 10);
    a.cancel();
    queue.reschedule(&a, 30);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueueTest, RunWithLimitStopsBeforeLaterEvents)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    queue.schedule(&a, 10);
    queue.schedule(&b, 100);
    queue.run(50);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_FALSE(queue.empty());
    EXPECT_EQ(queue.nextEventTick(), 100u);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, SchedulingInThePastPanics)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    queue.schedule([]() {}, 100, Event::prio_default, "test.event");
    queue.run();
    EXPECT_THROW(queue.schedule(&a, 50), common::SimError);
}

TEST(EventQueueTest, DoubleSchedulePanics)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    queue.schedule(&a, 10);
    EXPECT_THROW(queue.schedule(&a, 20), common::SimError);
}

TEST(EventQueueTest, ManyLambdasGarbageCollected)
{
    EventQueue queue;
    std::uint64_t count = 0;
    for (int i = 0; i < 20000; ++i)
        queue.schedule([&count]() { ++count; },
                       static_cast<Tick>(i),
                       Event::prio_default, "test.event");
    queue.run();
    EXPECT_EQ(count, 20000u);
    EXPECT_EQ(queue.eventsProcessed(), 20000u);
}

TEST(EventQueueTest, RunCompletionReclaimsOwnedLambdas)
{
    // Regression: executed queue-owned lambdas must be reclaimed when
    // run() completes, not only past the amortized GC threshold -
    // otherwise a long replay (many run() cycles of a few hundred
    // events each) grows _owned without bound.
    EventQueue queue;
    std::uint64_t count = 0;
    for (int cycle = 0; cycle < 200; ++cycle) {
        for (int i = 0; i < 100; ++i)
            queue.scheduleIn([&count]() { ++count; },
                             static_cast<Tick>(i + 1),
                             Event::prio_default, "test.event");
        queue.run();
        EXPECT_EQ(queue.ownedPending(), 0u)
            << "ownership records leaked after cycle " << cycle;
    }
    EXPECT_EQ(count, 20000u);
}

TEST(EventQueueTest, RunWithLimitKeepsPendingOwnedLambdas)
{
    // The completion sweep must not reclaim lambdas that are still
    // scheduled past the run limit.
    EventQueue queue;
    int count = 0;
    queue.schedule([&]() { ++count; }, 10, Event::prio_default, "test.event");
    queue.schedule([&]() { ++count; }, 100, Event::prio_default, "test.event");
    queue.run(50);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(queue.ownedPending(), 1u);
    queue.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(queue.ownedPending(), 0u);
}

TEST(EventQueueTest, CancelThenReschedulePrunesStaleEntry)
{
    // Cancel + reschedule leaves a stale heap entry at the old tick;
    // it must be pruned (by sequence mismatch), not executed, and must
    // not surface through nextEventTick().
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    queue.schedule(&a, 10);
    a.cancel();
    queue.reschedule(&a, 30);
    EXPECT_EQ(queue.nextEventTick(), 30u);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(queue.eventsProcessed(), 1u);
}

TEST(EventQueueTest, PriorityTieBreakAcrossAllLevels)
{
    // All five Priority levels at one tick, inserted in reverse, with
    // two events per level: levels order by value, ties by insertion.
    EventQueue queue;
    std::vector<int> log;
    std::vector<std::unique_ptr<RecordingEvent>> events;
    const int priorities[] = {Event::prio_stat, Event::prio_sync,
                              Event::prio_inject, Event::prio_default,
                              Event::prio_arrival};
    for (int round = 0; round < 2; ++round) {
        for (int priority : priorities) {
            events.push_back(std::make_unique<RecordingEvent>(
                log, priority * 10 + round, priority));
            queue.schedule(events.back().get(), 5);
        }
    }
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 100, 101, 200, 201, 300, 301,
                                     1000, 1001}));
}

TEST(EventQueueTest, NextEventTickAfterMassCancellation)
{
    EventQueue queue;
    std::vector<int> log;
    std::vector<std::unique_ptr<RecordingEvent>> events;
    for (int i = 0; i < 100; ++i) {
        events.push_back(std::make_unique<RecordingEvent>(log, i));
        queue.schedule(events.back().get(), 10 + i);
    }
    for (auto &event : events)
        event->cancel();
    EXPECT_EQ(queue.nextEventTick(), max_tick);
    EXPECT_TRUE(queue.empty());
    // A survivor behind the cancelled block is still found.
    RecordingEvent last(log, 999);
    queue.schedule(&last, 500);
    EXPECT_EQ(queue.nextEventTick(), 500u);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{999}));
    EXPECT_EQ(queue.eventsProcessed(), 1u);
}

TEST(EventQueueTest, TieBreakShuffleIsReproduciblePerSeed)
{
    auto run_once = [](std::uint64_t seed) {
        EventQueue queue;
        queue.enableTieBreakShuffle(seed);
        std::vector<int> log;
        std::vector<std::unique_ptr<RecordingEvent>> events;
        for (int i = 0; i < 64; ++i) {
            events.push_back(std::make_unique<RecordingEvent>(log, i));
            queue.schedule(events.back().get(), 7);
        }
        queue.run();
        return log;
    };
    EXPECT_EQ(run_once(1), run_once(1));
    EXPECT_EQ(run_once(2), run_once(2));
    // Different seeds permute 64 ties differently (equal permutations
    // would need a 1-in-64! collision).
    EXPECT_NE(run_once(1), run_once(2));
    // And every seed yields some permutation of the same events.
    auto sorted = run_once(3);
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> expected(64);
    for (int i = 0; i < 64; ++i)
        expected[i] = i;
    EXPECT_EQ(sorted, expected);
}

TEST(EventQueueTest, TieBreakShufflePreservesTickAndPriorityOrder)
{
    EventQueue queue;
    queue.enableTieBreakShuffle(99);
    std::vector<int> log;
    std::vector<std::unique_ptr<RecordingEvent>> events;
    // ids encode (tick, priority) rank: shuffle may only permute
    // within one (tick, priority) group, never across groups.
    for (int tick = 1; tick <= 3; ++tick) {
        for (int priority :
             {Event::prio_arrival, Event::prio_inject}) {
            for (int i = 0; i < 4; ++i) {
                events.push_back(std::make_unique<RecordingEvent>(
                    log, tick * 100 + priority, priority));
                queue.schedule(events.back().get(),
                               static_cast<Tick>(tick));
            }
        }
    }
    queue.run();
    ASSERT_EQ(log.size(), 24u);
    EXPECT_TRUE(std::is_sorted(log.begin(), log.end()));
}

TEST(EventQueueTest, TieBreakModeChangeRequiresEmptyQueue)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    queue.schedule(&a, 10);
    EXPECT_THROW(queue.enableTieBreakShuffle(1), common::SimError);
    queue.run();
    queue.enableTieBreakShuffle(1);
    RecordingEvent b(log, 2);
    queue.schedule(&b, 20);
    EXPECT_THROW(queue.disableTieBreakShuffle(), common::SimError);
    queue.run();
    queue.disableTieBreakShuffle();
    EXPECT_FALSE(queue.tieBreakShuffleEnabled());
}

TEST(EventQueueTest, TieBreakIsDeterministicAcrossRuns)
{
    auto run_once = [&]() {
        EventQueue queue;
        std::vector<int> log;
        std::vector<std::unique_ptr<RecordingEvent>> events;
        for (int i = 0; i < 64; ++i) {
            events.push_back(
                std::make_unique<RecordingEvent>(log, i));
            queue.schedule(events.back().get(), 7);
        }
        queue.run();
        return log;
    };
    EXPECT_EQ(run_once(), run_once());
}

namespace {

/** Owner of an EventPool: logs every value its handler receives. */
struct PoolOwner
{
    void fired(std::shared_ptr<int> value) { log.push_back(*value); }

    std::vector<int> log;
    common::EventPool<PoolOwner, std::shared_ptr<int>, &PoolOwner::fired>
        pool{*this, Event::prio_arrival, "test.pooled"};
};

/** Records the label and priority of every executed event. */
class LabelRecorder : public common::EventQueueObserver
{
  public:
    void
    beginEvent(const Event &event) override
    {
        seen.emplace_back(event.description(), event.priority());
    }

    void endEvent(const Event &) override {}

    std::vector<std::pair<std::string, int>> seen;
};

} // namespace

TEST(EventPoolTest, InterleavesWithLambdasInScheduleOrder)
{
    // A pooled event takes its sequence number where it is scheduled,
    // exactly as the lambda it replaces would.
    EventQueue queue;
    PoolOwner owner;
    queue.schedule([&]() { owner.log.push_back(1); }, 5,
                   Event::prio_arrival, "test.lambda");
    owner.pool.schedule(queue, std::make_shared<int>(2), 5);
    queue.schedule([&]() { owner.log.push_back(3); }, 5,
                   Event::prio_arrival, "test.lambda");
    owner.pool.schedule(queue, std::make_shared<int>(4), 5);
    owner.pool.schedule(queue, std::make_shared<int>(0), 4);
    queue.run();
    EXPECT_EQ(owner.log, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventPoolTest, KeepsLabelAndPriority)
{
    EventQueue queue;
    LabelRecorder recorder;
    queue.addObserver(&recorder);
    PoolOwner owner;
    owner.pool.schedule(queue, std::make_shared<int>(1), 3);
    // A lower-priority lambda at the same tick runs after it.
    queue.schedule([]() {}, 3, Event::prio_default, "test.lambda");
    queue.run();
    queue.removeObserver(&recorder);
    ASSERT_EQ(recorder.seen.size(), 2u);
    EXPECT_EQ(recorder.seen[0].first, "test.pooled");
    EXPECT_EQ(recorder.seen[0].second, Event::prio_arrival);
    EXPECT_EQ(recorder.seen[1].first, "test.lambda");
}

TEST(EventPoolTest, ReusesEventsUpToThePeakInFlight)
{
    EventQueue queue;
    PoolOwner owner;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 4; ++i)
            owner.pool.schedule(queue, std::make_shared<int>(i),
                                queue.now() + 1 + i);
        queue.run();
    }
    EXPECT_EQ(owner.log.size(), 12u);
    EXPECT_EQ(owner.pool.size(), 4u);
}

TEST(EventPoolTest, HandlerMayScheduleIntoItsOwnPool)
{
    struct Chain
    {
        void
        fired(int hops)
        {
            ++delivered;
            if (hops > 0)
                pool.schedule(*queue, hops - 1, queue->now() + 1);
        }

        EventQueue *queue = nullptr;
        int delivered = 0;
        common::EventPool<Chain, int, &Chain::fired> pool{
            *this, Event::prio_default, "test.chain"};
    };
    EventQueue queue;
    Chain chain;
    chain.queue = &queue;
    chain.pool.schedule(queue, 5, 1);
    queue.run();
    EXPECT_EQ(chain.delivered, 6);
    EXPECT_EQ(queue.now(), 6u);
    EXPECT_EQ(chain.pool.size(), 1u);
}

TEST(EventPoolTest, ReleasesValuesOnceDeliveredOrDestroyed)
{
    auto delivered = std::make_shared<int>(1);
    auto pending = std::make_shared<int>(2);
    EventQueue queue;
    {
        PoolOwner owner;
        owner.pool.schedule(queue, delivered, 1);
        owner.pool.schedule(queue, pending, 10);
        queue.run(5);
        // The handler ran and dropped its copy; the pending value is
        // still held by its queued event.
        EXPECT_EQ(delivered.use_count(), 1);
        EXPECT_EQ(pending.use_count(), 2);
    }
    // An interrupted run tears the owner down with the event queued.
    EXPECT_EQ(pending.use_count(), 1);
}
