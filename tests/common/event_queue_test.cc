/** Unit tests for the discrete-event simulation core. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
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

/** Owner of a FifoEvent: logs every value its handler receives. */
struct FifoOwner
{
    FifoOwner(EventQueue &queue, std::vector<int> &log)
        : log(log), fifo(*this, queue, Event::prio_arrival, "test.fifo")
    {}

    void fired(std::shared_ptr<int> value) { log.push_back(*value); }

    std::vector<int> &log;
    common::FifoEvent<FifoOwner, std::shared_ptr<int>, &FifoOwner::fired>
        fifo;
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

TEST(FifoEventTest, InterleavesWithLambdasInScheduleOrder)
{
    // A FIFO value takes its sequence number where it is scheduled,
    // exactly as the lambda it replaces would, also when its event is
    // armed only after the value ahead of it has run.
    EventQueue queue;
    std::vector<int> log;
    FifoOwner owner(queue, log);
    FifoOwner other(queue, log);
    auto lambda = [&](int id, Tick when) {
        queue.schedule([&log, id]() { log.push_back(id); }, when,
                       Event::prio_arrival, "test.lambda");
    };
    lambda(1, 5);
    owner.fifo.schedule(std::make_shared<int>(2), 5);
    lambda(3, 5);
    owner.fifo.schedule(std::make_shared<int>(4), 6);
    lambda(5, 6);
    other.fifo.schedule(std::make_shared<int>(0), 4);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(FifoEventTest, KeepsLabelAndPriority)
{
    EventQueue queue;
    LabelRecorder recorder;
    queue.addObserver(&recorder);
    std::vector<int> log;
    FifoOwner owner(queue, log);
    owner.fifo.schedule(std::make_shared<int>(1), 3);
    owner.fifo.schedule(std::make_shared<int>(2), 4);
    // A lower-priority lambda at the same tick runs after each value.
    queue.schedule([]() {}, 3, Event::prio_default, "test.lambda");
    queue.schedule([]() {}, 4, Event::prio_default, "test.lambda");
    queue.run();
    queue.removeObserver(&recorder);
    ASSERT_EQ(recorder.seen.size(), 4u);
    for (std::size_t i : {0u, 2u}) {
        EXPECT_EQ(recorder.seen[i].first, "test.fifo");
        EXPECT_EQ(recorder.seen[i].second, Event::prio_arrival);
        EXPECT_EQ(recorder.seen[i + 1].first, "test.lambda");
    }
}

TEST(FifoEventTest, PendingValuesHoldOneHeapEntry)
{
    EventQueue queue;
    std::vector<int> log;
    FifoOwner owner(queue, log);
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 40; ++i)
            owner.fifo.schedule(std::make_shared<int>(i),
                                queue.now() + 1 + i);
        EXPECT_EQ(queue.depth(), 1u);
        queue.run();
        EXPECT_EQ(queue.depth(), 0u);
    }
    EXPECT_EQ(log.size(), 120u);
    EXPECT_EQ(queue.peakDepth(), 1u);
    EXPECT_EQ(queue.eventsScheduled(), 120u);
    EXPECT_EQ(queue.eventsProcessed(), 120u);
}

TEST(FifoEventTest, HandlerMayScheduleIntoItsOwnFifo)
{
    struct Chain
    {
        explicit Chain(EventQueue &queue)
            : queue(queue), fifo(*this, queue, Event::prio_default,
                                 "test.chain")
        {}

        void
        fired(int hops)
        {
            ++delivered;
            if (hops > 0)
                fifo.schedule(hops - 1, queue.now() + 1);
        }

        EventQueue &queue;
        int delivered = 0;
        common::FifoEvent<Chain, int, &Chain::fired> fifo;
    };
    EventQueue queue;
    Chain chain(queue);
    chain.fifo.schedule(5, 1);
    queue.run();
    EXPECT_EQ(chain.delivered, 6);
    EXPECT_EQ(queue.now(), 6u);
    EXPECT_EQ(queue.peakDepth(), 1u);
}

TEST(FifoEventTest, ReleasesValuesOnceDeliveredOrDestroyed)
{
    auto delivered = std::make_shared<int>(1);
    auto pending = std::make_shared<int>(2);
    EventQueue queue;
    {
        std::vector<int> log;
        FifoOwner owner(queue, log);
        owner.fifo.schedule(delivered, 1);
        owner.fifo.schedule(pending, 10);
        queue.run(5);
        // The handler ran and dropped its copy; the pending value is
        // still held by its FIFO.
        EXPECT_EQ(delivered.use_count(), 1);
        EXPECT_EQ(pending.use_count(), 2);
    }
    // An interrupted run tears the owner down with a value pending.
    EXPECT_EQ(pending.use_count(), 1);
}

TEST(FifoEventTest, SchedulingNotAfterTheLastPendingValuePanics)
{
    EventQueue queue;
    std::vector<int> log;
    FifoOwner owner(queue, log);
    owner.fifo.schedule(std::make_shared<int>(1), 10);
    EXPECT_THROW(owner.fifo.schedule(std::make_shared<int>(2), 10),
                 common::SimError);
    EXPECT_THROW(owner.fifo.schedule(std::make_shared<int>(3), 9),
                 common::SimError);
    owner.fifo.schedule(std::make_shared<int>(4), 11);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1, 4}));
    // With nothing pending, the queue's own past-tick check applies.
    EXPECT_THROW(owner.fifo.schedule(std::make_shared<int>(5), 10),
                 common::SimError);
    owner.fifo.schedule(std::make_shared<int>(6), 11);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1, 4, 6}));
}

TEST(FifoEventTest, KeepsTickOrderWhenItsRingGrowsWhileWrapped)
{
    EventQueue queue;
    std::vector<int> log;
    FifoOwner owner(queue, log);
    std::vector<int> expected;
    int next = 0;
    // Each round leaves the ring's head further along, then schedules
    // more values than the ring holds, so it grows while wrapped.
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 5 + 7 * round; ++i, ++next) {
            expected.push_back(next);
            owner.fifo.schedule(std::make_shared<int>(next),
                                static_cast<Tick>(10 * (next + 1)));
        }
        queue.run(static_cast<Tick>(10 * (next - 2)));
    }
    queue.run();
    EXPECT_EQ(log, expected);
}

namespace {

class RandomSchedule;

/** Hands a FIFO's values to the schedule that made them. */
struct ValueHandler
{
    void fired(int item);

    RandomSchedule *schedule;
};

/**
 * A random schedule of values for a few FIFOs and of lambdas, at ticks
 * and priorities that collide. Run through the FIFOs, or with every
 * FIFO value scheduled as a lambda with the FIFO's tick, priority and
 * label at the same call: both runs must execute the same events with
 * the same sequence numbers. Every item may schedule more from its
 * handler; the choices come from a generator drawn in execution order,
 * so the two runs choose alike for as long as they run alike. A value
 * at a tick not after its FIFO's last pending one is refused, by the
 * FIFO in one run and by the bookkeeping here in the other.
 */
class RandomSchedule
{
  public:
    struct Executed
    {
        std::string label;
        int priority;
        Tick when;
        std::uint64_t sequence;
        int item;

        bool operator==(const Executed &) const = default;
    };

    struct Result
    {
        std::vector<Executed> executed;
        int refused = 0;
        std::size_t peak_depth = 0;
    };

    static Result
    run(std::uint64_t seed, bool through_fifos,
        std::optional<std::uint64_t> shuffle)
    {
        RandomSchedule schedule(seed, through_fifos);
        if (shuffle)
            schedule._queue.enableTieBreakShuffle(*shuffle);
        schedule._queue.addObserver(&schedule._recorder);
        for (int i = 0; i < 24; ++i)
            schedule.add();
        schedule._queue.run();
        schedule._queue.removeObserver(&schedule._recorder);
        return {std::move(schedule._recorder.executed), schedule._refused,
                schedule._queue.peakDepth()};
    }

  private:
    static constexpr int fifo_count = 4;
    static constexpr int max_items = 600;
    static constexpr const char *fifo_labels[fifo_count] = {
        "test.fifo0", "test.fifo1", "test.fifo2", "test.fifo3"};
    static constexpr int fifo_priorities[fifo_count] = {
        Event::prio_arrival, Event::prio_arrival, Event::prio_default,
        Event::prio_inject};
    static constexpr int lambda_priorities[3] = {
        Event::prio_arrival, Event::prio_default, Event::prio_inject};

    friend struct ValueHandler;
    using Fifo = common::FifoEvent<ValueHandler, int, &ValueHandler::fired>;

    class Recorder : public common::EventQueueObserver
    {
      public:
        void
        beginEvent(const Event &event) override
        {
            executed.push_back({event.description(), event.priority(),
                                event.when(), event.sequence(), -1});
        }

        void endEvent(const Event &) override {}

        std::vector<Executed> executed;
    };

    RandomSchedule(std::uint64_t seed, bool through_fifos)
        : _rng(seed), _through_fifos(through_fifos)
    {
        for (int f = 0; f < fifo_count; ++f)
            _fifos.push_back(std::make_unique<Fifo>(
                _handler, _queue, fifo_priorities[f], fifo_labels[f]));
    }

    /** Schedule one new item, or a burst of values for one FIFO. */
    void
    add()
    {
        int kind = static_cast<int>(_rng() % (fifo_count + 3));
        if (kind >= fifo_count) {
            int item = _items++;
            auto delay = static_cast<Tick>(_rng() % 4);
            _queue.scheduleIn([this, item]() { ran(item); }, delay,
                              lambda_priorities[kind - fifo_count],
                              "test.lambda");
            return;
        }
        int burst = _rng() % 8 == 0 ? 1 + static_cast<int>(_rng() % 24) : 1;
        for (int i = 0; i < burst && _items < max_items; ++i)
            addValue(kind);
    }

    /**
     * One value for FIFO @p f, one tick before, at, or up to four after
     * its last pending value (or now, when none is pending).
     */
    void
    addValue(int f)
    {
        int item = _items++;
        bool pending = _pending[f] != 0;
        Tick base = pending ? _last[f] : _queue.now();
        auto step = static_cast<Tick>(_rng() % 6);
        Tick when = pending ? base + step - 1 : base + step;
        bool refuse = pending && when <= _last[f];
        if (_through_fifos) {
            bool refused = false;
            try {
                _fifos[f]->schedule(item, when);
            } catch (const common::SimError &) {
                refused = true;
            }
            EXPECT_EQ(refused, refuse) << "item " << item;
            if (refused)
                ++_refused;
        } else if (!refuse) {
            _queue.schedule([this, item]() { fired(item); }, when,
                            fifo_priorities[f], fifo_labels[f]);
        }
        if (refuse)
            return;
        _fifo_of[item] = f;
        ++_pending[f];
        _last[f] = when;
    }

    void
    fired(int item)
    {
        --_pending[_fifo_of.at(item)];
        ran(item);
    }

    void
    ran(int item)
    {
        _recorder.executed.back().item = item;
        int children = static_cast<int>(_rng() % 4);
        for (int i = 0; i < children && _items < max_items; ++i)
            add();
    }

    EventQueue _queue;
    Recorder _recorder;
    ValueHandler _handler{this};
    std::vector<std::unique_ptr<Fifo>> _fifos;
    std::mt19937_64 _rng;
    bool _through_fifos;
    int _items = 0;
    int _refused = 0;
    std::map<int, int> _fifo_of;
    int _pending[fifo_count] = {};
    Tick _last[fifo_count] = {};
};

void
ValueHandler::fired(int item)
{
    schedule->fired(item);
}

} // namespace

TEST(FifoEventTest, RunsEveryValueWhereALambdaAtTheSameCallWould)
{
    int refused = 0;
    int ties = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        std::vector<std::optional<std::uint64_t>> orders = {std::nullopt};
        for (std::uint64_t shuffle = 1; shuffle <= 8; ++shuffle)
            orders.push_back(shuffle * 0x9e37);
        for (const auto &order : orders) {
            SCOPED_TRACE("schedule " + std::to_string(seed) + ", " +
                         (order ? "shuffle " + std::to_string(*order)
                                : std::string("insertion order")));
            auto fifos = RandomSchedule::run(seed, true, order);
            auto lambdas = RandomSchedule::run(seed, false, order);
            ASSERT_GT(fifos.executed.size(), 300u);
            EXPECT_EQ(fifos.executed, lambdas.executed);
            EXPECT_LT(fifos.peak_depth, lambdas.peak_depth);
            refused += fifos.refused;
            for (std::size_t i = 1; i < fifos.executed.size(); ++i) {
                const auto &a = fifos.executed[i - 1];
                const auto &b = fifos.executed[i];
                ties += a.when == b.when && a.priority == b.priority;
            }
        }
    }
    // The schedules exercised refusals and same-(tick, priority) ties.
    EXPECT_GT(refused, 0);
    EXPECT_GT(ties, 0);
}
