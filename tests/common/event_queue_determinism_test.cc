/**
 * Determinism tests for the event queue: same-tick events mixing
 * arrival/inject/sync priorities and lambda events must execute in the
 * same order on every run - the property the whole simulator's
 * reproducibility (and the protocol oracle's causal replay) rests on.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/random.hh"

using namespace fp;
using common::Event;
using common::EventQueue;

namespace {

/** A derived event that appends its label to a shared journal. */
class JournalEvent : public Event
{
  public:
    JournalEvent(std::vector<std::string> &journal, std::string label,
                 int priority)
        : Event(priority), _journal(journal), _label(std::move(label))
    {}

    void process() override { _journal.push_back(_label); }
    const char *description() const override { return _label.c_str(); }

  private:
    std::vector<std::string> &_journal;
    std::string _label;
};

/**
 * Build one run's execution journal: a deterministic but shuffled-looking
 * schedule of same-tick events mixing priorities, derived events, and
 * lambda events. Insertion order is fixed by @p seed, so two runs with
 * the same seed must journal identically.
 */
std::vector<std::string>
journalOneRun(std::uint64_t seed)
{
    EventQueue queue;
    std::vector<std::string> journal;
    std::vector<std::unique_ptr<JournalEvent>> events;
    common::Rng rng(seed);

    const std::vector<std::pair<const char *, int>> kinds = {
        {"arrival", Event::prio_arrival},
        {"default", Event::prio_default},
        {"inject", Event::prio_inject},
        {"sync", Event::prio_sync},
        {"stat", Event::prio_stat},
    };

    for (int i = 0; i < 200; ++i) {
        const auto &[kind, priority] = kinds[rng.below(kinds.size())];
        Tick when = 100 * rng.range(1, 5); // heavy same-tick collisions
        std::string label = std::string(kind) + "@" +
                            std::to_string(when) + "#" + std::to_string(i);
        if (rng.below(2) == 0) {
            // Queue-owned lambda event.
            queue.schedule([&journal, label]() { journal.push_back(label); },
                           when, priority, "test.event");
        } else {
            events.push_back(std::make_unique<JournalEvent>(
                journal, label, priority));
            queue.schedule(events.back().get(), when);
        }
    }
    queue.run();
    return journal;
}

} // namespace

TEST(EventQueueDeterminismTest, SameTickPrioritiesExecuteInOrder)
{
    EventQueue queue;
    std::vector<std::string> journal;
    std::vector<std::unique_ptr<JournalEvent>> events;

    // Insert in deliberately scrambled priority order, all at tick 50.
    for (int priority : {Event::prio_stat, Event::prio_arrival,
                         Event::prio_sync, Event::prio_default,
                         Event::prio_inject}) {
        events.push_back(std::make_unique<JournalEvent>(
            journal, std::to_string(priority), priority));
        queue.schedule(events.back().get(), 50);
    }
    queue.run();

    EXPECT_EQ(journal, (std::vector<std::string>{"0", "10", "20", "30",
                                                 "100"}));
}

TEST(EventQueueDeterminismTest, SamePriorityTiesBreakByInsertion)
{
    EventQueue queue;
    std::vector<std::string> journal;

    // Lambda events at the same (tick, priority): FIFO by insertion.
    for (int i = 0; i < 8; ++i) {
        queue.schedule([&journal, i]() {
            journal.push_back(std::to_string(i));
        }, 10, Event::prio_inject, "test.event");
    }
    queue.run();

    ASSERT_EQ(journal.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(journal[i], std::to_string(i));
}

TEST(EventQueueDeterminismTest, MixedLambdaAndDerivedEventsInterleave)
{
    // A lambda and a derived event at the same (tick, priority) order by
    // insertion sequence, not by event kind.
    EventQueue queue;
    std::vector<std::string> journal;

    JournalEvent derived(journal, "derived", Event::prio_default);
    queue.schedule([&journal]() { journal.push_back("lambda-1"); }, 20,
                   Event::prio_default, "test.event");
    queue.schedule(&derived, 20);
    queue.schedule([&journal]() { journal.push_back("lambda-2"); }, 20,
                   Event::prio_default, "test.event");
    queue.run();

    EXPECT_EQ(journal, (std::vector<std::string>{"lambda-1", "derived",
                                                 "lambda-2"}));
}

TEST(EventQueueDeterminismTest, IdenticalScheduleJournalsIdentically)
{
    // The satellite requirement: a mixed-priority same-tick workload is
    // bit-identical across runs.
    for (std::uint64_t seed : {1ull, 42ull, 12345ull}) {
        auto first = journalOneRun(seed);
        auto second = journalOneRun(seed);
        ASSERT_EQ(first.size(), 200u);
        EXPECT_EQ(first, second) << "divergent journal for seed " << seed;
    }
}

TEST(EventQueueDeterminismTest, RescheduleDoesNotPerturbOtherEvents)
{
    EventQueue queue;
    std::vector<std::string> journal;

    JournalEvent movable(journal, "moved", Event::prio_arrival);
    JournalEvent stable(journal, "stable", Event::prio_arrival);
    queue.schedule(&movable, 10);
    queue.schedule(&stable, 10);
    // Rescheduling re-enqueues with a fresh sequence number: the moved
    // event now executes after the stable one despite equal priority.
    queue.reschedule(&movable, 10);
    queue.run();

    EXPECT_EQ(journal, (std::vector<std::string>{"stable", "moved"}));
}
