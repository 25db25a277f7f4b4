/**
 * @file
 * Discrete-event simulation core.
 *
 * A minimal, deterministic event queue: events are (tick, priority,
 * sequence) ordered callbacks. Components schedule lambdas or derive from
 * Event for reusable/cancellable events. The queue is the single source of
 * simulated time for a MultiGpuSystem instance.
 *
 * Lifetime contract (as in gem5): an Event object that has been scheduled
 * must outlive the queue entry that refers to it, i.e. until it has either
 * executed or the queue has been drained past its tick. Lambda events
 * scheduled by value are owned by the queue itself.
 */

#ifndef FP_COMMON_EVENT_QUEUE_HH
#define FP_COMMON_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace fp::common {

class EventQueue;

/**
 * A schedulable event. Derive and implement process(), or use
 * EventQueue::schedule() with a callable for one-shot events.
 */
class Event
{
  public:
    /**
     * Lower priorities execute first among events at the same tick.
     * The defaults mirror the ordering needs of the link models: packet
     * arrivals drain before new injections at the same tick, and stat
     * dumps run last.
     */
    enum Priority : int {
        prio_arrival = 0,
        prio_default = 10,
        prio_inject = 20,
        prio_sync = 30,
        prio_stat = 100,
    };

    explicit Event(int priority = prio_default) : _priority(priority) {}
    virtual ~Event() = default;

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when simulated time reaches the scheduled tick. */
    virtual void process() = 0;

    /**
     * Human-readable label for debugging and host-side profiling.
     * Must be a string literal (or otherwise outlive the queue): the
     * self-profiler aggregates handler time by this pointer without
     * copying, so a dangling label would corrupt the hotspot report.
     */
    virtual const char *description() const { return "generic event"; }

    bool scheduled() const { return _scheduled; }
    Tick when() const { return _when; }
    int priority() const { return _priority; }

    /**
     * Insertion-order id of the most recent scheduling. Two live events
     * at the same (tick, priority) execute in sequence order (unless
     * the queue's tie-break shuffle is enabled); observers use it to
     * report which of two racing events would run first.
     */
    std::uint64_t sequence() const { return _sequence; }

    /** Deschedule without executing; safe to call when not scheduled. */
    void cancel() { _scheduled = false; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    std::uint64_t _sequence = 0;
    int _priority;
    bool _scheduled = false;
};

/** One-shot event wrapping a callable; owned by the queue. */
class LambdaEvent : public Event
{
  public:
    LambdaEvent(std::function<void()> fn, int priority, const char *label)
        : Event(priority), _fn(std::move(fn)), _label(label)
    {}

    void process() override { _fn(); }
    const char *description() const override { return _label; }

  private:
    std::function<void()> _fn;
    /** Static attribution label (see Event::description()). */
    const char *_label;
};

/**
 * Values handed, one at a time and in tick order, to a member function
 * of their owner: a link's deliveries, an ingress port's drains. The
 * values wait in a ring, each with the sequence number it took when it
 * was scheduled, and the FIFO itself is the one Event in the queue,
 * armed for the head value. So the heap holds one entry per owner,
 * however many values are pending, and each value runs where a lambda
 * scheduled at the same call with the same tick, priority and label
 * would: the shuffled tie-break key derives from the sequence number
 * too. A value's tick must come after every pending one's, so no two
 * values of one FIFO ever tie and the shuffle cannot reorder them. The
 * FIFO must outlive the queue entry that refers to it (as any Event
 * must); an interrupted run's pending values are released with it.
 */
template <typename Owner, typename Value, void (Owner::*Handler)(Value)>
class FifoEvent : private Event
{
  public:
    /** @p label must be a string literal (see Event::description()). */
    FifoEvent(Owner &owner, EventQueue &queue, int priority,
              const char *label)
        : Event(priority), _owner(owner), _queue(queue), _label(label)
    {}

    FifoEvent(const FifoEvent &) = delete;
    FifoEvent &operator=(const FifoEvent &) = delete;

    /**
     * Hand @p value to the owner's handler at absolute tick @p when,
     * which must be after the last pending value's tick.
     */
    void schedule(Value value, Tick when);

  private:
    struct Pending
    {
        Tick when = 0;
        std::uint64_t sequence = 0;
        Value value{};
    };

    void process() override;
    const char *description() const override { return _label; }

    /** The @p i-th pending value (0 is the head). */
    Pending &
    at(std::size_t i)
    {
        return _ring[(_first + i) & (_ring.size() - 1)];
    }

    /** Double the ring, unwrapping it so the head is at slot 0. */
    void grow();

    Owner &_owner;
    EventQueue &_queue;
    const char *_label;
    /** Pending values from _first on, in tick order; size a power of 2. */
    std::vector<Pending> _ring;
    std::size_t _first = 0;
    std::size_t _size = 0;
};

/**
 * Observes event execution on an EventQueue.
 *
 * The hooks fire synchronously on the simulation path: beginEvent()
 * immediately before an event's process(), endEvent() immediately
 * after, and recordAccess() whenever code running under the current
 * event declares a logical state access through an AccessRecorder.
 * Two kinds of observer implement this today: the determinism tooling
 * (check::RaceDetector) flags same-(tick, priority) events with
 * conflicting accesses, and the host-side self-profiler
 * (obs::Profiler) attributes wall-clock time to event labels.
 *
 * Access recording is opt-in: only observers returning true from
 * wantsAccesses() are visible through EventQueue::observer(), so a
 * profiler-only run keeps every AccessRecorder on its inert
 * null-pointer fast path.
 */
class EventQueueObserver
{
  public:
    virtual ~EventQueueObserver() = default;

    /** @p event is about to process() at the queue's current tick. */
    virtual void beginEvent(const Event &event) = 0;

    /** The event's process() returned. */
    virtual void endEvent(const Event &event) = 0;

    /**
     * Code running under the current event declared a logical access.
     * @p resource identifies the state (any stable address - a
     * component, a queue partition, a buffer); @p label is a stable,
     * human-readable name for reports and waivers; @p is_write
     * distinguishes mutation from inspection. Only delivered to
     * observers whose wantsAccesses() returns true.
     */
    virtual void
    recordAccess(const void *resource, const char *label, bool is_write)
    {
        (void)resource;
        (void)label;
        (void)is_write;
    }

    /**
     * True when this observer consumes recordAccess() and component
     * code should pay the cost of declaring accesses. Default false:
     * execution-only observers (the profiler) never activate the
     * AccessRecorder paths.
     */
    virtual bool wantsAccesses() const { return false; }
};

/**
 * The central event queue. Deterministic: ties at the same (tick, priority)
 * break by insertion order. Cancelled and rescheduled events leave stale
 * heap entries that are pruned lazily; staleness is detected by sequence
 * number mismatch against the Event object.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Attach an execution observer (the caller keeps ownership; at most
     * once per observer). Dispatch costs one branch per event while the
     * observer list is empty - no virtual call, no list iteration - and
     * one virtual call per attached observer per hook otherwise.
     */
    void addObserver(EventQueueObserver *observer);

    /** Detach a previously attached observer (no-op when absent). */
    void removeObserver(EventQueueObserver *observer);

    /**
     * Legacy single-observer attach: @p observer replaces the whole
     * observer list (nullptr detaches everything). Prefer
     * addObserver()/removeObserver() when composing observers.
     */
    void setObserver(EventQueueObserver *observer);

    /** Any observer attached (the per-event dispatch branch)? */
    bool observed() const { return !_observers.empty(); }

    const std::vector<EventQueueObserver *> &observers() const
    { return _observers; }

    /**
     * The observer AccessRecorders should deliver logical accesses to:
     * the most recently attached observer with wantsAccesses() == true,
     * or nullptr when none is listening (every normal run - including
     * profiled ones - so access declaration stays a single branch).
     */
    EventQueueObserver *observer() const { return _access_observer; }

    /**
     * Enable the schedule-perturbation mode: ties at the same
     * (tick, priority) break by a seeded pseudo-random key instead of
     * insertion order. Every seed yields one fixed, reproducible
     * permutation; events at different ticks or priorities are
     * unaffected. Must be called while the queue is empty (keys are
     * stamped at schedule time). A run whose results change under any
     * seed depends on insertion order somewhere - the property
     * `fptrace racecheck` falsifies.
     */
    void enableTieBreakShuffle(std::uint64_t seed);

    /** Restore insertion-order tie-breaking (queue must be empty). */
    void disableTieBreakShuffle();

    bool tieBreakShuffleEnabled() const { return _shuffle; }

    /** Schedule @p event at absolute time @p when (>= now). */
    void schedule(Event *event, Tick when)
    { scheduleReserved(event, when, takeSequence()); }

    /** (Re-)schedule an event, descheduling it first if already queued. */
    void reschedule(Event *event, Tick when);

    /**
     * Schedule a one-shot callable at absolute time @p when. @p label
     * must be a string literal; the self-profiler attributes the
     * handler's host time to it (see docs/profiling.md).
     */
    void
    schedule(std::function<void()> fn, Tick when, int priority,
             const char *label)
    {
        auto owned = std::make_unique<LambdaEvent>(std::move(fn), priority,
                                                   label);
        LambdaEvent *raw = owned.get();
        _owned.push_back(std::move(owned));
        schedule(raw, when);
    }

    /** Schedule a one-shot callable @p delay ticks from now. */
    void
    scheduleIn(std::function<void()> fn, Tick delay, int priority,
               const char *label)
    {
        schedule(std::move(fn), _now + delay, priority, label);
    }

    /** True when no live (non-cancelled) events remain. */
    bool empty() { pruneStale(); return _queue.empty(); }

    /** Tick of the next live event; max_tick when empty. */
    Tick nextEventTick();

    /**
     * Run events until the queue drains or the next event would be past
     * @p limit. @return the tick of the last executed event.
     */
    Tick run(Tick limit = max_tick);

    /** Execute at most one event. @return false if the queue was empty. */
    bool step();

    /** Total number of events processed since construction. */
    std::uint64_t eventsProcessed() const { return _processed; }

    // ---- Host-profiling operation counters (always on, near-free) ----

    /**
     * Sequence numbers taken since construction: one per schedule()
     * call and one per FifoEvent value. Only a FIFO's head is in the
     * heap, so this counts more than the heap pushes.
     */
    std::uint64_t eventsScheduled() const { return _next_sequence; }

    /**
     * Stale heap entries dropped by lazy pruning - the cost of
     * cancel()/reschedule() churn (each leaves one dead entry behind).
     */
    std::uint64_t staleDrops() const { return _stale_drops; }

    /**
     * High-water mark of the heap size (live + stale entries). A
     * FifoEvent counts once however many values it holds, so this is
     * not the most messages a run had on the wire.
     */
    std::size_t peakDepth() const { return _peak_depth; }

    /**
     * Current heap size: live and not-yet-pruned stale entries, each
     * FifoEvent once for its head. The run-health layer samples this
     * for heartbeats and wedge diagnosis; a nonzero depth means work
     * is pending, and exact liveness would cost a scan.
     */
    std::size_t depth() const { return _queue.size(); }

    /**
     * Ownership records still held for queue-owned lambda events
     * (executed ones are reclaimed on the GC threshold and whenever
     * run() completes; exposed so tests can bound retention).
     */
    std::size_t ownedPending() const { return _owned.size(); }

  private:
    template <typename Owner, typename Value, void (Owner::*Handler)(Value)>
    friend class FifoEvent;

    /** Take the next sequence number, to schedule with later. */
    std::uint64_t takeSequence() { return _next_sequence++; }

    /**
     * Schedule @p event at @p when with a @p sequence taken earlier,
     * so it orders as if it had been scheduled when it was taken.
     */
    void scheduleReserved(Event *event, Tick when, std::uint64_t sequence);

    struct Entry
    {
        Tick when;
        int priority;
        /** Tie-break key: the sequence, or its shuffled image. */
        std::uint64_t tie_key;
        std::uint64_t sequence;
        Event *event;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            if (tie_key != other.tie_key)
                return tie_key > other.tie_key;
            return sequence > other.sequence;
        }
    };

    /** Pop heap entries whose event was cancelled or rescheduled. */
    void pruneStale();
    /**
     * Reclaim executed queue-owned lambdas. Amortized via
     * _gc_threshold on the hot path; @p force (used when run()
     * completes) sweeps unconditionally so idle queues hold nothing.
     */
    void collectGarbage(bool force = false);

    /** Out-of-line observer dispatch (cold unless observers attached). */
    void notifyBegin(const Event &event);
    void notifyEnd(const Event &event);

    /** Recompute the cached access-wanting observer after add/remove. */
    void refreshAccessObserver();

    bool
    isStale(const Entry &entry) const
    {
        return !entry.event->_scheduled ||
               entry.event->_sequence != entry.sequence;
    }

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> _queue;
    std::vector<std::unique_ptr<LambdaEvent>> _owned;
    Tick _now = 0;
    std::uint64_t _next_sequence = 0;
    std::uint64_t _processed = 0;
    std::uint64_t _stale_drops = 0;
    std::size_t _peak_depth = 0;
    std::size_t _gc_threshold = 4096;
    std::vector<EventQueueObserver *> _observers;
    EventQueueObserver *_access_observer = nullptr;
    bool _shuffle = false;
    std::uint64_t _shuffle_seed = 0;
};

template <typename Owner, typename Value, void (Owner::*Handler)(Value)>
void
FifoEvent<Owner, Value, Handler>::schedule(Value value, Tick when)
{
    fp_assert(_size == 0 || when > at(_size - 1).when, "'", _label,
              "' scheduled at ", when, ", not after its last pending "
              "value at ", at(_size - 1).when);
    std::uint64_t sequence = _queue.takeSequence();
    if (_size == 0)
        _queue.scheduleReserved(this, when, sequence);
    if (_size == _ring.size())
        grow();
    at(_size++) = Pending{when, sequence, std::move(value)};
}

template <typename Owner, typename Value, void (Owner::*Handler)(Value)>
void
FifoEvent<Owner, Value, Handler>::process()
{
    Value value = std::move(at(0).value);
    _first = (_first + 1) & (_ring.size() - 1);
    // Armed for the next value before the handler runs, which may
    // schedule into this same FIFO.
    if (--_size != 0)
        _queue.scheduleReserved(this, at(0).when, at(0).sequence);
    (_owner.*Handler)(std::move(value));
}

template <typename Owner, typename Value, void (Owner::*Handler)(Value)>
void
FifoEvent<Owner, Value, Handler>::grow()
{
    std::vector<Pending> ring(_ring.empty() ? 16 : 2 * _ring.size());
    for (std::size_t i = 0; i < _size; ++i)
        ring[i] = std::move(at(i));
    _ring.swap(ring);
    _first = 0;
}

/**
 * Scoped access declaration for the determinism tooling. Component
 * code constructs one (per method, on the stack) and declares the
 * logical state it reads or mutates while handling the current event:
 *
 *     common::AccessRecorder rec(eventQueue());
 *     rec.write(this, name().c_str());
 *
 * When no access-consuming observer is attached - every normal run,
 * including profiled ones - the whole object is a cached null pointer
 * and each call is a single branch. @p label must outlive the
 * observer's analysis (component names and string literals qualify).
 */
class AccessRecorder
{
  public:
    /** Inert recorder (no observer); every call is a null-pointer test. */
    AccessRecorder() = default;

    explicit AccessRecorder(const EventQueue &queue)
        : _observer(queue.observer())
    {}

    /** True when a detector is listening (lets callers skip work). */
    bool active() const { return _observer != nullptr; }

    void
    read(const void *resource, const char *label)
    {
        if (_observer)
            _observer->recordAccess(resource, label, false);
    }

    void
    write(const void *resource, const char *label)
    {
        if (_observer)
            _observer->recordAccess(resource, label, true);
    }

  private:
    EventQueueObserver *_observer = nullptr;
};

} // namespace fp::common

#endif // FP_COMMON_EVENT_QUEUE_HH
