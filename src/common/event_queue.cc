#include "common/event_queue.hh"

#include <algorithm>

#include "check/invariant.hh"
#include "common/interrupt.hh"

namespace fp::common {

namespace {

/**
 * SplitMix64 finalizer: a fixed, platform-independent bijection on
 * 64-bit values. Applied to (seed ^ sequence) it yields one stable
 * pseudo-random permutation of same-(tick, priority) ties per seed.
 */
std::uint64_t
mixTieKey(std::uint64_t seed, std::uint64_t sequence)
{
    std::uint64_t z = (seed + 0x9e3779b97f4a7c15ull) ^ sequence;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

void
EventQueue::scheduleReserved(Event *event, Tick when, std::uint64_t sequence)
{
    fp_assert(event != nullptr, "cannot schedule null event");
    fp_assert(!event->_scheduled,
              "event already scheduled (", event->description(), ")");
    FP_INVARIANT(when >= _now, "event-not-in-past",
                 "event '", event->description(), "' scheduled at ", when,
                 " with now=", _now);
    fp_assert(when >= _now, "scheduling in the past: when=", when,
              " now=", _now);

    event->_when = when;
    event->_sequence = sequence;
    event->_scheduled = true;
    std::uint64_t tie_key =
        _shuffle ? mixTieKey(_shuffle_seed, event->_sequence)
                 : event->_sequence;
    _queue.push(Entry{when, event->priority(), tie_key, event->_sequence,
                      event});
    if (_queue.size() > _peak_depth)
        _peak_depth = _queue.size();
}

void
EventQueue::addObserver(EventQueueObserver *observer)
{
    fp_assert(observer != nullptr, "cannot attach null observer");
    fp_assert(std::find(_observers.begin(), _observers.end(), observer) ==
                  _observers.end(),
              "observer already attached");
    _observers.push_back(observer);
    refreshAccessObserver();
}

void
EventQueue::removeObserver(EventQueueObserver *observer)
{
    std::erase(_observers, observer);
    refreshAccessObserver();
}

void
EventQueue::setObserver(EventQueueObserver *observer)
{
    _observers.clear();
    if (observer)
        _observers.push_back(observer);
    refreshAccessObserver();
}

void
EventQueue::refreshAccessObserver()
{
    _access_observer = nullptr;
    for (auto it = _observers.rbegin(); it != _observers.rend(); ++it) {
        if ((*it)->wantsAccesses()) {
            _access_observer = *it;
            break;
        }
    }
}

void
EventQueue::notifyBegin(const Event &event)
{
    for (EventQueueObserver *observer : _observers)
        observer->beginEvent(event);
}

void
EventQueue::notifyEnd(const Event &event)
{
    for (EventQueueObserver *observer : _observers)
        observer->endEvent(event);
}

void
EventQueue::enableTieBreakShuffle(std::uint64_t seed)
{
    fp_assert(empty(), "cannot change tie-break mode with events queued");
    _shuffle = true;
    _shuffle_seed = seed;
}

void
EventQueue::disableTieBreakShuffle()
{
    fp_assert(empty(), "cannot change tie-break mode with events queued");
    _shuffle = false;
    _shuffle_seed = 0;
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    fp_assert(event != nullptr, "cannot reschedule null event");
    // The stale heap entry (if any) is detected later by sequence mismatch.
    event->_scheduled = false;
    schedule(event, when);
}

void
EventQueue::pruneStale()
{
    while (!_queue.empty() && isStale(_queue.top())) {
        _queue.pop();
        ++_stale_drops;
    }
}

Tick
EventQueue::nextEventTick()
{
    pruneStale();
    return _queue.empty() ? max_tick : _queue.top().when;
}

bool
EventQueue::step()
{
    // Cooperative interrupt: polled before each dispatch (one relaxed
    // atomic load), so a SIGINT unwinds between events -- never inside
    // a handler -- and the driver can tear down an internally
    // consistent partial run. run() and the sampler's pump() both
    // drain through step(), so one poll point covers every loop.
    if (interrupt::pending()) [[unlikely]]
        throw SimInterrupted();
    pruneStale();
    if (_queue.empty())
        return false;

    Entry top = _queue.top();
    _queue.pop();

    FP_INVARIANT(top.when >= _now, "event-time-monotonic",
                 "next event at ", top.when, " behind now=", _now);
    fp_assert(top.when >= _now, "time went backwards");
    _now = top.when;

    Event *event = top.event;
    event->_scheduled = false;
    ++_processed;
    // The hottest branch in the repo: with no observers attached (every
    // normal run) dispatch is a single emptiness test - no virtual
    // calls, no vector iteration.
    if (_observers.empty()) [[likely]] {
        event->process();
    } else {
        notifyBegin(*event);
        event->process();
        notifyEnd(*event);
    }
    collectGarbage();
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    for (;;) {
        pruneStale();
        if (_queue.empty() || _queue.top().when > limit)
            break;
        step();
    }
    // The queue is idle: reclaim every executed one-shot lambda now so
    // repeated run() cycles (one per driver iteration) never
    // accumulate ownership records up to the amortized GC threshold.
    collectGarbage(/*force=*/true);
    return _now;
}

void
EventQueue::collectGarbage(bool force)
{
    // Periodically drop completed one-shot lambda events so long
    // simulations do not accumulate unbounded ownership records. The
    // threshold doubles with the surviving population so the amortized
    // cost per event stays constant.
    if (!force && _owned.size() < _gc_threshold)
        return;
    std::erase_if(_owned, [](const std::unique_ptr<LambdaEvent> &event) {
        return !event->scheduled();
    });
    _gc_threshold = std::max<std::size_t>(4096, _owned.size() * 2);
}

} // namespace fp::common
