/**
 * @file
 * Base class for named simulation components.
 */

#ifndef FP_COMMON_SIM_OBJECT_HH
#define FP_COMMON_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "common/event_queue.hh"
#include "common/stats.hh"

namespace fp::common {

/**
 * A named component attached to an event queue, with its own stat group.
 * Mirrors gem5's SimObject in spirit: everything with simulated behaviour
 * derives from this.
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &queue)
        : _name(std::move(name)), _queue(queue), _stats(_name)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    EventQueue &eventQueue() { return _queue; }
    Tick curTick() const { return _queue.now(); }

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

  protected:
    void
    scheduleIn(std::function<void()> fn, Tick delay, int priority,
               const char *label)
    {
        _queue.scheduleIn(std::move(fn), delay, priority, label);
    }

  private:
    std::string _name;
    EventQueue &_queue;
    StatGroup _stats;
};

} // namespace fp::common

#endif // FP_COMMON_SIM_OBJECT_HH
