/**
 * @file
 * Cooperative interrupt flag for long simulations.
 *
 * The run-health fatal handlers (src/obs/fatal.cc) set the flag from a
 * SIGINT handler; the event queue polls it once per executed event and
 * throws SimInterrupted, which the simulation driver converts into an
 * orderly partial teardown (RunResult::interrupted) so the CLI can
 * flush partial stats instead of losing the run. The flag is a single
 * relaxed atomic: setting it is async-signal-safe and polling it costs
 * one uncontended load on the hot path.
 *
 * The flag deliberately stays set across runs: an interrupted replay
 * may have follow-up runs queued (the single-GPU baseline, racecheck
 * seeds), and those must abort on their first event rather than run to
 * completion against an operator who asked to stop. Only the CLI entry
 * points clear() it, before starting fresh work.
 */

#ifndef FP_COMMON_INTERRUPT_HH
#define FP_COMMON_INTERRUPT_HH

#include <atomic>
#include <exception>

#include "common/types.hh"

namespace fp::common {

/** Thrown by EventQueue::step() when an interrupt is pending. */
class SimInterrupted : public std::exception
{
  public:
    const char *
    what() const noexcept override
    {
        return "simulation interrupted";
    }
};

namespace interrupt {

namespace detail {
// One process-wide flag; std::atomic, so lint-exempt and safe to set
// from a signal handler (atomic stores are async-signal-safe).
inline std::atomic<bool> requested{false};
} // namespace detail

/** Request a cooperative stop (async-signal-safe). */
inline void
request()
{
    detail::requested.store(true, std::memory_order_relaxed);
}

/** Polled by EventQueue::step() before dispatching each event. */
inline bool
pending()
{
    return detail::requested.load(std::memory_order_relaxed);
}

/** Re-arm for fresh work (CLI entry points only; see file comment). */
inline void
clear()
{
    detail::requested.store(false, std::memory_order_relaxed);
}

} // namespace interrupt

} // namespace fp::common

#endif // FP_COMMON_INTERRUPT_HH
