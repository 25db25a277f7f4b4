/**
 * @file
 * The invariant registry and the FP_INVARIANT macro.
 *
 * FP_INVARIANT states a structural property of the simulator that must
 * hold on every execution ("the payload accounting matches the entries",
 * "no event is scheduled in the past"). Unlike fp_assert - which guards
 * narrow local preconditions and is always compiled in - invariants may
 * be arbitrarily expensive to evaluate (walking a whole window's
 * entries), so they compile to nothing unless FP_CHECK_ENABLED is
 * defined (the FP_CHECK CMake option, default ON in Debug builds).
 *
 * Every evaluation is counted in the InvariantRegistry under the
 * invariant's name, so tests can assert that a code path actually
 * exercised the checks it claims to be covered by. A violation panics
 * through the normal logging machinery (SimError in tests, abort in
 * standalone binaries).
 *
 * This header is deliberately header-only: fp_common (the event queue)
 * uses FP_INVARIANT, and the check library links against fp_common, so
 * an out-of-line registry would create a library cycle.
 */

#ifndef FP_CHECK_INVARIANT_HH
#define FP_CHECK_INVARIANT_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>

#include "common/logging.hh"
#include "common/sync.h"

namespace fp::check {

/**
 * Thrown (when exceptions are enabled) on FP_INVARIANT violation: a
 * SimError carrying the violated invariant's registry name, so the CLI
 * can map it to the dedicated exit code (common::exit_code::invariant)
 * and tests can assert *which* invariant tripped. With exceptions
 * disabled the process instead _Exit()s with that code directly --
 * either way an invariant trip is distinguishable from a generic panic
 * by exit status alone (docs/run_health.md).
 */
class InvariantViolation : public common::SimError
{
  public:
    InvariantViolation(const char *name, const std::string &message)
        : SimError(Kind::Panic, message), _name(name)
    {}

    /** The registry name of the violated invariant (string literal). */
    const char *invariantName() const { return _name; }

  private:
    const char *_name;
};

/** True when FP_INVARIANT checks are compiled into this build. */
#ifdef FP_CHECK_ENABLED
inline constexpr bool invariants_enabled = true;
#else
inline constexpr bool invariants_enabled = false;
#endif

/**
 * Counts invariant evaluations per name; a process-wide singleton so the
 * macro can record from any translation unit without plumbing. All
 * counters are guarded by an internal fp::Mutex: concurrent simulations
 * (the parallel sweep runner) record checks from every worker thread.
 */
class InvariantRegistry
{
  public:
    /**
     * Observation hook fired after every recordCheck() (outside the
     * registry lock): the flight recorder logs invariant names as they
     * are evaluated so a post-mortem shows which checks the simulator
     * was running when it died. One slot, process-wide.
     */
    using CheckHook = void (*)(void *arg, const char *name);
    /**
     * Context hook consulted on failure (outside the lock): returns a
     * fragment like " while executing 'link.deliver' at tick 1234"
     * appended to the failure message -- the registry knows *what*
     * failed, the flight recorder knows what the simulator was doing.
     */
    using ContextHook = std::string (*)(void *arg);

    static InvariantRegistry &
    instance()
    {
        // All counters are FP_GUARDED_BY the registry's fp::Mutex.
        // fp-lint: allow(global-state) internally synchronized
        static InvariantRegistry registry;
        return registry;
    }

    void
    recordCheck(const char *name) FP_EXCLUDES(_mu)
    {
        CheckHook hook;
        void *arg;
        {
            fp::MutexLock lock(_mu);
            // Look up by the literal first: building the std::string
            // key only for a name's first evaluation keeps checked
            // builds from allocating per check.
            auto it = _counts.find(name);
            if (it == _counts.end())
                it = _counts.emplace(name, 0).first;
            ++it->second;
            ++_total;
            hook = _check_hook;
            arg = _check_arg;
        }
        if (hook)
            hook(arg, name);
    }

    [[noreturn]] void
    fail(const char *name, const char *file, int line,
         const std::string &message) FP_EXCLUDES(_mu)
    {
        ContextHook context;
        void *context_arg;
        {
            fp::MutexLock lock(_mu);
            ++_failures;
            context = _context_hook;
            context_arg = _context_arg;
        }
        std::string full =
            std::string("panic: [") + name + "] " + message;
        if (context)
            full += context(context_arg);
        full += std::string(" @ ") + file + ":" + std::to_string(line);
        // Same post-mortem path as fp_panic (the run-health layer's
        // failure hook), then the invariant-specific exit discipline.
        common::detail::invokeFailureHook(full.c_str());
        if (common::exceptionsEnabled())
            throw InvariantViolation(name, full);
        std::fputs(full.c_str(), stderr);
        std::fputc('\n', stderr);
        std::_Exit(common::exit_code::invariant);
    }

    /** Install/clear the per-evaluation hook (nullptr clears). */
    void
    setCheckHook(CheckHook hook, void *arg) FP_EXCLUDES(_mu)
    {
        fp::MutexLock lock(_mu);
        _check_hook = hook;
        _check_arg = arg;
    }

    /** Install/clear the failure-context hook (nullptr clears). */
    void
    setContextHook(ContextHook hook, void *arg) FP_EXCLUDES(_mu)
    {
        fp::MutexLock lock(_mu);
        _context_hook = hook;
        _context_arg = arg;
    }

    /** Evaluations of one named invariant since the last reset. */
    std::uint64_t
    checks(const std::string &name) const FP_EXCLUDES(_mu)
    {
        fp::MutexLock lock(_mu);
        auto it = _counts.find(name);
        return it == _counts.end() ? 0 : it->second;
    }

    std::uint64_t
    totalChecks() const FP_EXCLUDES(_mu)
    {
        fp::MutexLock lock(_mu);
        return _total;
    }

    std::uint64_t
    failures() const FP_EXCLUDES(_mu)
    {
        fp::MutexLock lock(_mu);
        return _failures;
    }

    /** Snapshot of the names seen so far with their evaluation counts. */
    std::map<std::string, std::uint64_t, std::less<>>
    counts() const FP_EXCLUDES(_mu)
    {
        fp::MutexLock lock(_mu);
        return _counts;
    }

    /** Clear all counters (tests isolate themselves with this). */
    void
    reset() FP_EXCLUDES(_mu)
    {
        fp::MutexLock lock(_mu);
        _counts.clear();
        _total = 0;
        _failures = 0;
    }

  private:
    InvariantRegistry() = default;

    mutable fp::Mutex _mu;
    std::map<std::string, std::uint64_t, std::less<>>
        _counts FP_GUARDED_BY(_mu);
    std::uint64_t _total FP_GUARDED_BY(_mu) = 0;
    std::uint64_t _failures FP_GUARDED_BY(_mu) = 0;
    CheckHook _check_hook FP_GUARDED_BY(_mu) = nullptr;
    void *_check_arg FP_GUARDED_BY(_mu) = nullptr;
    ContextHook _context_hook FP_GUARDED_BY(_mu) = nullptr;
    void *_context_arg FP_GUARDED_BY(_mu) = nullptr;
};

} // namespace fp::check

/**
 * Assert a named simulator-wide invariant. @p name must be a string
 * literal (it doubles as the registry key); the remaining arguments
 * stream into the failure message. Compiled out (while still
 * type-checked, so both configurations keep building) unless
 * FP_CHECK_ENABLED is defined.
 */
#ifdef FP_CHECK_ENABLED
#define FP_INVARIANT(cond, name, ...)                                        \
    do {                                                                     \
        ::fp::check::InvariantRegistry::instance().recordCheck(name);        \
        if (!(cond)) {                                                       \
            ::fp::check::InvariantRegistry::instance().fail(                 \
                name, __FILE__, __LINE__,                                    \
                ::fp::common::detail::formatMessage(                         \
                    "invariant '" #cond "' violated"                         \
                    __VA_OPT__(": ", ) __VA_ARGS__));                        \
        }                                                                    \
    } while (0)
#else
#define FP_INVARIANT(cond, name, ...)                                        \
    do {                                                                     \
        if (false && !(cond)) {                                              \
            (void)::fp::common::detail::formatMessage(                       \
                name __VA_OPT__(, ) __VA_ARGS__);                            \
        }                                                                    \
    } while (0)
#endif

#endif // FP_CHECK_INVARIANT_HH
