#include "common/logging.hh"

#include <atomic>
#include <iostream>

namespace fp::common {

namespace {

// Process-wide output switches: atomics, so any thread may flip them
// and any simulation worker may consult them without locking.
std::atomic<bool> exceptions_enabled{true};
std::atomic<bool> quiet{false};

// The failure hook slot (setFailureHook): two atomics installed
// together before any simulation thread starts, read on the (cold)
// failure path only.
std::atomic<void (*)(void *, const char *)> failure_hook{nullptr};
std::atomic<void *> failure_hook_arg{nullptr};

// Re-entry guard: a hook that itself panics must not recurse.
// thread_local -- each thread's failure path guards itself.
thread_local bool in_failure_hook = false;

/**
 * Installed by ScopedTickContext while a simulation is running.
 * thread_local: each simulation runs on one thread, so under the
 * parallel sweep runner every worker carries its own tick context and
 * diagnostics are stamped with the emitting simulation's clock -
 * confinement is the thread-safety argument here, not locking.
 */
thread_local std::function<std::uint64_t()> tick_source;

/** "[tick N] " when a tick source is active, empty otherwise. */
std::string
tickPrefix()
{
    if (!tick_source)
        return {};
    return "[tick " + std::to_string(tick_source()) + "] ";
}

} // namespace

ScopedTickContext::ScopedTickContext(std::function<std::uint64_t()> now)
    : _previous(std::move(tick_source))
{
    tick_source = std::move(now);
}

ScopedTickContext::~ScopedTickContext()
{
    tick_source = std::move(_previous);
}

void
setExceptionsEnabled(bool enable)
{
    exceptions_enabled.store(enable);
}

bool
exceptionsEnabled()
{
    return exceptions_enabled.load();
}

void
setQuiet(bool q)
{
    quiet.store(q);
}

void
setFailureHook(void (*hook)(void *, const char *), void *arg)
{
    failure_hook_arg.store(arg, std::memory_order_relaxed);
    failure_hook.store(hook, std::memory_order_release);
}

namespace detail {

void
invokeFailureHook(const char *message)
{
    auto hook = failure_hook.load(std::memory_order_acquire);
    if (!hook || in_failure_hook)
        return;
    in_failure_hook = true;
    hook(failure_hook_arg.load(std::memory_order_relaxed), message);
    in_failure_hook = false;
}

void
panicImpl(const char *file, int line, const std::string &message)
{
    std::string full = std::string("panic: ") + message + " @ " + file + ":" +
                       std::to_string(line);
    invokeFailureHook(full.c_str());
    if (exceptionsEnabled())
        throw SimError(SimError::Kind::Panic, full);
    std::cerr << full << std::endl;
    std::abort();
}

void
fatalImpl(const std::string &message)
{
    std::string full = "fatal: " + message;
    if (exceptionsEnabled())
        throw SimError(SimError::Kind::Fatal, full);
    std::cerr << full << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &message)
{
    if (!quiet.load())
        std::cerr << "warn: " << tickPrefix() << message << std::endl;
}

void
informImpl(const std::string &message)
{
    if (!quiet.load())
        std::cout << "info: " << tickPrefix() << message << std::endl;
}

} // namespace detail

} // namespace fp::common
