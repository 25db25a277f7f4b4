/**
 * @file
 * Status / error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - an internal invariant of the simulator was violated (a bug in
 *            this library). Aborts so a debugger or core dump can inspect it.
 * fatal()  - the simulation cannot continue due to a user error (bad
 *            configuration, invalid arguments). Exits with an error code.
 * warn()   - something works, but not as well as it should.
 * inform() - plain status output.
 */

#ifndef FP_COMMON_LOGGING_HH
#define FP_COMMON_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace fp::common {

/**
 * Documented process exit codes (docs/run_health.md). The CLI maps
 * every failure mode onto one of these so campaign drivers can triage
 * thousands of runs from exit status alone.
 */
namespace exit_code {
inline constexpr int fatal = 1;        ///< user/configuration error
inline constexpr int usage = 2;        ///< bad command line
inline constexpr int panic = 3;        ///< simulator bug (fp_panic/assert)
inline constexpr int invariant = 86;   ///< FP_INVARIANT violation
inline constexpr int interrupted = 130; ///< SIGINT (128 + 2)
inline constexpr int terminated = 143;  ///< SIGTERM (128 + 15)
} // namespace exit_code

/** Thrown by panic()/fatal() so tests can observe failures without dying. */
class SimError : public std::runtime_error
{
  public:
    enum class Kind { Panic, Fatal };

    SimError(Kind kind, const std::string &message)
        : std::runtime_error(message), _kind(kind)
    {}

    Kind kind() const { return _kind; }

  private:
    Kind _kind;
};

namespace detail {

/** Fold any streamable argument pack into a single string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/** A program bug: the message ends with the source location. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &message);
/** A user error: the message alone, no source location. */
[[noreturn]] void fatalImpl(const std::string &message);
void warnImpl(const std::string &message);
void informImpl(const std::string &message);

/**
 * Fire the installed failure hook (recursion-guarded, no-op when none
 * is installed). Called on the panic path before the SimError throws
 * or the process aborts, and by InvariantRegistry::fail; user errors
 * (fatal()) do not fire it -- a bad command line needs no post-mortem.
 */
void invokeFailureHook(const char *message);

} // namespace detail

/**
 * Install a hook that runs once per simulator-bug failure (panic,
 * failed assertion, invariant violation) just before the error
 * propagates. The run-health layer installs a post-mortem dump here so
 * an FP_INVARIANT trip or a ProtocolOracle mismatch flushes the flight
 * recorder even when the exception is swallowed upstream. Install
 * before starting threads (the slot is two plain atomics, not a
 * synchronized pair); pass nullptr to uninstall. The hook must not
 * panic -- re-entry is suppressed, not queued.
 */
void setFailureHook(void (*hook)(void *arg, const char *message),
                    void *arg);

/**
 * Control whether panic()/fatal() throw SimError (used by unit tests) or
 * terminate the process (default for standalone binaries).
 */
void setExceptionsEnabled(bool enable);
bool exceptionsEnabled();

/** Suppress warn()/inform() output (benchmarks want quiet runs). */
void setQuiet(bool quiet);

/**
 * While a simulation driver is running an event queue, warn()/inform()
 * prefix their messages with the current simulated tick so diagnostics
 * in long replays are attributable. The driver installs a tick source
 * for the duration of a run via this RAII guard; nesting restores the
 * previous source. The underlying slot is thread_local, so concurrent
 * simulations (the parallel sweep runner) each keep their own context.
 */
class ScopedTickContext
{
  public:
    explicit ScopedTickContext(std::function<std::uint64_t()> now);
    ~ScopedTickContext();

    ScopedTickContext(const ScopedTickContext &) = delete;
    ScopedTickContext &operator=(const ScopedTickContext &) = delete;

  private:
    std::function<std::uint64_t()> _previous;
};

} // namespace fp::common

#define fp_panic(...)                                                        \
    ::fp::common::detail::panicImpl(                                         \
        __FILE__, __LINE__, ::fp::common::detail::formatMessage(__VA_ARGS__))

#define fp_fatal(...)                                                        \
    ::fp::common::detail::fatalImpl(                                         \
        ::fp::common::detail::formatMessage(__VA_ARGS__))

#define fp_warn(...)                                                         \
    ::fp::common::detail::warnImpl(                                          \
        ::fp::common::detail::formatMessage(__VA_ARGS__))

#define fp_inform(...)                                                       \
    ::fp::common::detail::informImpl(                                        \
        ::fp::common::detail::formatMessage(__VA_ARGS__))

/** Assert a simulator invariant; violation is a bug, so it panics. */
#define fp_assert(cond, ...)                                                 \
    do {                                                                     \
        if (!(cond)) {                                                       \
            fp_panic("assertion '" #cond "' failed: ",                       \
                     ::fp::common::detail::formatMessage(__VA_ARGS__));      \
        }                                                                    \
    } while (0)

#endif // FP_COMMON_LOGGING_HH
