/**
 * @file
 * Run-health layer: heartbeat emitter and stall watchdog.
 *
 * Long replays and parameter sweeps fail in two characteristic ways
 * that plain stats cannot distinguish from "still working": a wedged
 * run (host wall-clock advances while the sim tick and events-executed
 * counters freeze with work still queued) and quiescence with
 * incomplete work (the queue drains but a sweep still has shards
 * outstanding). HealthMonitor owns a single watchdog thread (fp::Thread
 * on the annotated sync primitives in common/sync.h) that wakes every
 * heartbeat interval, reads ONLY the relaxed progress atomics published
 * by a FlightRecorder / SweepRunner, and:
 *
 *  - emits one line-delimited JSON `kind:"heartbeat"` document (tick,
 *    events, events/sec, queue depth/peak, RWQ flush totals, invariant
 *    evaluations, RSS high-water from /proc/self/status, sweep
 *    done/total with an ETA) to stderr or the configured path,
 *  - publishes that line into the fatal handler's buffer
 *    (obs::fatal::setLastHeartbeat) so post-mortems carry the last
 *    known-good progress sample, and
 *  - diagnoses stalls: if the progress signature freezes for at least
 *    the stall threshold it emits one `kind:"stall"` document per
 *    episode ("wedged" when events are queued, "quiescent" when a
 *    sweep is attached and unfinished), re-arming when progress
 *    resumes.
 *
 * Digest neutrality: the monitor never touches simulated state -- it
 * reads atomics and writes host-side JSON. Attaching it changes no
 * oracle / stats / RunResult digest (tests/sim/health_digest_test.cc).
 * All wall-clock use lives in health.cc behind fp-lint waivers: like
 * the profiler, measuring host time is this component's job.
 */

#ifndef FP_OBS_HEALTH_HH
#define FP_OBS_HEALTH_HH

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>

#include "common/sync.h"

namespace fp::obs {

class FlightRecorder;

class HealthMonitor
{
  public:
    struct Options
    {
        /** Heartbeat interval (default 1 s). */
        std::uint64_t heartbeat_ns = 1'000'000'000ULL;
        /**
         * Frozen-progress threshold before a stall document is
         * emitted; 0 = 10x the heartbeat interval.
         */
        std::uint64_t stall_ns = 0;
        /** Heartbeat sink; empty writes to stderr. */
        std::string heartbeat_path;
    };

    HealthMonitor();
    explicit HealthMonitor(Options options);

    /** Stops the watchdog (joins the thread) if still running. */
    ~HealthMonitor();

    HealthMonitor(const HealthMonitor &) = delete;
    HealthMonitor &operator=(const HealthMonitor &) = delete;

    /**
     * Progress source (nullable). The recorder must outlive the
     * monitor or be detached with attachRecorder(nullptr) + stop()
     * first. Without a recorder, heartbeats still carry host-side
     * fields (RSS, sweep) but stall detection is off.
     */
    void attachRecorder(const FlightRecorder *recorder);

    /**
     * Sweep progress cells (both nullable together; owned by the
     * SweepRunner, which calls this from attachHealth()). Enables the
     * sweep section of heartbeats and quiescent-stall detection.
     */
    void setSweepProgress(const std::atomic<std::uint64_t> *done,
                          const std::atomic<std::uint64_t> *total);

    /** Start the watchdog thread. No-op if already running. */
    void start();

    /** Stop and join the watchdog thread. Safe to call twice. */
    void stop();

    /** Heartbeat documents emitted so far. */
    std::uint64_t heartbeats() const;

    /** Stall episodes diagnosed so far. */
    std::uint64_t stallsDetected() const;

    /**
     * One watchdog evaluation against externally supplied clock and
     * progress readings -- the pure core of the thread loop, exposed
     * so tests can drive a wedged scenario without real waiting.
     * Returns true when this call diagnosed a new stall episode.
     */
    bool evaluate(std::uint64_t now_ns);

    /** VmHWM from /proc/self/status in KiB (0 if unavailable). */
    static std::uint64_t rssHighWaterKb();

  private:
    void threadMain();
    void emitHeartbeat(std::uint64_t now_ns);
    void emitStall(std::uint64_t now_ns, const char *mode,
                   std::uint64_t stalled_ns);
    void writeLine(const std::string &line);
    std::uint64_t progressSignature() const;

    Options _options;

    std::atomic<const FlightRecorder *> _recorder{nullptr};
    std::atomic<const std::atomic<std::uint64_t> *> _sweep_done{nullptr};
    std::atomic<const std::atomic<std::uint64_t> *> _sweep_total{
        nullptr};

    fp::Mutex _mu;
    fp::CondVar _cv;
    bool _stop FP_GUARDED_BY(_mu) = false;
    fp::Thread _thread;
    bool _running = false;

    std::ofstream _out; ///< watchdog thread only (after start())

    // Watchdog bookkeeping; watchdog thread only (or the test driving
    // evaluate() single-threaded).
    std::uint64_t _start_ns = 0;
    std::uint64_t _last_progress_ns = 0;
    std::uint64_t _last_signature = 0;
    std::uint64_t _last_beat_ns = 0;
    std::uint64_t _last_beat_events = 0;
    bool _in_stall = false;

    std::atomic<std::uint64_t> _heartbeats{0};
    std::atomic<std::uint64_t> _stalls{0};
};

} // namespace fp::obs

#endif // FP_OBS_HEALTH_HH
