/**
 * @file
 * Host-side self-profiler: the observability layer turned inward.
 *
 * Everything else under obs/ measures the *simulated* system; this
 * measures the simulator. A Profiler rides the EventQueue observer
 * hooks and attributes wall-clock handler execution time to event
 * labels (Event::description()), aggregated into per-label buckets
 * (count, total ns, self ns, max ns) with a top-N hotspot report. It
 * also snapshots the queue's operation counters (pushes, pops, stale
 * drops, peak heap depth) and derives events-per-second throughput.
 *
 * Cost model: off (not attached - every normal run) is exactly the
 * queue's no-observer fast path: zero per-event virtual dispatch. On,
 * each event costs two clock reads and one hash-cache lookup. The
 * profiler never touches simulated state, so enabling it changes no
 * oracle/stats/result digest (tests/sim/profiler_digest_test.cc holds
 * this); it reports wantsAccesses() == false, keeping every
 * AccessRecorder on its null fast path.
 *
 * Threading: one Profiler serves one simulation thread at a time.
 * Parallel sweeps (sim::SweepRunner) use one Profiler per shard; no
 * profiler state is shared between shards. See docs/profiling.md.
 */

#ifndef FP_OBS_PROFILER_HH
#define FP_OBS_PROFILER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/event_queue.hh"

namespace fp::common {
class JsonWriter;
} // namespace fp::common

namespace fp::obs {

class TraceSink;

/** One aggregated hotspot row (per event-label host time). */
struct HostHotspot
{
    std::string label;
    std::uint64_t count = 0;
    /** Wall ns inside this label, including nested frames. */
    std::uint64_t total_ns = 0;
    /** Wall ns excluding nested frames (what sorting uses). */
    std::uint64_t self_ns = 0;
    /** Longest single frame. */
    std::uint64_t max_ns = 0;
};

class Profiler : public common::EventQueueObserver
{
  public:
    Profiler() = default;

    /**
     * RAII frame for host code that is not an event handler (the
     * driver's per-iteration loop, analytic runs, trace generation).
     * Inert when @p profiler is null, so call sites need no branch.
     * Events executing inside the scope nest under it: the scope's
     * *self* time is exactly the driver/queue overhead no handler
     * accounts for. A scope opened inside an event handler (one per
     * flush, say) aggregates only; the host timeline keeps the
     * driver's scopes. @p label must be a string literal.
     */
    class Scope
    {
      public:
        Scope(Profiler *profiler, const char *label) : _profiler(profiler)
        {
            if (_profiler)
                _profiler->pushFrame(label, /*is_scope=*/true);
        }

        ~Scope()
        {
            if (_profiler)
                _profiler->popFrame();
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Profiler *_profiler;
    };

    /**
     * Attach to @p queue (observer hooks + wall-clock start). One run
     * at a time; aggregates accumulate across runs so N reps of a
     * workload fold into one report.
     */
    void beginRun(common::EventQueue *queue);

    /**
     * Detach from the run's queue, folding its wall time and operation
     * counters into the aggregates. Must be called while the queue is
     * still alive.
     */
    void endRun();

    // ---- EventQueueObserver --------------------------------------------
    void beginEvent(const common::Event &event) override;
    void endEvent(const common::Event &event) override;

    // ---- Aggregated results --------------------------------------------
    /** Events observed across all runs. */
    std::uint64_t events() const { return _events; }
    /** Wall-clock ns spent inside beginRun()..endRun() windows. */
    std::uint64_t wallNs() const { return _wall_ns; }
    /** Events per wall-clock second (0 when no time elapsed). */
    double eventsPerSec() const;

    std::uint64_t queuePushes() const { return _queue_pushes; }
    std::uint64_t queuePops() const { return _queue_pops; }
    std::uint64_t queueStaleDrops() const { return _queue_stale_drops; }
    std::size_t queuePeakDepth() const { return _queue_peak_depth; }

    /**
     * Hotspots sorted by self time (descending; label breaks ties for
     * determinism across equal times). Buckets sharing label *text*
     * merge, so the same literal in two translation units is one row.
     * @p top_n == 0 returns all.
     */
    std::vector<HostHotspot> hotspots(std::size_t top_n = 0) const;

    /**
     * The stats-JSON `host` object (schema in docs/profiling.md):
     * wall_ns, events, events_per_sec, queue counters, and the hotspot
     * table.
     */
    void dumpJson(common::JsonWriter &json, std::size_t top_n = 0) const;

    /**
     * Render the host timeline into a Chrome trace: one slice per
     * manual Scope frame (capped; see droppedSlices()) plus an
     * events-per-second counter, under a dedicated host pid
     * (trace_pid_host). Host timestamps are wall ns since the first
     * beginRun() or timeline scope, whichever came first (a trace load
     * precedes every run), scaled so they render as microseconds
     * alongside the simulated timeline - a second clock domain in the
     * same view.
     */
    void emitTrace(TraceSink &sink) const;

    /** Manual-scope slices retained for emitTrace(). */
    std::size_t sliceCount() const { return _slices.size(); }
    /** Slices beyond the retention cap (counted, not kept). */
    std::uint64_t droppedSlices() const { return _dropped_slices; }

    /** Forget all aggregates (detaches nothing; not run-reentrant). */
    void reset();

  private:
    /** Per-label aggregation bucket, keyed by label pointer. */
    struct Bucket
    {
        const char *label = nullptr;
        std::uint64_t count = 0;
        std::uint64_t total_ns = 0;
        std::uint64_t self_ns = 0;
        std::uint64_t max_ns = 0;
    };

    /** One open frame on the host call stack. */
    struct Frame
    {
        Bucket *bucket = nullptr;
        std::uint64_t start_ns = 0;
        /** Wall ns spent in already-closed nested frames. */
        std::uint64_t child_ns = 0;
        /** A scope with no event open below it: retain a slice. */
        bool timeline = false;
    };

    /** A retained manual-scope slice for the trace timeline. */
    struct Slice
    {
        const char *label = nullptr;
        std::uint64_t start_ns = 0;
        std::uint64_t dur_ns = 0;
    };

    friend class Scope;

    void pushFrame(const char *label, bool is_scope);
    void popFrame();
    Bucket *bucketFor(const char *label);

    std::unordered_map<const void *, Bucket> _buckets;
    /** One-entry lookup cache: repeated labels skip the hash. */
    const void *_last_key = nullptr;
    Bucket *_last_bucket = nullptr;

    std::vector<Frame> _stack;
    std::vector<Slice> _slices;
    std::uint64_t _dropped_slices = 0;

    common::EventQueue *_queue = nullptr;
    std::uint64_t _events = 0;
    std::uint64_t _wall_ns = 0;
    std::uint64_t _queue_pushes = 0;
    std::uint64_t _queue_pops = 0;
    std::uint64_t _queue_stale_drops = 0;
    std::size_t _queue_peak_depth = 0;

    /** Make @p now_ns the timeline origin unless one is set. */
    void markOrigin(std::uint64_t now_ns);

    /** Wall-ns origin of the host timeline (first run or frame). */
    std::uint64_t _origin_ns = 0;
    bool _origin_set = false;
    std::uint64_t _run_start_ns = 0;
};

} // namespace fp::obs

#endif // FP_OBS_PROFILER_HH
