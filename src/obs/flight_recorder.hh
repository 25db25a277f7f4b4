/**
 * @file
 * Flight recorder: a bounded lock-free ring of recent DES activity.
 *
 * Every other sink under obs/ produces its value at the *end* of a
 * clean run; the flight recorder exists for runs that do not end
 * cleanly. It rides the multi-observer EventQueue hooks and records
 * the last N things the simulator did -- executed events (label, tick,
 * priority), RWQ window flushes with their FlushReason, fabric
 * injects, and invariant names as they are evaluated -- into a
 * preallocated ring of atomic slots. When the process dies (signal,
 * panic, FP_INVARIANT trip, ProtocolOracle mismatch) the fatal handler
 * in src/obs/fatal.cc walks the ring with plain atomic loads and
 * writes it into the `kind:"postmortem"` document, giving every crash
 * a "what was the simulator doing" tail without any of the cost or
 * fragility of full tracing.
 *
 * Concurrency and signal safety: the ring is sized at construction and
 * never reallocates; record() is one relaxed fetch_add (slot claim)
 * plus a handful of relaxed stores into that slot's atomic fields. No
 * locks, no allocation -- safe to call on the per-event hot path
 * (zero allocations after setup; tests/sim/alloc_budget_test.cc holds
 * this) and safe to *read* from an async signal handler or
 * the watchdog thread. Slots are claimed before they are filled, so a
 * reader racing a writer can see one slot mid-update (a torn record:
 * fields from two generations). Post-mortem output is diagnostic, not
 * digested, so a rare torn tail record is an accepted trade for a
 * wait-free hot path; the sequence field lets readers drop slots being
 * overwritten.
 *
 * Labels must be string literals (or otherwise immortal): the ring
 * stores the pointer, exactly like Event::description() and the
 * profiler's buckets, so the signal handler can still dereference it.
 *
 * Digest neutrality: the recorder never touches simulated state and
 * reports wantsAccesses() == false; attaching it changes no oracle /
 * stats / RunResult digest (tests/sim/health_digest_test.cc holds
 * this, the same gate PRs 7-8 used for the profiler and sampler).
 */

#ifndef FP_OBS_FLIGHT_RECORDER_HH
#define FP_OBS_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"

namespace fp::obs {

/** What one flight-recorder slot describes. */
enum class FlightKind : std::uint8_t {
    none = 0,      ///< empty slot (never written)
    event,         ///< executed DES event: a = priority, b = sequence
    rwq_flush,     ///< RWQ window flush: a = entries, b = dst GPU
    fabric_inject, ///< fabric inject: a = wire bytes, b = dst GPU
    invariant,     ///< FP_INVARIANT evaluated (name as label)
    note,          ///< free-form marker (run boundaries, CLI phases)
};

inline constexpr std::size_t flight_kind_count = 6;

const char *toString(FlightKind kind);

class FlightRecorder : public common::EventQueueObserver
{
  public:
    /**
     * One ring slot. All fields are relaxed atomics so the sim thread
     * writes and the watchdog / signal handler read without locks or
     * fences; `seq` is the claim ticket (0 = never written) readers
     * use to order slots and detect in-flight overwrites.
     */
    struct Slot
    {
        std::atomic<std::uint64_t> seq{0};
        std::atomic<Tick> tick{0};
        std::atomic<const char *> label{nullptr};
        std::atomic<std::uint64_t> a{0};
        std::atomic<std::uint64_t> b{0};
        std::atomic<std::uint8_t> kind{0};
    };

    /** A decoded slot (snapshot() output; not the live ring). */
    struct Record
    {
        std::uint64_t seq = 0;
        Tick tick = 0;
        const char *label = nullptr;
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        FlightKind kind = FlightKind::none;
    };

    static constexpr std::size_t default_capacity = 256;

    /** @p capacity slots, rounded up to a power of two (min 2). */
    explicit FlightRecorder(std::size_t capacity = default_capacity);

    ~FlightRecorder() override;

    /**
     * Append one record (wait-free, zero-alloc; see file comment).
     * @p label must be immortal (string literal).
     */
    void record(FlightKind kind, Tick tick, const char *label,
                std::uint64_t a = 0, std::uint64_t b = 0);

    // ---- EventQueueObserver --------------------------------------------
    /** Records the event and publishes run-progress counters. */
    void beginEvent(const common::Event &event) override;
    void endEvent(const common::Event &event) override;

    /**
     * Attach to @p queue for a run: the driver calls this (paired with
     * endRun()) so beginEvent can publish the queue's depth/peak/
     * scheduled/processed counters into atomics the watchdog and the
     * signal handler read. The recorder does NOT add itself as an
     * observer -- the driver owns observer wiring.
     */
    void beginRun(const common::EventQueue *queue);

    /** Publish final queue counters and detach from the run's queue. */
    void endRun();

    // ---- Progress cells (all relaxed; readable from any thread) --------
    /** Records ever written (monotonic; > capacity() means wrapped). */
    std::uint64_t recordsWritten() const;
    /** Tick of the most recent record. */
    Tick lastTick() const;
    /** Executed events observed via beginEvent. */
    std::uint64_t eventsSeen() const;
    /** Label of the most recently executed event (nullptr before any). */
    const char *lastEventLabel() const;
    /** Records written per kind. */
    std::uint64_t kindCount(FlightKind kind) const;
    /** RWQ entries carried by all rwq_flush records. */
    std::uint64_t rwqEntriesFlushed() const;

    // ---- Published queue counters (beginRun/beginEvent/endRun) ---------
    std::uint64_t queueDepth() const;
    std::uint64_t queuePeakDepth() const;
    std::uint64_t queueScheduled() const;
    std::uint64_t queueProcessed() const;

    // ---- Ring access ---------------------------------------------------
    std::size_t capacity() const { return _capacity; }
    /** The live ring, for lock-free readers (fatal.cc). */
    const Slot *slots() const { return _slots.get(); }
    /** Next claim ticket (== recordsWritten(); for ring iteration). */
    std::uint64_t nextSeq() const;

    /**
     * Decode the ring oldest-first (allocates; tests and non-signal
     * reporting). Slots observed mid-overwrite are skipped.
     */
    std::vector<Record> snapshot() const;

    // ---- Invariant-registry bridge -------------------------------------
    /**
     * Route InvariantRegistry through this recorder: every evaluation
     * becomes an `invariant` record and failure messages gain
     * " while executing '<label>' at tick N (event #M)" context. The
     * hooks are process-global single slots -- one bridged recorder at
     * a time (the CLI's; parallel sweep shards do not bridge).
     */
    void installInvariantHooks();
    /** Clear the registry hooks if this recorder installed them. */
    void removeInvariantHooks();

  private:
    static std::string describeContext(const FlightRecorder &recorder);

    std::size_t _capacity;
    std::size_t _mask;
    std::unique_ptr<Slot[]> _slots;

    std::atomic<std::uint64_t> _next{0};
    std::atomic<Tick> _last_tick{0};
    std::atomic<const char *> _last_event_label{nullptr};
    std::atomic<std::uint64_t> _events{0};
    std::atomic<std::uint64_t> _kind_counts[flight_kind_count];
    std::atomic<std::uint64_t> _rwq_entries{0};

    std::atomic<std::uint64_t> _queue_depth{0};
    std::atomic<std::uint64_t> _queue_peak{0};
    std::atomic<std::uint64_t> _queue_scheduled{0};
    std::atomic<std::uint64_t> _queue_processed{0};

    /** The attached run's queue; sim thread only (confinement). */
    const common::EventQueue *_queue = nullptr;
    bool _hooks_installed = false;
};

} // namespace fp::obs

#endif // FP_OBS_FLIGHT_RECORDER_HH
