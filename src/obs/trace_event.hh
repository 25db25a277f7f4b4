/**
 * @file
 * Low-overhead event tracer emitting Chrome trace-event JSON.
 *
 * Components across the FinePack pipeline (remote write queue,
 * packetizer, egress/ingress ports, interconnect links, sim driver)
 * hold an optional TraceSink pointer; a null pointer means tracing is
 * off and every hook reduces to one branch. Recording an event copies
 * a small POD - names and categories must be string literals (or
 * otherwise outlive the sink) so the hot path never formats strings or
 * allocates; only counter tracks, whose names are built once at
 * registration, carry a dynamic name.
 *
 * The output loads directly in chrome://tracing and Perfetto:
 * duration events (ph "X", complete spans with ts+dur), instant events
 * (ph "i"), counter tracks (ph "C"), and process/thread metadata
 * (ph "M"). Timestamps convert from simulation ticks (1 tick = 1 ps)
 * to the trace format's microseconds at write time.
 */

#ifndef FP_OBS_TRACE_EVENT_HH
#define FP_OBS_TRACE_EVENT_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace fp::obs {

/** How much of the pipeline gets traced. */
enum class TraceDetail : std::uint8_t {
    off,    ///< no tracing (equivalent to a null TraceSink)
    flush,  ///< flushes, packets, phases, counters
    full,   ///< everything, including per-store instants and link spans
};

const char *toString(TraceDetail detail);

/** Conventional process ids inside a trace: pid 0 is the driver. */
inline constexpr std::uint32_t trace_pid_sim = 0;

/**
 * pid of the host self-profiler timeline (obs::Profiler::emitTrace).
 * Far above any GPU pid so the wall-clock timeline sorts last and is
 * unmistakably not part of the simulated system.
 */
inline constexpr std::uint32_t trace_pid_host = 0xffffu;

/** pid of GPU @p g (pid 0 is reserved for the sim driver). */
inline std::uint32_t
tracePidGpu(GpuId g)
{
    return g + 1;
}

/** Conventional thread lanes within one GPU process. */
enum TraceLane : std::uint32_t {
    lane_main = 0,     ///< kernel / iteration phases
    lane_rwq = 1,      ///< remote write queue events
    lane_packetizer = 2,
    lane_ingress = 3,
    lane_uplink = 4,
    lane_downlink = 5,
};

/** A numeric argument attached to an event (key must be static). */
struct TraceArg
{
    const char *key = nullptr;
    double value = 0.0;
};

/** Collects trace events in memory; write() renders the JSON. */
class TraceSink
{
  public:
    explicit TraceSink(TraceDetail detail = TraceDetail::flush)
        : _detail(detail)
    {}

    TraceDetail detail() const { return _detail; }
    /** True when per-store / per-message hooks should fire. */
    bool full() const { return _detail == TraceDetail::full; }

    using Arg = TraceArg;

    /** Complete duration span (ph "X"). */
    void complete(std::uint32_t pid, std::uint32_t tid, const char *name,
          const char *cat, Tick ts, Tick dur, Arg a0 = {},
          Arg a1 = {}, Arg a2 = {});

    /** Instant event (ph "i", thread scope). */
    void instant(std::uint32_t pid, std::uint32_t tid, const char *name,
         const char *cat, Tick ts, Arg a0 = {}, Arg a1 = {},
         Arg a2 = {});

    /** Counter sample (ph "C"); @p track may be a dynamic string. */
    void counter(std::uint32_t pid, const std::string &track, Tick ts,
         double value);

    /**
     * Flow events (ph "s" / "t" / "f") chaining slices across
     * processes; all events sharing @p id render as one arrowed flow
     * in Perfetto. Each binds to the enclosing ph-"X" slice on the
     * same pid/tid at @p ts.
     */
    void flowStart(std::uint32_t pid, std::uint32_t tid, const char *name,
           const char *cat, Tick ts, std::uint64_t id);
    void flowStep(std::uint32_t pid, std::uint32_t tid, const char *name,
          const char *cat, Tick ts, std::uint64_t id);
    void flowEnd(std::uint32_t pid, std::uint32_t tid, const char *name,
         const char *cat, Tick ts, std::uint64_t id);

    /** Process / thread naming metadata (ph "M"). */
    void processName(std::uint32_t pid, const std::string &name);
    void threadName(std::uint32_t pid, std::uint32_t tid,
                    const std::string &name);

    std::size_t eventCount() const { return _events.size(); }

    /** Render the trace as a Chrome trace-event JSON object. */
    void write(std::ostream &os) const;

  private:
    struct Event
    {
        char ph = 'X';
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
        Tick ts = 0;
        Tick dur = 0;
        /** Static name; empty dyn_name means name is authoritative. */
        const char *name = nullptr;
        const char *cat = nullptr;
        /** Dynamic name (counter tracks, metadata string values). */
        std::string dyn_name;
        /** Flow chain id (ph "s"/"t"/"f" only). */
        std::uint64_t id = 0;
        std::array<Arg, 3> args{};
    };

    void push(Event event) { _events.push_back(std::move(event)); }

    TraceDetail _detail;
    std::vector<Event> _events;
};

} // namespace fp::obs

#endif // FP_OBS_TRACE_EVENT_HH
