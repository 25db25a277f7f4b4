/**
 * @file
 * The one instrumentation seam of the simulated pipeline: every passive
 * collector that watches the egress port, the fabric and its links, or
 * the ingress port travels in one obs::Probes bundle. Each component
 * takes the whole bundle through one setProbes() call and keeps the
 * fields it uses; a null field detaches that collector, and a detached
 * probe costs one branch wherever the component would report.
 */

#ifndef FP_OBS_PROBES_HH
#define FP_OBS_PROBES_HH

namespace fp::obs {

class FlightRecorder;
class FlowCollector;
class LatencyCollector;
class Profiler;
class TraceSink;

/** Nullable, caller-owned collectors handed to pipeline components. */
struct Probes
{
    /** Chrome trace events (egress stages, links, ingress). */
    TraceSink *tracer = nullptr;
    /** Issue-tick stamping (egress) and stage latencies (ingress). */
    LatencyCollector *latency = nullptr;
    /** Per-flow inject / transmit / commit ledger (fabric, links, ingress). */
    FlowCollector *flows = nullptr;
    /** Run-health ring records for flushes and injects. */
    FlightRecorder *recorder = nullptr;
    /** Host-time scopes below the event that issued the stores (egress). */
    Profiler *profiler = nullptr;
};

} // namespace fp::obs

#endif // FP_OBS_PROBES_HH
