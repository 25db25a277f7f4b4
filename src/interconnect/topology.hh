/**
 * @file
 * A switched point-to-point topology: every GPU connects to a central
 * switch by one full-duplex link pair, as in the paper's 4-GPU switched
 * PCIe system. The switch is store-and-forward with a fixed forwarding
 * latency; FinePack traffic passes through it unmodified (Section IV-A).
 */

#ifndef FP_ICN_TOPOLOGY_HH
#define FP_ICN_TOPOLOGY_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/sim_object.hh"
#include "interconnect/link.hh"
#include "interconnect/protocol.hh"

namespace fp::icn {

/** Parameters of the switched interconnect fabric. */
struct FabricParams
{
    /** Per-direction link bandwidth, bytes per tick. */
    double bytes_per_tick = 0.032; // PCIe 4.0 x16: 32 GB/s
    /** Wire propagation latency per hop in ticks. */
    Tick link_latency = 100 * ticks_per_ns;
    /** Switch forwarding latency in ticks. */
    Tick switch_latency = 150 * ticks_per_ns;
    /**
     * Credit-based flow control: per-uplink switch ingress buffer.
     * A message occupies the buffer from uplink transmission until the
     * switch forwards it onward; 0 disables (infinite buffering).
     */
    std::uint64_t switch_buffer_bytes = 0;
    /**
     * Per-downlink endpoint receive buffer. The endpoint must release
     * credits (SwitchedFabric::releaseEndpointCredits) as it consumes
     * messages, or the downlink stalls. 0 disables.
     */
    std::uint64_t endpoint_buffer_bytes = 0;

    static FabricParams forPcie(PcieGen gen);
};

/**
 * A star fabric connecting @p num_gpus endpoints through one switch.
 *
 * Route: uplink[src] -> (switch latency) -> downlink[dst]. Each endpoint
 * registers an ingress callback invoked when a message fully arrives at
 * its downlink.
 */
class SwitchedFabric : public common::SimObject
{
  public:
    using IngressFn = std::function<void(const WireMessagePtr &)>;

    SwitchedFabric(const std::string &name, common::EventQueue &queue,
                   std::uint32_t num_gpus, FabricParams params);

    /** Register the destination-side handler for GPU @p gpu. */
    void setIngressHandler(GpuId gpu, IngressFn handler);

    /** Inject a message at its source GPU's uplink. */
    void inject(const WireMessagePtr &msg);

    /**
     * Return endpoint receive-buffer credits for GPU @p gpu (only
     * meaningful when endpoint_buffer_bytes is configured).
     */
    void releaseEndpointCredits(GpuId gpu, std::uint64_t bytes);

    std::uint32_t numGpus() const { return _num_gpus; }
    const FabricParams &params() const { return _params; }

    Link &uplink(GpuId gpu);
    Link &downlink(GpuId gpu);
    const Link &uplink(GpuId gpu) const;
    const Link &downlink(GpuId gpu) const;

    /** Latest tick at which any link finishes serializing. */
    Tick busyUntil() const;

    /** Sum of wire bytes over all uplinks (each message counted once). */
    std::uint64_t totalInjectedWireBytes() const;

    void resetStats();

    /**
     * Attach @p probes to the fabric and every link (a null field
     * detaches). The tracer gets busy spans from GPU g's uplink and
     * downlink on its trace process (uplink / downlink lanes) and
     * flow-event ids at full detail. The flow collector gets every
     * link registered, uplink g before downlink g, and each injected
     * message accounted against its src -> dst flow; call after
     * FlowCollector::beginRun() sized for this fabric's GPU count.
     * The flight recorder gets one `fabric_inject` ring record (wire
     * bytes, dst) per inject(); see docs/run_health.md. A detached
     * probe costs one branch per message.
     */
    void setProbes(const obs::Probes &probes);

  private:
    void forward(const WireMessagePtr &msg);

    std::uint32_t _num_gpus;
    FabricParams _params;
    std::vector<std::unique_ptr<Link>> _uplinks;
    std::vector<std::unique_ptr<Link>> _downlinks;
    std::vector<IngressFn> _ingress;
    obs::TraceSink *_tracer = nullptr;
    obs::FlowCollector *_flows = nullptr;
    obs::FlightRecorder *_recorder = nullptr;
    /** Deterministic flow-event chain ids (full trace detail only). */
    std::uint64_t _next_flow_id = 0;
};

} // namespace fp::icn

#endif // FP_ICN_TOPOLOGY_HH
