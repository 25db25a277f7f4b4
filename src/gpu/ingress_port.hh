/**
 * @file
 * The GPU's network ingress port: receives wire messages from the
 * fabric, models the de-packetizer buffer drain into the local memory
 * system, and (optionally) applies store data to a functional memory for
 * correctness checking.
 */

#ifndef FP_GPU_INGRESS_PORT_HH
#define FP_GPU_INGRESS_PORT_HH

#include <functional>
#include <memory>

#include "common/sim_object.hh"
#include "gpu/functional_memory.hh"
#include "gpu/gpu_config.hh"
#include "interconnect/message.hh"
#include "obs/latency.hh"
#include "obs/probes.hh"
#include "obs/trace_event.hh"

namespace fp::gpu {

/** The ingress-side network interface of one GPU. */
class IngressPort : public common::SimObject
{
  public:
    using DeliveredFn = std::function<void(const icn::WireMessagePtr &)>;

    IngressPort(const std::string &name, common::EventQueue &queue,
                GpuId self, const GpuConfig &config);

    /**
     * Handle one arriving message: disaggregated stores drain into the
     * local memory system at HBM write bandwidth (never slower than the
     * interconnect can deliver, per Section IV-C, but modeled anyway).
     */
    void receive(const icn::WireMessagePtr &msg);

    /** Attach a functional memory that delivered store data writes to. */
    void attachMemory(FunctionalMemory *memory) { _memory = memory; }

    /** Callback invoked when a message has fully drained. */
    void setDeliveredCallback(DeliveredFn fn) { _delivered_cb = std::move(fn); }

    /**
     * Attach the tracer, latency and flow collectors of @p probes (a
     * null field detaches). The tracer gets per-message drain spans on
     * this GPU's ingress lane at full detail; the latency collector
     * gets every drained message's stage latencies (commit = end of
     * the HBM drain); the flow collector gets every received message
     * committed against its src -> dst flow, closing the inject/commit
     * conservation ledger. A detached probe costs one branch per
     * message.
     */
    void
    setProbes(const obs::Probes &probes)
    {
        _tracer = probes.tracer;
        _latency = probes.latency;
        _flows = probes.flows;
    }

    /** Tick when the ingress path finishes draining everything queued. */
    Tick drainedAt() const { return _busy_until; }

    std::uint64_t messagesReceived() const
    { return static_cast<std::uint64_t>(_messages.value()); }
    std::uint64_t storesDelivered() const
    { return static_cast<std::uint64_t>(_stores.value()); }
    std::uint64_t bytesDelivered() const
    { return static_cast<std::uint64_t>(_bytes.value()); }

  private:
    /** A message finished draining (the `ingress.drain` event). */
    void drained(icn::WireMessagePtr msg);

    GpuId _self;
    GpuConfig _config;
    FunctionalMemory *_memory = nullptr;
    DeliveredFn _delivered_cb;
    /** The `ingress.drain` events of the messages draining. */
    common::FifoEvent<IngressPort, icn::WireMessagePtr,
                      &IngressPort::drained>
        _drains;
    obs::TraceSink *_tracer = nullptr;
    obs::LatencyCollector *_latency = nullptr;
    obs::FlowCollector *_flows = nullptr;
    Tick _busy_until = 0;

    common::Scalar _messages;
    common::Scalar _stores;
    common::Scalar _bytes;
};

} // namespace fp::gpu

#endif // FP_GPU_INGRESS_PORT_HH
