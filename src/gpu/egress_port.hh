/**
 * @file
 * The GPU's network egress port.
 *
 * Depending on the configured mode, remote stores leave the GPU as
 * individual TLPs (the P2P-store baseline), through the FinePack remote
 * write queue + packetizer (Figure 7), or through a cacheline
 * write-combining buffer (the GPS-style baseline). The port also
 * implements the memory-model hooks: system-scoped releases flush
 * everything, remote atomics and conflicting remote loads flush the
 * affected partition before proceeding.
 */

#ifndef FP_GPU_EGRESS_PORT_HH
#define FP_GPU_EGRESS_PORT_HH

#include <memory>
#include <vector>

#include "common/sim_object.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "finepack/write_combine.hh"
#include "interconnect/topology.hh"
#include "obs/probes.hh"

namespace fp::check { class ProtocolOracle; }

namespace fp::gpu {

class StageTracer;

/** How remote stores are transferred out of this GPU. */
enum class EgressMode : std::uint8_t {
    raw_p2p,        ///< one TLP per L1-egress store
    finepack,       ///< remote write queue + packetizer
    write_combine,  ///< cacheline-granularity write combining
};

const char *toString(EgressMode mode);

/** The egress-side network interface of one GPU. */
class EgressPort : public common::SimObject
{
  public:
    /**
     * @param flush_timeout  Optional inactivity timeout (in ticks)
     *        after which a non-empty FinePack partition flushes even
     *        without a synchronization or capacity trigger. The paper
     *        discusses but does not enable this (Section IV-B); 0
     *        disables it, matching the paper's configuration.
     */
    EgressPort(const std::string &name, common::EventQueue &queue,
               GpuId self, std::uint32_t num_gpus, EgressMode mode,
               const finepack::FinePackConfig &config,
               const icn::PcieProtocol &protocol,
               icn::SwitchedFabric &fabric, Tick flush_timeout = 0);
    ~EgressPort() override;

    /**
     * Issue one remote store at the current tick. Splits accesses that
     * cross cache-line boundaries; atomics flush the conflicting queue
     * state and travel as dedicated (uncoalesced) messages.
     */
    void issueStore(const icn::Store &store);

    /**
     * Issue a batch of stores that become visible at the same tick
     * (one issue event's worth). In raw-P2P mode the batch is grouped
     * by destination and each group travels as back-to-back TLPs
     * accounted in a single wire message - byte-exact, and a large
     * event-count saving for store-heavy workloads. The other modes
     * push each store through their buffers individually.
     */
    void issueStores(const std::vector<icn::Store> &stores,
              std::size_t begin, std::size_t end);

    /**
     * System-scoped release (memory fence or kernel completion): all
     * buffered state flushes to the interconnect.
     */
    void releaseFence();

    /**
     * A remote load is about to be issued to (dst, addr, size): enforce
     * same-address load-store ordering by flushing a matching partition.
     */
    void notifyRemoteLoad(GpuId dst, Addr addr,
                          std::uint32_t size);

    /**
     * Attach the shadow-memory protocol oracle (finepack mode only) to
     * the remote write queue and the packetizer: it observes the queue
     * in causal order and re-verifies every emitted packet
     * byte-for-byte. Its shadow-memory accesses are declared to this
     * port's event queue for the determinism tooling, so attach after
     * any race detector. It stays attached for the port's lifetime;
     * the caller keeps ownership.
     */
    void attachOracle(check::ProtocolOracle &oracle);

    /**
     * Attach the tracer, latency collector and flight recorder of
     * @p probes (a null field detaches). In finepack mode the tracer
     * gets one adapter on the remote write queue and the packetizer:
     * enqueue / overwrite-in-place (full detail only) / flush /
     * packet-emit instants on this GPU's trace process. With a
     * latency collector stores carry their issue tick so the ingress
     * side can attribute residency and end-to-end latency. The flight
     * recorder gets one `rwq_flush` record per window flush (reason,
     * entries, dst; docs/run_health.md). The profiler gets one
     * `egress.send_flushed` scope per flush sent (packetize + inject;
     * docs/profiling.md).
     */
    void setProbes(const obs::Probes &probes);

    EgressMode mode() const { return _mode; }
    GpuId self() const { return _self; }

    /** Accessors for statistics inspection. */
    const finepack::RemoteWriteQueue &writeQueue() const;
    const finepack::Packetizer &packetizer() const;

    std::uint64_t storesIssued() const
    { return static_cast<std::uint64_t>(_stores_issued.value()); }
    std::uint64_t messagesSent() const
    { return static_cast<std::uint64_t>(_messages_sent.value()); }
    std::uint64_t atomicsSent() const
    { return static_cast<std::uint64_t>(_atomics_sent.value()); }
    std::uint64_t timeoutFlushes() const
    { return static_cast<std::uint64_t>(_timeout_flushes.value()); }

    /** Average stores folded per message (Figure 11 for FinePack). */
    double avgStoresPerMessage() const;

  private:
    /**
     * Issue one line-contained piece of a store, issued at
     * @p issue_tick (max_tick when latency attribution is off).
     */
    void issuePiece(const icn::Store &piece, Tick issue_tick);
    void issueAligned(const icn::Store &store, Tick issue_tick);
    void issueAtomic(const icn::Store &store);
    void sendRaw(const icn::Store &store, icn::MessageKind kind);
    /**
     * Packetize and inject @p flushed, then hand its line storage back
     * to its partition (the flush keeps no entries).
     */
    void sendFlushed(finepack::FlushedPartition &flushed);
    void sendWcLine(GpuId dst, const finepack::WcLine &line);
    void armTimeout(GpuId dst);
    void timeoutFired(GpuId dst);

    GpuId _self;
    std::uint32_t _num_gpus;
    EgressMode _mode;
    finepack::FinePackConfig _config;
    icn::PcieProtocol _protocol;
    icn::SwitchedFabric &_fabric;

    std::unique_ptr<finepack::RemoteWriteQueue> _rwq;
    std::unique_ptr<finepack::Packetizer> _packetizer;
    obs::LatencyCollector *_latency = nullptr;
    obs::FlightRecorder *_recorder = nullptr;
    obs::Profiler *_profiler = nullptr;
    /** Raw-P2P and atomic messages. */
    icn::MessagePool _messages;
    /** RWQ + packetizer trace adapter (finepack mode, tracer attached). */
    std::unique_ptr<StageTracer> _stage_tracer;
    /** One write-combine buffer per destination (index = dst). */
    std::vector<std::unique_ptr<finepack::WriteCombineBuffer>> _wc;

    common::Scalar _stores_issued;
    common::Scalar _messages_sent;
    common::Scalar _atomics_sent;
    common::Scalar _stores_folded;
    common::Scalar _timeout_flushes;
    common::Histogram _store_sizes;
    common::Distribution _flush_entries;
    common::Average _stores_per_msg;
    /** Reused flush buffer for the hot store path. */
    std::vector<finepack::FlushedPartition> _flush_scratch;

    /** Inactivity-timeout state (finepack mode only). */
    Tick _flush_timeout;
    std::vector<Tick> _last_push;     ///< per destination
    std::vector<bool> _timeout_armed; ///< per destination

    /**
     * Stable labels for determinism-analysis access declarations
     * (finepack mode): one per RWQ partition plus the packetizer.
     * AccessRecorder keeps only the const char*, so these must outlive
     * every recorded access.
     */
    std::vector<std::string> _rwq_labels;
    std::string _packetizer_label;
};

} // namespace fp::gpu

#endif // FP_GPU_EGRESS_PORT_HH
