/**
 * @file
 * A unidirectional, bandwidth-limited, store-and-forward link.
 *
 * Messages serialize onto the link in FIFO order at the configured
 * bandwidth; a delivered message is handed to the receiver callback after
 * the propagation latency. The link keeps the byte-level statistics that
 * the traffic-breakdown analyses consume.
 */

#ifndef FP_ICN_LINK_HH
#define FP_ICN_LINK_HH

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "common/sim_object.hh"
#include "interconnect/message.hh"
#include "obs/probes.hh"
#include "obs/trace_event.hh"

namespace fp::icn {

/** One direction of a point-to-point interconnect link. */
class Link : public common::SimObject
{
  public:
    using DeliverFn = std::function<void(const WireMessagePtr &)>;

    /**
     * @param name        Component name for stats.
     * @param queue       The system event queue.
     * @param bytes_per_tick  Serialization bandwidth.
     * @param latency     Propagation + forwarding latency in ticks.
     * @param deliver     Called when a message fully arrives.
     */
    Link(const std::string &name, common::EventQueue &queue,
         double bytes_per_tick, Tick latency, DeliverFn deliver);

    /**
     * Enqueue @p msg for transmission at the current tick. When
     * credit-based flow control is enabled and the receiver buffer
     * cannot hold the message, transmission is deferred until credits
     * return. @p on_transmit fires when serialization actually starts
     * (used by the switch to free its ingress buffer).
     */
    void send(const WireMessagePtr &msg,
       std::function<void()> on_transmit = {});

    /**
     * Enable credit-based flow control: at most @p bytes of wire data
     * may be in the receiver's buffer (sent but not yet consumed).
     * The receiver must call releaseCredits() as it drains, or the
     * link stalls forever. 0 disables flow control (the default).
     * Must exceed the largest message sent.
     */
    void setCreditLimit(std::uint64_t bytes);

    /** Return @p bytes of receiver buffer; unblocks waiting messages. */
    void releaseCredits(std::uint64_t bytes);

    std::uint64_t creditLimit() const { return _credit_limit; }
    std::uint64_t creditsInUse() const { return _credits_in_use; }
    std::size_t waitingMessages() const { return _waiting.size(); }
    /** Times a message had to wait for credits. */
    std::uint64_t creditStalls() const
    { return static_cast<std::uint64_t>(_credit_stalls.value()); }

    /** Tick at which the link finishes serializing everything queued. */
    Tick busyUntil() const { return _busy_until; }

    /** True when nothing is queued or in flight on the wire. */
    bool idle() const { return _busy_until <= curTick(); }

    double bytesPerTick() const { return _bytes_per_tick; }

    /** Per-message-kind byte accounting (Figure 10 inputs). */
    struct KindStats
    {
        std::uint64_t payload_bytes = 0;
        std::uint64_t header_bytes = 0;
        std::uint64_t data_bytes = 0;
        std::uint64_t messages = 0;
    };

    const KindStats &kindStats(MessageKind kind) const;

    /** Lifetime totals. */
    std::uint64_t totalWireBytes() const;
    std::uint64_t payloadBytes() const
    { return static_cast<std::uint64_t>(_payload_bytes.value()); }
    std::uint64_t headerBytes() const
    { return static_cast<std::uint64_t>(_header_bytes.value()); }
    std::uint64_t dataBytes() const
    { return static_cast<std::uint64_t>(_data_bytes.value()); }
    std::uint64_t messageCount() const
    { return static_cast<std::uint64_t>(_messages.value()); }
    Tick busyTicks() const
    { return static_cast<Tick>(_busy_ticks.value()); }
    /** Wire bytes transmitted (payload + header); goodput per link. */
    std::uint64_t bytesTx() const
    { return static_cast<std::uint64_t>(_bytes_tx.value()); }
    /** Messages transmitted (serialization starts). */
    std::uint64_t msgsTx() const
    { return static_cast<std::uint64_t>(_msgs_tx.value()); }
    /** Ticks messages spent queued (busy link or credit stall). */
    Tick queueWaitTicks() const
    { return static_cast<Tick>(_wait_ticks.value()); }

    void resetStats();

    /**
     * Attach the tracer and flow collector of @p probes (a null field
     * detaches). At full trace detail every message serialization is
     * one busy span, carrying wire/data byte counts, on (@p trace_pid,
     * @p trace_lane). Every serialization start is reported to the flow
     * collector under @p flow_link with its (src, dst) flow,
     * enqueue-to-start queue wait, and the occupant flow any wait is
     * charged to (docs/fabric_observability.md).
     */
    void
    setProbes(const obs::Probes &probes, std::uint32_t trace_pid,
              obs::TraceLane trace_lane, std::uint32_t flow_link)
    {
        _tracer = probes.tracer;
        _trace_pid = trace_pid;
        _trace_tid = trace_lane;
        _flows = probes.flows;
        _flow_link_id = flow_link;
    }

  private:
    /** Begin serializing a message (credits already consumed). */
    void transmit(const WireMessagePtr &msg,
           const std::function<void()> &on_transmit,
           Tick enqueued);
    /** Start any waiting messages that now fit the credit budget. */
    void drainWaiting();
    /** A message fully arrived (the `link.deliver` event). */
    void arrive(WireMessagePtr msg);

    double _bytes_per_tick;
    Tick _latency;
    DeliverFn _deliver;
    Tick _busy_until = 0;
    /** The `link.deliver` events of the messages on the wire. */
    common::FifoEvent<Link, WireMessagePtr, &Link::arrive> _arrivals;

    /** A credit-stalled message and the tick it was enqueued. */
    struct Pending
    {
        WireMessagePtr msg;
        std::function<void()> on_transmit;
        Tick enqueued = 0;
    };

    std::uint64_t _credit_limit = 0; // 0 = unlimited
    std::uint64_t _credits_in_use = 0;
    std::deque<Pending> _waiting;

    obs::TraceSink *_tracer = nullptr;
    std::uint32_t _trace_pid = 0;
    std::uint32_t _trace_tid = 0;

    obs::FlowCollector *_flows = nullptr;
    std::uint32_t _flow_link_id = 0;
    /** Flow of the most recently transmitted message (wait charging). */
    bool _have_occupant = false;
    GpuId _occupant_src = 0;
    GpuId _occupant_dst = 0;

    common::Scalar _payload_bytes;
    common::Scalar _header_bytes;
    common::Scalar _data_bytes;
    common::Scalar _messages;
    common::Scalar _busy_ticks;
    common::Scalar _bytes_tx;
    common::Scalar _msgs_tx;
    common::Scalar _wait_ticks;
    common::Scalar _credit_stalls;
    std::array<KindStats, message_kind_count> _by_kind{};
};

} // namespace fp::icn

#endif // FP_ICN_LINK_HH
