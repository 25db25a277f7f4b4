#include "interconnect/link.hh"

#include <cmath>

#include "common/bitutil.hh"
#include "obs/flow.hh"

namespace fp::icn {

Link::Link(const std::string &name, common::EventQueue &queue,
           double bytes_per_tick, Tick latency, DeliverFn deliver)
    : SimObject(name, queue),
      _bytes_per_tick(bytes_per_tick),
      _latency(latency),
      _deliver(std::move(deliver)),
      _arrivals(*this, queue, common::Event::prio_arrival, "link.deliver")
{
    fp_assert(_bytes_per_tick > 0.0, "link bandwidth must be positive");
    stats().registerScalar("payload_bytes", &_payload_bytes,
                           "TLP payload bytes transmitted");
    stats().registerScalar("header_bytes", &_header_bytes,
                           "protocol overhead bytes transmitted");
    stats().registerScalar("data_bytes", &_data_bytes,
                           "store data bytes inside payloads");
    stats().registerScalar("messages", &_messages,
                           "messages transmitted");
    stats().registerScalar("busy_ticks", &_busy_ticks,
                           "ticks spent serializing");
    stats().registerScalar("bytes_tx", &_bytes_tx,
                           "wire bytes transmitted (payload + header)");
    stats().registerScalar("msgs_tx", &_msgs_tx,
                           "messages transmitted");
    stats().registerScalar("wait_ticks", &_wait_ticks,
                           "ticks messages waited to start serializing");
    stats().registerScalar("credit_stalls", &_credit_stalls,
                           "messages that waited for credits");
}

void
Link::setCreditLimit(std::uint64_t bytes)
{
    fp_assert(_credits_in_use == 0 && _waiting.empty(),
              "cannot change the credit limit mid-flight");
    _credit_limit = bytes;
}

void
Link::releaseCredits(std::uint64_t bytes)
{
    if (_credit_limit == 0)
        return;
    common::AccessRecorder(eventQueue()).write(this, name().c_str());
    fp_assert(bytes <= _credits_in_use,
              "credit release underflow on ", name());
    _credits_in_use -= bytes;
    drainWaiting();
}

void
Link::drainWaiting()
{
    // FIFO order: only the head may proceed, to preserve PCIe's posted
    // write ordering.
    while (!_waiting.empty()) {
        const Pending &head = _waiting.front();
        if (_credits_in_use + head.msg->wireBytes() > _credit_limit)
            break;
        _credits_in_use += head.msg->wireBytes();
        transmit(head.msg, head.on_transmit, head.enqueued);
        _waiting.pop_front();
    }
}

void
Link::send(const WireMessagePtr &msg, std::function<void()> on_transmit)
{
    fp_assert(msg != nullptr, "null message on link ", name());
    fp_assert(msg->wireBytes() > 0, "zero-byte message on link ", name());
    // Declare the serialization/credit state for the race detector:
    // two same-tick senders contend on this link's FIFO order.
    common::AccessRecorder(eventQueue()).write(this, name().c_str());

    if (_credit_limit != 0) {
        fp_assert(msg->wireBytes() <= _credit_limit,
                  "message larger than the whole credit budget on ",
                  name());
        if (!_waiting.empty() ||
            _credits_in_use + msg->wireBytes() > _credit_limit) {
            ++_credit_stalls;
            _waiting.push_back({msg, std::move(on_transmit), curTick()});
            return;
        }
        _credits_in_use += msg->wireBytes();
    }
    transmit(msg, on_transmit, curTick());
}

void
Link::transmit(const WireMessagePtr &msg,
               const std::function<void()> &on_transmit, Tick enqueued)
{
    Tick now = curTick();
    Tick start = std::max(now, _busy_until);
    auto tx_ticks = static_cast<Tick>(
        std::ceil(static_cast<double>(msg->wireBytes()) / _bytes_per_tick));
    tx_ticks = std::max<Tick>(tx_ticks, 1);
    _busy_until = start + tx_ticks;

    // First hop (source uplink) stamps the serialization milestones.
    bool first_hop = msg->timing.tx_start == obs::no_stamp;
    if (first_hop) {
        msg->timing.tx_start = start;
        msg->timing.tx_end = _busy_until;
    }

    _payload_bytes += static_cast<double>(msg->payload_bytes);
    _header_bytes += static_cast<double>(msg->header_bytes);
    _data_bytes += static_cast<double>(msg->data_bytes);
    ++_messages;
    _busy_ticks += static_cast<double>(tx_ticks);
    _bytes_tx += static_cast<double>(msg->wireBytes());
    ++_msgs_tx;
    Tick wait = start - enqueued;
    _wait_ticks += static_cast<double>(wait);

    if (_flows) {
        obs::FlowCollector::LinkTransmit tx;
        tx.link = _flow_link_id;
        tx.src = msg->src;
        tx.dst = msg->dst;
        tx.enqueued = enqueued;
        tx.start = start;
        tx.tx_ticks = tx_ticks;
        tx.wire_bytes = msg->wireBytes();
        tx.payload_bytes = msg->payload_bytes;
        tx.data_bytes = msg->data_bytes;
        tx.have_occupant = _have_occupant;
        tx.occupant_src = _occupant_src;
        tx.occupant_dst = _occupant_dst;
        _flows->recordTransmit(tx);
    }
    _have_occupant = true;
    _occupant_src = msg->src;
    _occupant_dst = msg->dst;

    KindStats &kind = _by_kind[static_cast<std::size_t>(msg->kind)];
    kind.payload_bytes += msg->payload_bytes;
    kind.header_bytes += msg->header_bytes;
    kind.data_bytes += msg->data_bytes;
    ++kind.messages;

    if (_tracer && _tracer->full()) {
        _tracer->complete(
            _trace_pid, _trace_tid, "tx", "link", start, tx_ticks,
            {"wire_bytes", static_cast<double>(msg->wireBytes())},
            {"data_bytes", static_cast<double>(msg->data_bytes)},
            {"stores", static_cast<double>(msg->packed_store_count)});
        if (msg->timing.flow_id != 0) {
            if (first_hop)
                _tracer->flowStart(_trace_pid, _trace_tid, "msg", "flow",
                                   start, msg->timing.flow_id);
            else
                _tracer->flowStep(_trace_pid, _trace_tid, "msg", "flow",
                                  start, msg->timing.flow_id);
        }
    }

    if (on_transmit)
        on_transmit();

    _arrivals.schedule(msg, _busy_until + _latency);
}

void
Link::arrive(WireMessagePtr msg)
{
    if (_deliver)
        _deliver(msg);
}

std::uint64_t
Link::totalWireBytes() const
{
    return payloadBytes() + headerBytes();
}

const Link::KindStats &
Link::kindStats(MessageKind kind) const
{
    return _by_kind[static_cast<std::size_t>(kind)];
}

void
Link::resetStats()
{
    _payload_bytes.reset();
    _header_bytes.reset();
    _data_bytes.reset();
    _messages.reset();
    _busy_ticks.reset();
    _bytes_tx.reset();
    _msgs_tx.reset();
    _wait_ticks.reset();
    _credit_stalls.reset();
    _by_kind.fill(KindStats{});
}

} // namespace fp::icn
