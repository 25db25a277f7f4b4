#include "gpu/ingress_port.hh"

#include <cmath>

#include "check/invariant.hh"
#include "common/logging.hh"
#include "obs/flow.hh"

namespace fp::gpu {

IngressPort::IngressPort(const std::string &name,
                         common::EventQueue &queue, GpuId self,
                         const GpuConfig &config)
    : SimObject(name, queue),
      _self(self),
      _config(config),
      _drains(*this, queue, common::Event::prio_default, "ingress.drain")
{
    stats().registerScalar("messages", &_messages, "messages received");
    stats().registerScalar("stores", &_stores, "stores delivered to L2");
    stats().registerScalar("bytes", &_bytes, "data bytes delivered");
}

void
IngressPort::receive(const icn::WireMessagePtr &msg)
{
    fp_assert(msg->dst == _self, "message delivered to wrong GPU");
    common::AccessRecorder(eventQueue()).write(this, name().c_str());

    ++_messages;
    _stores += static_cast<double>(msg->delivered_stores);
    _bytes += static_cast<double>(msg->data_bytes);

    if (_flows)
        _flows->recordCommit(msg->src, _self, msg->wireBytes(),
                             msg->data_bytes);

    if (_memory) {
        for (const icn::Store &store : msg->stores) {
            if (store.data)
                _memory->apply(store);
        }
    }

    // Model the drain of disaggregated stores into the local memory
    // system at HBM write bandwidth.
    double drain_bytes = msg->data_bytes > 0
                             ? static_cast<double>(msg->data_bytes)
                             : static_cast<double>(msg->payload_bytes);
    auto drain_ticks = static_cast<Tick>(
        std::ceil(drain_bytes / _config.hbmBytesPerTick()));
    drain_ticks = std::max<Tick>(drain_ticks, 1);

    Tick start = std::max(curTick(), _busy_until);
    _busy_until = start + drain_ticks;

    if (_latency) {
        FP_INVARIANT(msg->timing.created != obs::no_stamp &&
                         msg->timing.created <= curTick(),
                     "latency-milestone-order",
                     "message arrived without a monotonic creation "
                     "stamp (created=", msg->timing.created,
                     " now=", curTick(), ")");
        _latency->record(_self, msg->timing, curTick(), _busy_until,
                         msg->store_stamps.data(),
                         msg->store_stamps.size());
    }

    if (_tracer && _tracer->full()) {
        _tracer->complete(obs::tracePidGpu(_self), obs::lane_ingress,
                          "drain", "ingress", start, drain_ticks,
                          {"data_bytes",
                           static_cast<double>(msg->data_bytes)},
                          {"stores",
                           static_cast<double>(msg->delivered_stores)},
                          {"src", static_cast<double>(msg->src)});
        if (msg->timing.flow_id != 0) {
            _tracer->flowEnd(obs::tracePidGpu(_self), obs::lane_ingress,
                             "msg", "flow", start, msg->timing.flow_id);
        }
    }

    // Always schedule the drain-completion event so that running the
    // event queue dry implies all ingress buffers have emptied.
    _drains.schedule(msg, _busy_until);
}

void
IngressPort::drained(icn::WireMessagePtr msg)
{
    if (_delivered_cb)
        _delivered_cb(msg);
}

} // namespace fp::gpu
