#include "interconnect/topology.hh"

#include "obs/flight_recorder.hh"
#include "obs/flow.hh"

namespace fp::icn {

FabricParams
FabricParams::forPcie(PcieGen gen)
{
    FabricParams params;
    params.bytes_per_tick = PcieProtocol(gen).bytesPerTick();
    return params;
}

SwitchedFabric::SwitchedFabric(const std::string &name,
                               common::EventQueue &queue,
                               std::uint32_t num_gpus, FabricParams params)
    : SimObject(name, queue), _num_gpus(num_gpus), _params(params),
      _ingress(num_gpus)
{
    fp_assert(num_gpus >= 1, "fabric needs at least one GPU");
    for (std::uint32_t g = 0; g < num_gpus; ++g) {
        _uplinks.push_back(std::make_unique<Link>(
            name + ".up" + std::to_string(g), queue, params.bytes_per_tick,
            params.link_latency + params.switch_latency,
            [this](const WireMessagePtr &msg) { forward(msg); }));
        _downlinks.push_back(std::make_unique<Link>(
            name + ".down" + std::to_string(g), queue,
            params.bytes_per_tick, params.link_latency,
            [this, g](const WireMessagePtr &msg) {
                if (_ingress[g])
                    _ingress[g](msg);
            }));
        if (params.switch_buffer_bytes != 0)
            _uplinks.back()->setCreditLimit(params.switch_buffer_bytes);
        if (params.endpoint_buffer_bytes != 0)
            _downlinks.back()->setCreditLimit(
                params.endpoint_buffer_bytes);
    }
}

void
SwitchedFabric::releaseEndpointCredits(GpuId gpu, std::uint64_t bytes)
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    _downlinks[gpu]->releaseCredits(bytes);
}

void
SwitchedFabric::setIngressHandler(GpuId gpu, IngressFn handler)
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    _ingress[gpu] = std::move(handler);
}

void
SwitchedFabric::inject(const WireMessagePtr &msg)
{
    fp_assert(msg->src < _num_gpus, "bad source GPU ", msg->src);
    fp_assert(msg->dst < _num_gpus, "bad destination GPU ", msg->dst);
    fp_assert(msg->src != msg->dst, "message to self on GPU ", msg->src);
    msg->timing.created = curTick();
    if (_tracer && _tracer->full())
        msg->timing.flow_id = ++_next_flow_id;
    if (_flows)
        _flows->recordInject(msg->src, msg->dst, msg->wireBytes(),
                             msg->payload_bytes, msg->data_bytes,
                             msg->packed_store_count);
    if (_recorder)
        _recorder->record(obs::FlightKind::fabric_inject, curTick(),
                          "fabric.inject", msg->wireBytes(), msg->dst);
    _uplinks[msg->src]->send(msg);
}

void
SwitchedFabric::forward(const WireMessagePtr &msg)
{
    // Store-and-forward at the switch: the message re-serializes on the
    // destination's downlink. With flow control enabled, the switch
    // ingress buffer entry frees (uplink credits return) once the
    // downlink starts reading the message out.
    if (_params.switch_buffer_bytes != 0) {
        GpuId src = msg->src;
        std::uint64_t bytes = msg->wireBytes();
        _downlinks[msg->dst]->send(msg, [this, src, bytes]() {
            _uplinks[src]->releaseCredits(bytes);
        });
    } else {
        _downlinks[msg->dst]->send(msg);
    }
}

Link &
SwitchedFabric::uplink(GpuId gpu)
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    return *_uplinks[gpu];
}

Link &
SwitchedFabric::downlink(GpuId gpu)
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    return *_downlinks[gpu];
}

const Link &
SwitchedFabric::uplink(GpuId gpu) const
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    return *_uplinks[gpu];
}

const Link &
SwitchedFabric::downlink(GpuId gpu) const
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    return *_downlinks[gpu];
}

Tick
SwitchedFabric::busyUntil() const
{
    Tick latest = 0;
    for (const auto &link : _uplinks)
        latest = std::max(latest, link->busyUntil());
    for (const auto &link : _downlinks)
        latest = std::max(latest, link->busyUntil());
    return latest;
}

std::uint64_t
SwitchedFabric::totalInjectedWireBytes() const
{
    std::uint64_t total = 0;
    for (const auto &link : _uplinks)
        total += link->totalWireBytes();
    return total;
}

void
SwitchedFabric::setProbes(const obs::Probes &probes)
{
    _tracer = probes.tracer;
    _flows = probes.flows;
    _recorder = probes.recorder;
    auto attach = [&](Link &link, GpuId g, obs::TraceLane lane,
                      obs::FlowCollector::LinkKind kind) {
        std::uint32_t flow_link =
            _flows ? _flows->registerLink(link.name(), kind, g) : 0;
        link.setProbes(probes, obs::tracePidGpu(g), lane, flow_link);
    };
    for (GpuId g = 0; g < _num_gpus; ++g) {
        attach(*_uplinks[g], g, obs::lane_uplink,
               obs::FlowCollector::LinkKind::uplink);
        attach(*_downlinks[g], g, obs::lane_downlink,
               obs::FlowCollector::LinkKind::downlink);
    }
}

void
SwitchedFabric::resetStats()
{
    for (auto &link : _uplinks)
        link->resetStats();
    for (auto &link : _downlinks)
        link->resetStats();
}

} // namespace fp::icn
