#include "gpu/dma_engine.hh"

#include <algorithm>

#include "common/bitutil.hh"

namespace fp::gpu {

DmaEngine::DmaEngine(const std::string &name, common::EventQueue &queue,
                     GpuId self, const GpuConfig &config,
                     const icn::PcieProtocol &protocol,
                     icn::SwitchedFabric &fabric,
                     std::uint64_t chunk_bytes)
    : SimObject(name, queue),
      _self(self),
      _config(config),
      _protocol(protocol),
      _fabric(fabric),
      _chunk_bytes(chunk_bytes)
{
    fp_assert(_chunk_bytes >= _protocol.maxPayload(),
              "DMA chunk must cover at least one max-payload TLP");
    stats().registerScalar("copies", &_copies, "DMA copies issued");
    stats().registerScalar("bytes", &_bytes, "bytes copied");
}

void
DmaEngine::copy(GpuId dst, const icn::AddrRange &range)
{
    fp_assert(dst != _self, "DMA copy to self");
    fp_assert(range.size > 0, "empty DMA copy");
    common::AccessRecorder(eventQueue()).write(this, name().c_str());

    ++_copies;
    _bytes += static_cast<double>(range.size);

    // The memcpy API call costs runtime/driver time on the software
    // path; consecutive calls from the same GPU serialize there.
    Tick start = std::max(curTick(), _api_busy_until) +
                 _config.dma_call_overhead;
    _api_busy_until = start;

    eventQueue().schedule(
        [this, dst, range]() {
            Addr addr = range.base;
            std::uint64_t remaining = range.size;
            while (remaining > 0) {
                std::uint64_t chunk =
                    std::min<std::uint64_t>(remaining, _chunk_bytes);

                auto msg = _messages.make();
                msg->kind = icn::MessageKind::dma_chunk;
                msg->src = _self;
                msg->dst = dst;
                msg->dma_range = icn::AddrRange{addr, chunk};
                msg->data_bytes = chunk;
                std::uint64_t tlps =
                    common::divCeil(chunk, _protocol.maxPayload());
                msg->payload_bytes = common::alignUp(chunk, 4);
                msg->header_bytes = tlps * _protocol.tlpOverhead();
                msg->packed_store_count = 0;
                _fabric.inject(msg);

                addr += chunk;
                remaining -= chunk;
            }
        },
        start, common::Event::prio_inject, "dma.copy");
}

} // namespace fp::gpu
