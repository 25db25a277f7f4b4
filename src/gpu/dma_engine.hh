/**
 * @file
 * The bulk-DMA copy engine used by the memcpy paradigm: a peer-to-peer
 * copy is issued through a software API (runtime + driver overhead) and
 * then streams max-payload TLPs over the interconnect. Copies are split
 * into multi-TLP chunks so they pipeline through the switch rather than
 * serializing store-and-forward as one giant unit.
 */

#ifndef FP_GPU_DMA_ENGINE_HH
#define FP_GPU_DMA_ENGINE_HH

#include "common/sim_object.hh"
#include "gpu/gpu_config.hh"
#include "interconnect/topology.hh"

namespace fp::gpu {

/** One GPU's peer-to-peer DMA engine. */
class DmaEngine : public common::SimObject
{
  public:
    DmaEngine(const std::string &name, common::EventQueue &queue,
              GpuId self, const GpuConfig &config,
              const icn::PcieProtocol &protocol,
              icn::SwitchedFabric &fabric,
              std::uint64_t chunk_bytes = 64 * KiB);

    /**
     * Start a peer-to-peer copy of @p range (destination-local
     * addresses) to GPU @p dst. The copy begins after the software API
     * overhead; chunks inject back-to-back.
     */
    void copy(GpuId dst, const icn::AddrRange &range);

    std::uint64_t copiesIssued() const
    { return static_cast<std::uint64_t>(_copies.value()); }
    std::uint64_t bytesCopied() const
    { return static_cast<std::uint64_t>(_bytes.value()); }

  private:
    GpuId _self;
    GpuConfig _config;
    icn::PcieProtocol _protocol;
    icn::SwitchedFabric &_fabric;
    std::uint64_t _chunk_bytes;
    /** Software issue path serializes on the host/runtime side. */
    Tick _api_busy_until = 0;
    icn::MessagePool _messages;

    common::Scalar _copies;
    common::Scalar _bytes;
};

} // namespace fp::gpu

#endif // FP_GPU_DMA_ENGINE_HH
