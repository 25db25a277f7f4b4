/**
 * @file
 * Link-protocol byte-accounting models for PCIe generations 3-6 and
 * NVLink, used both for goodput analysis (paper Figure 2) and by the
 * timing simulation to convert payloads into wire bytes.
 *
 * PCIe accounting per memory-write TLP (Gen3+ 128b/130b framing):
 *   4 B STP token + 2 B sequence + 16 B 4DW header (64-bit address)
 *   + payload (DW padded) + 4 B LCRC, plus amortized DLLP (Ack/FC)
 *   overhead. All constants are configurable.
 *
 * NVLink accounting (per the paper's Figure 3 and footnote 1): 16 B flits,
 *   one header flit per packet, an optional byte-enable flit depending on
 *   payload size and alignment, data padded to whole flits. The BE-flit
 *   condition is what produces the goodput "spikes" the paper notes.
 */

#ifndef FP_ICN_PROTOCOL_HH
#define FP_ICN_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace fp::icn {

/** Interconnect generations evaluated in the paper (Figure 13). */
enum class PcieGen : std::uint8_t { gen3, gen4, gen5, gen6 };

const char *toString(PcieGen gen);

/** Effective per-direction x16 data bandwidth in bytes per second. */
std::uint64_t pcieBandwidthBytesPerSec(PcieGen gen);

/**
 * Byte-level accounting for one PCIe link direction.
 *
 * All wire-byte computations are pure functions of the transfer size and
 * address alignment; the timing model multiplies by link bandwidth.
 */
class PcieProtocol
{
  public:
    struct Params
    {
        /** STP framing + sequence number bytes per TLP. */
        std::uint32_t framing_bytes = 6;
        /** 4DW TLP header (64-bit addressing). */
        std::uint32_t header_bytes = 16;
        /** Link CRC bytes per TLP. */
        std::uint32_t lcrc_bytes = 4;
        /** Amortized DLLP (Ack / flow-control update) bytes per TLP. */
        std::uint32_t dllp_bytes_per_tlp = 8;
        /** Maximum TLP data payload (PCIe max_payload_size). */
        std::uint32_t max_payload = 4096;
        /** Payload alignment on the wire (PCIe payloads are DW units). */
        std::uint32_t payload_align = 4;
    };

    explicit PcieProtocol(PcieGen gen);
    PcieProtocol(PcieGen gen, Params params);

    PcieGen generation() const { return _gen; }
    const Params &params() const { return _params; }

    /** Fixed per-TLP overhead (framing + header + LCRC + DLLP share). */
    std::uint64_t tlpOverhead() const;

    /** Maximum TLP payload in bytes. */
    std::uint64_t maxPayload() const { return _params.max_payload; }

    /**
     * Bytes of payload occupied on the wire by a write of @p size bytes
     * at @p addr: the DW-aligned span covering the access (sub-DW edges
     * are carried as whole DWs with first/last byte enables).
     */
    std::uint64_t payloadOnWire(Addr addr, std::uint64_t size) const;

    /** Total wire bytes for one ordinary memory-write TLP. */
    std::uint64_t storeWireBytes(Addr addr, std::uint64_t size) const;

    /**
     * Goodput of @p size byte aligned writes: useful bytes divided by
     * total wire bytes, splitting transfers larger than max payload into
     * multiple TLPs. This regenerates the PCIe series of Figure 2.
     */
    double goodput(std::uint64_t size) const;

    /** Link bandwidth in bytes per simulation tick (tick = 1 ps). */
    double bytesPerTick() const;

    /** Link bandwidth in bytes per second. */
    std::uint64_t bytesPerSec() const { return _bandwidth; }

  private:
    PcieGen _gen;
    Params _params;
    std::uint64_t _bandwidth;
};

/**
 * Byte-level accounting for one NVLink direction (goodput analysis only;
 * the paper evaluates timing on PCIe).
 */
class NvlinkProtocol
{
  public:
    struct Params
    {
        /** Flit size in bytes. */
        std::uint32_t flit_bytes = 16;
        /** Header flits per packet. */
        std::uint32_t header_flits = 1;
        /** Maximum data payload per packet. */
        std::uint32_t max_payload = 256;
        /** Per-direction bandwidth (bytes/sec); NVLink3 x4 links. */
        std::uint64_t bandwidth = 100ull * 1000 * 1000 * 1000;
    };

    NvlinkProtocol();
    explicit NvlinkProtocol(Params params);

    const Params &params() const { return _params; }

    /**
     * True when a write of @p size at @p addr needs a dedicated
     * byte-enable flit: any partial-flit coverage requires one.
     */
    bool needsByteEnableFlit(Addr addr, std::uint64_t size) const;

    /** Total wire bytes for one write packet. */
    std::uint64_t storeWireBytes(Addr addr, std::uint64_t size) const;

    /** Goodput for aligned writes of @p size (Figure 2 NVLink series). */
    double goodput(std::uint64_t size) const;

  private:
    Params _params;
};

} // namespace fp::icn

#endif // FP_ICN_PROTOCOL_HH
