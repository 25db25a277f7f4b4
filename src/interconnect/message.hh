/**
 * @file
 * Wire messages: what actually traverses a simulated interconnect link.
 *
 * Every transfer paradigm reduces to a stream of WireMessages with an
 * explicit payload/overhead byte split, so the traffic breakdown of the
 * paper's Figure 10 can be recovered from link statistics alone.
 */

#ifndef FP_ICN_MESSAGE_HH
#define FP_ICN_MESSAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "interconnect/store.hh"
#include "obs/latency.hh"

namespace fp::icn {

/** Transfer paradigm that produced a message. */
enum class MessageKind : std::uint8_t {
    /** One raw peer-to-peer store per TLP (the P2P baseline). */
    raw_store,
    /** A FinePack outer transaction carrying packed sub-packets. */
    finepack_packet,
    /** A bulk-DMA chunk (one max-payload TLP worth of a memcpy). */
    dma_chunk,
    /** A cacheline flushed from a write-combining buffer (GPS-style). */
    write_combine_line,
    /** An atomic operation (never coalesced). */
    atomic_op,
};

const char *toString(MessageKind kind);

/** Number of MessageKind values (for per-kind accounting arrays). */
inline constexpr std::size_t message_kind_count = 5;

/**
 * One message on the wire. payload_bytes counts everything transferred as
 * TLP payload (including FinePack sub-headers and any padding);
 * header_bytes counts framing / TLP header / CRC / amortized DLLP
 * overhead. data_bytes counts the actual store data carried, so
 * (payload_bytes - data_bytes) is intra-payload overhead (sub-headers,
 * padding, unwritten write-combine line bytes).
 */
struct WireMessage
{
    MessageKind kind = MessageKind::raw_store;
    GpuId src = invalid_gpu;
    GpuId dst = invalid_gpu;

    /** Bytes of TLP payload on the wire. */
    std::uint64_t payload_bytes = 0;
    /** Bytes of link/transaction-protocol overhead. */
    std::uint64_t header_bytes = 0;
    /** Bytes of real store data inside the payload. */
    std::uint64_t data_bytes = 0;

    /** The individual stores delivered by this message (disaggregated). */
    std::vector<Store> stores;

    /** For dma_chunk messages: the copied address range. */
    AddrRange dma_range;

    /** Number of original program stores folded into this message. */
    std::uint64_t packed_store_count = 0;

    /** Lifecycle milestones for latency attribution (obs/latency.hh). */
    obs::MsgTimestamps timing;
    /**
     * Per-store issue stamps (latency attribution only; empty when no
     * collector is attached). Parallel to the original program stores,
     * not to `stores` (packetization reconstructs those).
     */
    std::vector<obs::StoreStamp> store_stamps;

    std::uint64_t wireBytes() const { return payload_bytes + header_bytes; }
};

using WireMessagePtr = std::shared_ptr<WireMessage>;

/** Sole allocation point for wire messages (the seam a pool replaces). */
inline WireMessagePtr
makeWireMessage()
{
    return std::make_shared<WireMessage>();
}

} // namespace fp::icn

#endif // FP_ICN_MESSAGE_HH
