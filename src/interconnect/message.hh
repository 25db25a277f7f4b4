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

    /**
     * Stores the receiver's de-packetizer delivers to memory: one per
     * sub-packet of a FinePack packet, per store of a raw-P2P batch or
     * atomic, per byte-enable run of a write-combined line; 0 for a
     * DMA chunk.
     */
    std::uint64_t delivered_stores = 0;

    /**
     * The delivered stores themselves, kept only when they carry
     * payload bytes (functional runs, where a FunctionalMemory at
     * ingress applies them). Timing runs leave it empty.
     */
    std::vector<Store> stores;
    /** The payload bytes of `stores`, which point into it. */
    std::vector<std::uint8_t> store_bytes;

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

    /**
     * Append @p store to `stores`, copying its payload (if any) into
     * `store_bytes`, so the message owns every byte it delivers.
     */
    void addStore(const Store &store);
};

using WireMessagePtr = std::shared_ptr<WireMessage>;

/**
 * Recycles the storage of the wire messages one message source of a
 * run makes (a packetizer, an egress port, a write-combining buffer, a
 * DMA engine). Blocks come from slabs that double in size up to a cap,
 * so a run makes a few allocations per thousand messages it has in
 * flight at its peak instead of one per message. Each message is a
 * fresh, value-initialized WireMessage; only its block is reused. The
 * free list is shared with every message the pool made, so a message
 * that outlives its source (an interrupted run tears the components
 * down with deliveries still queued) returns its block safely, and
 * the slabs are freed with the last of them.
 */
class MessagePool
{
  public:
    MessagePool();

    /** A new message whose block returns here when its last handle drops. */
    WireMessagePtr make();

  private:
    /** Free blocks, and the slabs they were carved from. */
    class FreeList;
    /** The std::allocate_shared allocator that draws from a FreeList. */
    template <typename T>
    struct Allocator;

    std::shared_ptr<FreeList> _free;
};

} // namespace fp::icn

#endif // FP_ICN_MESSAGE_HH
