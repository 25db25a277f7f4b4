/**
 * @file
 * The store record: the unit of fine-grained peer-to-peer communication.
 *
 * A Store represents one memory-write access as it egresses the source
 * GPU's L1 cache (after intra-warp coalescing), destined for a peer GPU's
 * memory. Addresses are device-local physical addresses on the destination
 * GPU; the destination id is carried separately.
 */

#ifndef FP_ICN_STORE_HH
#define FP_ICN_STORE_HH

#include <cstdint>
#include <type_traits>

#include "common/types.hh"

namespace fp::icn {

/**
 * A single remote store as seen at the GPU's network egress port: a
 * 32-byte plain record, so a trace is an array of them that copies and
 * serializes as raw bytes (trace/trace.hh).
 */
struct Store
{
    /** Device-local byte address on the destination GPU. */
    Addr addr = 0;
    /** Number of bytes written (1..128 after L1 coalescing). */
    std::uint32_t size = 0;
    /** Issuing GPU. */
    GpuId src = invalid_gpu;
    /** GPU whose memory is written. */
    GpuId dst = invalid_gpu;
    /** Remote atomics bypass coalescing and flush aliasing queue entries. */
    bool is_atomic = false;
    /** Always zero: they make the record's padding explicit. */
    std::uint8_t reserved[3] = {};
    /**
     * The @ref size payload bytes, or null. Non-owning: timing runs
     * leave it null; functional tests point it into a buffer they
     * keep alive, so coalescing and packetization round trips can be
     * checked for value preservation. A split store points into its
     * parent's bytes, and a wire message owns the bytes its stores
     * point into (icn::WireMessage::addStore).
     */
    const std::uint8_t *data = nullptr;

    Store() = default;

    Store(Addr a, std::uint32_t s, GpuId src_gpu, GpuId dst_gpu)
        : addr(a), size(s), src(src_gpu), dst(dst_gpu)
    {}

    /** Inclusive first byte / exclusive last byte convenience. */
    Addr begin() const { return addr; }
    Addr end() const { return addr + size; }

    bool
    overlaps(const Store &other) const
    {
        return begin() < other.end() && other.begin() < end();
    }
};

static_assert(sizeof(Store) == 32, "a store record is 32 bytes");
static_assert(std::is_trivially_copyable_v<Store>,
              "a store record copies as raw bytes");
static_assert(std::has_unique_object_representations_v<Store>,
              "a store record has no implicit padding");

/** A contiguous address range, used for DMA copies and consumption sets. */
struct AddrRange
{
    Addr base = 0;
    std::uint64_t size = 0;

    Addr begin() const { return base; }
    Addr end() const { return base + size; }

    bool contains(Addr a) const { return a >= base && a < base + size; }

    bool
    overlaps(const AddrRange &other) const
    {
        return begin() < other.end() && other.begin() < end();
    }
};

} // namespace fp::icn

#endif // FP_ICN_STORE_HH
