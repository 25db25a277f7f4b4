/**
 * @file
 * The FinePack packetizer and de-packetizer (paper Section IV-B).
 *
 * The packetizer converts a flushed remote-write-queue partition into one
 * FinePack outer transaction: every contiguous byte-enable run of every
 * entry becomes a sub-packet (sub-headers carry no byte enables, so
 * non-contiguous bytes must split). The de-packetizer re-expands a
 * transaction into plain stores for the destination memory system.
 */

#ifndef FP_FINEPACK_PACKETIZER_HH
#define FP_FINEPACK_PACKETIZER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "finepack/remote_write_queue.hh"
#include "finepack/transaction.hh"
#include "interconnect/message.hh"
#include "interconnect/protocol.hh"

namespace fp::finepack {

/**
 * Observer of packetizer output, fired once per emitted outer
 * transaction: the egress port's event tracer records a packet
 * instant (payload efficiency = data_bytes / wire payload bytes) and
 * the protocol oracle re-verifies the packet byte for byte.
 */
class PacketizerObserver
{
  public:
    virtual ~PacketizerObserver() = default;

    /** @p txn was packetized and wrapped into wire message @p msg. */
    virtual void packetEmitted(const FinePackTransaction &txn,
                               const icn::WireMessage &msg) = 0;
};

/** Converts flushed partitions into FinePack transactions / messages. */
class Packetizer
{
  public:
    Packetizer(GpuId src, const FinePackConfig &config)
        : _src(src), _config(config)
    {}

    /**
     * Packetize one flushed partition. The remote write queue's payload
     * accounting guarantees the result fits a single outer transaction.
     */
    FinePackTransaction
    packetize(const FlushedPartition &flushed) const;

    /**
     * Packetize and wrap into a wire message using @p protocol for the
     * outer TLP overhead accounting.
     */
    icn::WireMessagePtr
    toMessage(const FlushedPartition &flushed,
              const icn::PcieProtocol &protocol) const;

    GpuId src() const { return _src; }
    const FinePackConfig &config() const { return _config; }

    /**
     * Attach an output observer (the caller keeps ownership; at most
     * once per observer). Observers see every packet in attach order.
     */
    void addObserver(PacketizerObserver *observer)
    { _observers.push_back(observer); }

    /** Detach a previously attached observer (no-op when absent). */
    void removeObserver(PacketizerObserver *observer)
    { std::erase(_observers, observer); }

    /** Lifetime statistics (Figure 11 inputs). */
    std::uint64_t packetsEmitted() const { return _packets; }
    std::uint64_t subPacketsEmitted() const { return _sub_packets; }
    std::uint64_t storesPacked() const { return _stores_packed; }

    /**
     * Wire bytes the same coalesced runs would have cost as individual
     * TLPs - i.e. "write combining alone" at run granularity, without
     * FinePack's outer transaction sharing. Accumulated by toMessage().
     */
    std::uint64_t wcAloneWireBytes() const { return _wc_alone_bytes; }

    /**
     * Wire bytes under the coarser per-line interpretation of "write
     * combining alone": one TLP per buffered cache line, carrying the
     * line's written span (first..last enabled byte).
     */
    std::uint64_t wcLineWireBytes() const { return _wc_line_bytes; }

    /**
     * Wire bytes for the same aggregated transactions but with
     * *uncompressed* sub-headers (a full 64-bit address + 16-bit
     * length per run instead of the base+offset form) - i.e. write
     * combining and aggregation alone, isolating the contribution of
     * FinePack's address compression (the Section VI-A 24% figure).
     */
    std::uint64_t uncompressedWireBytes() const
    { return _uncompressed_bytes; }

    /** Average program stores folded into one packet (Figure 11). */
    double
    avgStoresPerPacket() const
    {
        return _packets ? static_cast<double>(_stores_packed) /
                              static_cast<double>(_packets)
                        : 0.0;
    }

  private:
    GpuId _src;
    FinePackConfig _config;
    std::vector<PacketizerObserver *> _observers;
    mutable std::uint64_t _packets = 0;
    mutable std::uint64_t _sub_packets = 0;
    mutable std::uint64_t _stores_packed = 0;
    mutable std::uint64_t _wc_alone_bytes = 0;
    mutable std::uint64_t _wc_line_bytes = 0;
    mutable std::uint64_t _uncompressed_bytes = 0;
};

/**
 * The destination-side de-packetizer. Purely functional unpacking plus a
 * model of the 64 x 128 B ingress buffer: the buffer drains into the L2
 * at a fixed rate, so a full buffer back-pressures (reported as a stall
 * tick count the ingress port can apply).
 */
class DePacketizer
{
  public:
    explicit DePacketizer(const FinePackConfig &config) : _config(config) {}

    /** Disaggregate a transaction into individual stores. */
    std::vector<icn::Store>
    unpack(const FinePackTransaction &txn) const;

    /** Buffer capacity in bytes (64 entries x 128 B). */
    std::uint64_t
    bufferBytes() const
    {
        return std::uint64_t{64} * _config.entry_bytes;
    }

    std::uint64_t storesUnpacked() const { return _stores_unpacked; }

  private:
    FinePackConfig _config;
    mutable std::uint64_t _stores_unpacked = 0;
};

} // namespace fp::finepack

#endif // FP_FINEPACK_PACKETIZER_HH
