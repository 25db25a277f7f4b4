/**
 * @file
 * The FinePack packetizer (paper Section IV-B).
 *
 * The packetizer converts a flushed remote-write-queue partition into one
 * FinePack outer transaction: every contiguous byte-enable run of every
 * entry becomes a sub-packet (sub-headers carry no byte enables, so
 * non-contiguous bytes must split). The receiver's de-packetizer step,
 * FinePackTransaction::unpack(), re-expands the transaction into plain
 * stores. toMessage() runs it only when the stores carry payload bytes
 * (a functional run); a timing message carries the sub-packet count
 * alone, and the protocol oracle de-packetizes the transaction its
 * packetEmitted() hook is handed.
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
        : _src(src), _config(config), _txn(src, invalid_gpu, 0, config)
    {}

    /**
     * Packetize one flushed partition. The remote write queue's payload
     * accounting guarantees the result fits a single outer transaction.
     */
    FinePackTransaction packetize(const FlushedPartition &flushed);

    /**
     * Packetize into the packetizer's reused transaction and wrap it
     * into a wire message from its message pool, using @p protocol for
     * the outer TLP overhead accounting. Allocates nothing once the
     * pool and the transaction have grown to the run's needs, unless
     * the stores carry payload bytes.
     */
    icn::WireMessagePtr
    toMessage(const FlushedPartition &flushed,
              const icn::PcieProtocol &protocol);

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
    /** Fill the empty @p txn with the sub-packets of @p flushed. */
    void fill(const FlushedPartition &flushed, FinePackTransaction &txn);

    GpuId _src;
    FinePackConfig _config;
    std::vector<PacketizerObserver *> _observers;
    /** toMessage()'s transaction, reset per flush. */
    FinePackTransaction _txn;
    icn::MessagePool _messages;
    std::uint64_t _packets = 0;
    std::uint64_t _sub_packets = 0;
    std::uint64_t _stores_packed = 0;
    std::uint64_t _wc_alone_bytes = 0;
    std::uint64_t _wc_line_bytes = 0;
    std::uint64_t _uncompressed_bytes = 0;
};

} // namespace fp::finepack

#endif // FP_FINEPACK_PACKETIZER_HH
