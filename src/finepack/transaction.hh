/**
 * @file
 * The FinePack transaction format (paper Section IV-A, Figure 6, Table I).
 *
 * An outer PCIe memory-write TLP whose payload is a concatenation of
 * sub-packets. The outer header's address field carries the base address;
 * each sub-packet carries a sub-header with a 10-bit length and an
 * N-bit address offset (1-byte aligned), followed by its data.
 */

#ifndef FP_FINEPACK_TRANSACTION_HH
#define FP_FINEPACK_TRANSACTION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "finepack/config.hh"
#include "interconnect/store.hh"

namespace fp::finepack {

/** One packed store inside a FinePack transaction. */
struct SubPacket
{
    /** Byte offset from the outer transaction's base address. */
    std::uint64_t offset = 0;
    /** Payload length in bytes (fits the 10-bit length field). */
    std::uint32_t length = 0;
    /** Optional data bytes (empty in timing-only simulation). */
    std::vector<std::uint8_t> data;
};

/** A complete FinePack outer transaction. */
class FinePackTransaction
{
  public:
    FinePackTransaction(GpuId src, GpuId dst, Addr base,
                        const FinePackConfig &config)
        : _src(src), _dst(dst), _base(base), _config(config)
    {}

    /**
     * Append a sub-packet for @p length bytes at absolute address
     * @p addr; panics if the offset or length exceed the sub-header
     * field widths or the payload budget (the remote write queue
     * guarantees they never do).
     */
    void append(Addr addr, std::uint32_t length,
                std::vector<std::uint8_t> data = {});

    /** Pre-size the sub-packet vector (>= one sub-packet per entry). */
    void reserve(std::size_t n) { _subs.reserve(n); }

    /**
     * Empty the transaction for reuse toward @p dst at base address
     * @p base, keeping the sub-packet vector's storage.
     */
    void reset(GpuId dst, Addr base);

    GpuId src() const { return _src; }
    GpuId dst() const { return _dst; }
    Addr baseAddr() const { return _base; }
    const std::vector<SubPacket> &subPackets() const
    { return _subs; }
    const FinePackConfig &config() const { return _config; }

    /** Payload bytes: sub-headers + data, before outer DW padding. */
    std::uint64_t rawPayloadBytes() const { return _payload; }

    /** Payload bytes on the wire (DW padded, per the outer Last BE). */
    std::uint64_t wirePayloadBytes() const;

    /** Store data bytes carried (excluding sub-headers). */
    std::uint64_t dataBytes() const { return _data_bytes; }

    /** Number of sub-packets. */
    std::size_t size() const { return _subs.size(); }
    bool empty() const { return _subs.empty(); }

    /** Does any sub-packet carry data bytes (a functional run)? */
    bool carriesData() const;

    /**
     * Disaggregate into plain stores (the de-packetizer operation):
     * each sub-packet becomes a store at base + offset whose payload
     * points into the sub-packet's bytes, so the stores are valid
     * while this transaction is unchanged.
     */
    std::vector<icn::Store> unpack() const;

    /** unpack() into @p stores, reusing the vector's storage. */
    void unpackInto(std::vector<icn::Store> &stores) const;

  private:
    GpuId _src;
    GpuId _dst;
    Addr _base;
    FinePackConfig _config;
    std::vector<SubPacket> _subs;
    std::uint64_t _payload = 0;
    std::uint64_t _data_bytes = 0;
};

} // namespace fp::finepack

#endif // FP_FINEPACK_TRANSACTION_HH
