#include "finepack/packetizer.hh"

#include "check/invariant.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"

namespace fp::finepack {

FinePackTransaction
Packetizer::packetize(const FlushedPartition &flushed)
{
    FinePackTransaction txn(_src, flushed.dst, flushed.window_base,
                            _config);
    fill(flushed, txn);
    return txn;
}

void
Packetizer::fill(const FlushedPartition &flushed, FinePackTransaction &txn)
{
    fp_assert(!flushed.empty(), "packetizing an empty flush");

    txn.reserve(flushed.entries.size());
    for (const QueueEntry &entry : flushed.entries) {
        entry.forEachRun([&](std::uint32_t start, std::uint32_t len) {
            std::vector<std::uint8_t> data;
            if (entry.hasData()) {
                data.assign(entry.data.begin() + start,
                            entry.data.begin() + start + len);
            }
            txn.append(entry.line_addr + start, len, std::move(data));
        });
    }

    // Byte conservation across packetization: every enabled byte of
    // every entry appears in exactly one sub-packet, each entry yields
    // at least one sub-packet, and the whole result respects the outer
    // payload budget the queue accounted for.
    auto entry_bytes = [&flushed]() {
        std::uint64_t total = 0;
        for (const QueueEntry &entry : flushed.entries)
            total += entry.validBytes();
        return total;
    };
    FP_INVARIANT(txn.dataBytes() == entry_bytes(),
                 "packetizer-byte-conservation",
                 "transaction carries ", txn.dataBytes(),
                 " data bytes but the flush held ", entry_bytes());
    FP_INVARIANT(txn.size() >= flushed.entries.size(),
                 "packetizer-run-splitting",
                 "fewer sub-packets (", txn.size(), ") than entries (",
                 flushed.entries.size(), ")");
    FP_INVARIANT(txn.rawPayloadBytes() <= _config.max_payload,
                 "packetizer-payload-budget",
                 "payload ", txn.rawPayloadBytes(),
                 " exceeds the outer budget ", _config.max_payload);

    ++_packets;
    _sub_packets += txn.size();
    _stores_packed += flushed.packed_store_count;
}

icn::WireMessagePtr
Packetizer::toMessage(const FlushedPartition &flushed,
                      const icn::PcieProtocol &protocol)
{
    FinePackTransaction &txn = _txn;
    txn.reset(flushed.dst, flushed.window_base);
    fill(flushed, txn);

    // What the same runs would cost as standalone TLPs (the "write
    // combining alone" comparison of Section VI-A), plus the coarser
    // per-line interpretation (one TLP per line, carrying its written
    // span).
    for (const SubPacket &sub : txn.subPackets())
        _wc_alone_bytes += protocol.storeWireBytes(
            txn.baseAddr() + sub.offset, sub.length);
    for (const QueueEntry &entry : flushed.entries) {
        auto [first, last] = entry.writtenSpan();
        _wc_line_bytes += protocol.storeWireBytes(
            entry.line_addr + first, last - first);
    }
    // Aggregation without address compression: same outer TLP, but
    // each run carries a full 64-bit address + 16-bit length (10 B)
    // instead of the compressed sub-header.
    constexpr std::uint64_t full_subheader = 10;
    _uncompressed_bytes +=
        protocol.tlpOverhead() +
        common::alignUp(txn.dataBytes() + txn.size() * full_subheader,
                        4);

    auto msg = _messages.make();
    msg->kind = icn::MessageKind::finepack_packet;
    msg->src = _src;
    msg->dst = flushed.dst;
    msg->payload_bytes = txn.wirePayloadBytes();
    msg->header_bytes = protocol.tlpOverhead();
    msg->data_bytes = txn.dataBytes();
    msg->delivered_stores = txn.size();
    if (txn.carriesData()) {
        for (const icn::Store &store : txn.unpack())
            msg->addStore(store);
    }
    msg->packed_store_count = flushed.packed_store_count;
    msg->timing.flush_reason = static_cast<std::uint8_t>(flushed.reason);
    msg->store_stamps = flushed.store_stamps;

    fp_assert(msg->payload_bytes <= protocol.maxPayload(),
              "FinePack payload exceeds the PCIe max payload");
    for (PacketizerObserver *observer : _observers)
        observer->packetEmitted(txn, *msg);
    return msg;
}

} // namespace fp::finepack
