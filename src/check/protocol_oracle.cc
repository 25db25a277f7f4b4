#include "check/protocol_oracle.hh"

#include <algorithm>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace fp::check {

namespace {

/** Render a handful of resident addresses for a failure message. */
std::string
residentSummary(const ShadowMemory &shadow)
{
    std::string out;
    for (Addr addr : shadow.sampleResident(8)) {
        if (!out.empty())
            out += ", ";
        out += std::to_string(addr);
    }
    if (shadow.population() > 8)
        out += ", ...";
    return out;
}

} // namespace

ProtocolOracle::ProtocolOracle(GpuId src,
                               const finepack::FinePackConfig &config)
    : _src(src), _config(config)
{
    _config.validate();
}

ShadowMemory &
ProtocolOracle::pendingFor(GpuId dst)
{
    auto it = _pending.find(dst);
    if (it == _pending.end()) {
        it = _pending.emplace(dst, ShadowMemory(_config.entry_bytes))
                 .first;
    }
    return it->second;
}

void
ProtocolOracle::storeBuffered(GpuId dst, const icn::Store &store)
{
    fp_assert(store.size > 0, "oracle observed a zero-size store");
    fp_assert(store.data.empty() || store.data.size() == store.size,
              "oracle observed a store with inconsistent data size");
    _recorder.write(&pendingFor(dst), "oracle.shadow");
    pendingFor(dst).write(store.addr, store.size,
                          store.data.empty() ? nullptr
                                             : store.data.data());
    ++_stores_recorded;
}

void
ProtocolOracle::windowFlushed(const finepack::FlushedPartition &flushed,
                              finepack::FlushReason reason)
{
    ShadowMemory &pending = pendingFor(flushed.dst);
    _recorder.write(&pending, "oracle.shadow");
    _recorder.write(&_outstanding, "oracle.outstanding");

    ExpectedImage expected;
    expected.window_base = flushed.window_base;
    expected.image = ShadowMemory(_config.entry_bytes);
    expected.packed_store_count = flushed.packed_store_count;

    for (const finepack::QueueEntry &entry : flushed.entries) {
        for (std::uint32_t i = 0; i < _config.entry_bytes; ++i) {
            if (!entry.enabled(i))
                continue;
            Addr addr = entry.line_addr + i;
            ShadowByte ref = pending.get(addr);
            if (!ref.present) {
                fp_panic("oracle: flush (", toString(reason), ") to GPU ",
                         flushed.dst, " carries byte ", addr,
                         " that was never buffered");
            }
            // Last-writer-wins: the entry's merged value must equal the
            // value of the last store that wrote this byte. Data-less
            // (timing-only) stores invalidate the reference value, so
            // only compare when both sides know it.
            if (ref.has_value && entry.hasData() &&
                entry.data[i] != ref.value) {
                fp_panic("oracle: flush to GPU ", flushed.dst, " byte ",
                         addr, " has value ",
                         static_cast<unsigned>(entry.data[i]),
                         " but the last writer stored ",
                         static_cast<unsigned>(ref.value));
            }
            if (ref.has_value && entry.hasData())
                ++_value_bytes_verified;
            ++_bytes_verified;
            pending.erase(addr);
            expected.image.write(addr, 1,
                                 entry.hasData() && ref.has_value
                                     ? &entry.data[i]
                                     : nullptr);
        }
    }

    _outstanding[flushed.dst].push_back(std::move(expected));
}

void
ProtocolOracle::verifyMessage(const icn::WireMessage &msg)
{
    fp_assert(msg.kind == icn::MessageKind::finepack_packet,
              "oracle can only verify finepack_packet messages");
    fp_assert(msg.src == _src, "oracle attached to the wrong GPU");
    _recorder.write(&_outstanding, "oracle.outstanding");

    auto it = _outstanding.find(msg.dst);
    if (it == _outstanding.end() || it->second.empty()) {
        fp_panic("oracle: GPU ", _src, " emitted a FinePack packet to ",
                 msg.dst, " with no recorded window flush");
    }
    ExpectedImage expected = std::move(it->second.front());
    it->second.pop_front();

    const Addr window_lo = expected.window_base;
    const Addr window_hi = window_lo + _config.addressableRange();
    std::uint64_t data_bytes = 0;

    // Fold the transaction into the run digest in emission order:
    // destination, window geometry, then each sub-packet's placement
    // and data. Schedule-independent runs fold identical sequences.
    _digest.updateU64(msg.dst);
    _digest.updateU64(expected.window_base);
    _digest.updateU64(msg.stores.size());

    for (const icn::Store &store : msg.stores) {
        _digest.updateU64(store.addr);
        _digest.updateU64(store.size);
        if (!store.data.empty())
            _digest.update(store.data.data(), store.data.size());
        // Structural sub-packet checks: the offset must be encodable in
        // the sub-header's offset field and the length in its 10-bit
        // length field.
        if (store.size == 0 ||
            store.size >= (1u << _config.length_bits)) {
            fp_panic("oracle: sub-packet length ", store.size,
                     " does not fit the ", _config.length_bits,
                     "-bit length field");
        }
        if (store.begin() < window_lo || store.end() > window_hi) {
            fp_panic("oracle: sub-packet [", store.begin(), ", ",
                     store.end(), ") escapes the offset window [",
                     window_lo, ", ", window_hi, ")");
        }
        data_bytes += store.size;

        for (std::uint32_t i = 0; i < store.size; ++i) {
            Addr addr = store.addr + i;
            ShadowByte ref = expected.image.get(addr);
            if (!ref.present) {
                fp_panic("oracle: de-packetized byte ", addr,
                         " was not in the flushed image (duplicate "
                         "coverage or offset-encoding bug)");
            }
            if (ref.has_value && !store.data.empty() &&
                store.data[i] != ref.value) {
                fp_panic("oracle: de-packetized byte ", addr,
                         " has value ",
                         static_cast<unsigned>(store.data[i]),
                         " but the source stored ",
                         static_cast<unsigned>(ref.value));
            }
            if (ref.has_value && !store.data.empty())
                ++_value_bytes_verified;
            ++_bytes_verified;
            expected.image.erase(addr);
        }
    }

    if (!expected.image.empty()) {
        fp_panic("oracle: packetization lost ",
                 expected.image.population(),
                 " flushed byte(s) (e.g. ",
                 residentSummary(expected.image), ")");
    }

    // Payload accounting: one sub-header per sub-packet plus the data,
    // DW-padded on the wire, and within the outer payload budget.
    std::uint64_t raw_payload =
        data_bytes + msg.stores.size() * _config.subheader_bytes;
    if (msg.payload_bytes != common::alignUp(raw_payload, 4)) {
        fp_panic("oracle: wire payload ", msg.payload_bytes,
                 " bytes does not match the sub-header geometry (",
                 common::alignUp(raw_payload, 4), " expected)");
    }
    if (raw_payload > _config.max_payload) {
        fp_panic("oracle: transaction payload ", raw_payload,
                 " exceeds the ", _config.max_payload,
                 "-byte outer budget");
    }
    if (msg.data_bytes != data_bytes) {
        fp_panic("oracle: message reports ", msg.data_bytes,
                 " data bytes but carries ", data_bytes);
    }
    if (msg.packed_store_count != expected.packed_store_count) {
        fp_panic("oracle: message folds ", msg.packed_store_count,
                 " stores but the flush buffered ",
                 expected.packed_store_count);
    }

    ++_transactions_verified;
}

void
ProtocolOracle::verifyDrained() const
{
    // Visit destinations in sorted order so a failure always names the
    // lowest offending GPU, independent of hash-map layout.
    std::vector<GpuId> dsts;
    // fp-lint: allow(unordered-iteration) keys are sorted before use
    for (const auto &[dst, pending] : _pending)
        dsts.push_back(dst);
    std::sort(dsts.begin(), dsts.end());
    for (GpuId dst : dsts) {
        const ShadowMemory &pending = _pending.at(dst);
        if (!pending.empty()) {
            fp_panic("oracle: GPU ", _src, " left ", pending.population(),
                     " byte(s) for GPU ", dst,
                     " buffered past the final release (e.g. ",
                     residentSummary(pending), ")");
        }
    }
    dsts.clear();
    // fp-lint: allow(unordered-iteration) keys are sorted before use
    for (const auto &[dst, flushes] : _outstanding)
        dsts.push_back(dst);
    std::sort(dsts.begin(), dsts.end());
    for (GpuId dst : dsts) {
        const auto &flushes = _outstanding.at(dst);
        if (!flushes.empty()) {
            fp_panic("oracle: GPU ", _src, " flushed ", flushes.size(),
                     " window(s) for GPU ", dst,
                     " that never packetized");
        }
    }
}

} // namespace fp::check
