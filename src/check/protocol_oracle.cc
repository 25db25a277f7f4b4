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

/**
 * Does @p line hold every byte in @p bytes and, where it knows a value
 * and @p data is given, the value data[i - first] of byte i? @p valued
 * gets the bytes whose values were compared.
 */
bool
holds(const ShadowMemory::Line *line, const LineMask &bytes,
      const std::uint8_t *data, std::uint32_t first, LineMask &valued)
{
    if (!line || !none(without(bytes, line->present)))
        return false;
    valued = data ? intersect(bytes, line->has_value) : LineMask{};
    bool same = true;
    forEachByte(valued, [&](std::uint32_t i) {
        same = same && data[i - first] == line->value[i];
    });
    return same;
}

} // namespace

ProtocolOracle::ProtocolOracle(GpuId src,
                               const finepack::FinePackConfig &config)
    : _src(src), _config(config)
{
    _config.validate();
}

void
ProtocolOracle::storeBuffered(GpuId dst, const icn::Store &store)
{
    fp_assert(store.size > 0, "oracle observed a zero-size store");
    ShadowMemory &pending = destination(dst).pending;
    _recorder.write(&pending, "oracle.shadow");
    pending.write(store.addr, store.size, store.data);
    ++_stores_recorded;
}

void
ProtocolOracle::flushBytes(const finepack::QueueEntry &entry, GpuId dst,
                           finepack::FlushReason reason,
                           ShadowMemory &pending, ShadowMemory &image)
{
    for (std::uint32_t i = 0; i < _config.entry_bytes; ++i) {
        if (!entry.enabled(i))
            continue;
        Addr addr = entry.line_addr + i;
        ShadowByte ref = pending.get(addr);
        if (!ref.present) {
            fp_panic("oracle: flush (", toString(reason), ") to GPU ", dst,
                     " carries byte ", addr, " that was never buffered");
        }
        // Last-writer-wins: the entry's merged value must equal the
        // value of the last store that wrote this byte. Data-less
        // (timing-only) stores invalidate the reference value, so only
        // compare when both sides know it.
        if (ref.has_value && entry.hasData() && entry.data[i] != ref.value) {
            fp_panic("oracle: flush to GPU ", dst, " byte ", addr,
                     " has value ", static_cast<unsigned>(entry.data[i]),
                     " but the last writer stored ",
                     static_cast<unsigned>(ref.value));
        }
        if (ref.has_value && entry.hasData())
            ++_value_bytes_verified;
        ++_bytes_verified;
        pending.erase(addr);
        image.write(addr, 1,
                    entry.hasData() && ref.has_value ? &entry.data[i]
                                                     : nullptr);
    }
}

void
ProtocolOracle::windowFlushed(const finepack::FlushedPartition &flushed,
                              finepack::FlushReason reason)
{
    Destination &dest = destination(flushed.dst);
    ShadowMemory &pending = dest.pending;
    _recorder.write(&pending, "oracle.shadow");
    _recorder.write(&_destinations, "oracle.outstanding");

    // The image fills the ring slot after the outstanding ones and
    // joins them once every entry has checked out.
    if (dest.outstanding == dest.images.size()) {
        std::rotate(dest.images.begin(),
                    dest.images.begin() +
                        static_cast<std::ptrdiff_t>(dest.head),
                    dest.images.end());
        dest.head = 0;
        dest.images.emplace_back();
    }
    ExpectedImage &expected =
        dest.images[(dest.head + dest.outstanding) % dest.images.size()];
    expected.window_base = flushed.window_base;
    expected.image.clear();
    expected.packed_store_count = flushed.packed_store_count;

    for (const finepack::QueueEntry &entry : flushed.entries) {
        const LineMask &bytes = entry.enables;
        if (none(bytes))
            continue;
        // One lookup per entry: every enabled byte must be buffered
        // (tags are line-aligned, so a misaligned entry finds no line),
        // and where both sides know the value it must match. Anything
        // else takes the byte walk, which reports the first failure.
        const ShadowMemory::Line *ref = pending.find(entry.line_addr);
        LineMask valued{};
        if (!holds(ref, bytes, entry.hasData() ? entry.data.data() : nullptr,
                   0, valued)) {
            flushBytes(entry, flushed.dst, reason, pending, expected.image);
            continue;
        }
        _bytes_verified += popcount(bytes);
        _value_bytes_verified += popcount(valued);
        pending.erase(*ref, bytes);
        expected.image.writeLine(entry.line_addr, bytes, valued,
                                 entry.data.data());
    }

    ++dest.outstanding;
}

void
ProtocolOracle::retireBytes(const icn::Store &store, ShadowMemory &image)
{
    for (std::uint32_t i = 0; i < store.size; ++i) {
        Addr addr = store.addr + i;
        ShadowByte ref = image.get(addr);
        if (!ref.present) {
            fp_panic("oracle: de-packetized byte ", addr,
                     " was not in the flushed image (duplicate "
                     "coverage or offset-encoding bug)");
        }
        if (ref.has_value && store.data && store.data[i] != ref.value) {
            fp_panic("oracle: de-packetized byte ", addr, " has value ",
                     static_cast<unsigned>(store.data[i]),
                     " but the source stored ",
                     static_cast<unsigned>(ref.value));
        }
        if (ref.has_value && store.data)
            ++_value_bytes_verified;
        ++_bytes_verified;
        image.erase(addr);
    }
}

void
ProtocolOracle::verifyMessage(const icn::WireMessage &msg,
                              const std::vector<icn::Store> &stores)
{
    fp_assert(msg.kind == icn::MessageKind::finepack_packet,
              "oracle can only verify finepack_packet messages");
    fp_assert(msg.src == _src, "oracle attached to the wrong GPU");
    _recorder.write(&_destinations, "oracle.outstanding");

    if (msg.dst >= _destinations.size() ||
        _destinations[msg.dst].outstanding == 0) {
        fp_panic("oracle: GPU ", _src, " emitted a FinePack packet to ",
                 msg.dst, " with no recorded window flush");
    }
    Destination &dest = _destinations[msg.dst];
    const ExpectedImage &expected = dest.images[dest.head];
    ShadowMemory &image = dest.images[dest.head].image;
    dest.head = (dest.head + 1) % dest.images.size();
    --dest.outstanding;

    const Addr window_lo = expected.window_base;
    const Addr window_hi = window_lo + _config.addressableRange();
    std::uint64_t data_bytes = 0;

    // Fold the transaction into the run digest in emission order:
    // destination, window geometry, then each sub-packet's placement
    // and data. Schedule-independent runs fold identical sequences.
    _digest.updateU64(msg.dst);
    _digest.updateU64(expected.window_base);
    _digest.updateU64(stores.size());

    for (const icn::Store &store : stores) {
        _digest.updateU64(store.addr);
        _digest.updateU64(store.size);
        if (store.data)
            _digest.update(store.data, store.size);
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

        // One lookup per sub-packet inside a line; a sub-packet that
        // crosses lines or fails a check takes the byte walk.
        const Addr line_addr = ShadowMemory::lineOf(store.addr);
        const auto offset = static_cast<std::uint32_t>(store.addr - line_addr);
        if (offset + store.size > ShadowMemory::line_bytes) {
            retireBytes(store, image);
            continue;
        }
        const ShadowMemory::Line *ref = image.find(line_addr);
        const LineMask bytes = lineMask(offset, store.size);
        LineMask valued{};
        if (!holds(ref, bytes, store.data, offset, valued)) {
            retireBytes(store, image);
            continue;
        }
        _bytes_verified += store.size;
        _value_bytes_verified += popcount(valued);
        image.erase(*ref, bytes);
    }

    if (!image.empty()) {
        fp_panic("oracle: packetization lost ", image.population(),
                 " flushed byte(s) (e.g. ", residentSummary(image), ")");
    }

    // Payload accounting: one sub-header per sub-packet plus the data,
    // DW-padded on the wire, and within the outer payload budget.
    std::uint64_t raw_payload =
        data_bytes + stores.size() * _config.subheader_bytes;
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
    // Destinations are visited in GPU order, so a failure always names
    // the lowest offending GPU.
    for (GpuId dst = 0; dst < _destinations.size(); ++dst) {
        const ShadowMemory &pending = _destinations[dst].pending;
        if (!pending.empty()) {
            fp_panic("oracle: GPU ", _src, " left ", pending.population(),
                     " byte(s) for GPU ", dst,
                     " buffered past the final release (e.g. ",
                     residentSummary(pending), ")");
        }
    }
    for (GpuId dst = 0; dst < _destinations.size(); ++dst) {
        const std::size_t flushes = _destinations[dst].outstanding;
        if (flushes != 0) {
            fp_panic("oracle: GPU ", _src, " flushed ", flushes,
                     " window(s) for GPU ", dst, " that never packetized");
        }
    }
}

} // namespace fp::check
