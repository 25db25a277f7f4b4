/**
 * @file
 * Reference model of the protocol oracle as it stood before it was
 * rebuilt around 128 B line records: a byte-granular shadow memory
 * that indexes an unordered_map of line blocks once per byte, a fresh
 * shadow built for every flushed window, GpuId-keyed maps of pending
 * shadows and outstanding flushes, and a de-packetized store vector
 * made for every packet. The logic, the counters, the panic messages
 * and the digest folds are unchanged apart from names; the access
 * recorder is left out, because the differential tests compare only
 * verdicts, counters and digests.
 */

#ifndef FP_TESTS_SUPPORT_REFERENCE_ORACLE_HH
#define FP_TESTS_SUPPORT_REFERENCE_ORACLE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/digest.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "finepack/config.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "interconnect/message.hh"
#include "interconnect/store.hh"

namespace fp::testing {

struct ReferenceShadowByte
{
    bool present = false;
    bool has_value = false;
    std::uint8_t value = 0;
};

/** A sparse, byte-granular last-writer-wins memory image. */
class ReferenceShadowMemory
{
  public:
    explicit ReferenceShadowMemory(std::uint32_t line_bytes = 128)
        : _line_bytes(line_bytes)
    {
        fp_assert(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
                  "shadow line size must be a power of two: ", line_bytes);
    }

    void
    write(Addr addr, std::uint32_t size, const std::uint8_t *data)
    {
        for (std::uint32_t i = 0; i < size; ++i) {
            Addr byte_addr = addr + i;
            Line &line = _lines[lineOf(byte_addr)];
            if (line.bytes.empty())
                line.bytes.resize(_line_bytes);

            ReferenceShadowByte &byte =
                line.bytes[static_cast<std::size_t>(byte_addr -
                                                    lineOf(byte_addr))];
            if (!byte.present) {
                byte.present = true;
                ++line.live;
                ++_population;
            }
            byte.has_value = data != nullptr;
            byte.value = data ? data[i] : 0;
        }
    }

    ReferenceShadowByte
    get(Addr addr) const
    {
        auto it = _lines.find(lineOf(addr));
        if (it == _lines.end())
            return {};
        return it->second.bytes[static_cast<std::size_t>(addr - it->first)];
    }

    bool
    erase(Addr addr)
    {
        auto it = _lines.find(lineOf(addr));
        if (it == _lines.end())
            return false;
        ReferenceShadowByte &byte =
            it->second.bytes[static_cast<std::size_t>(addr - it->first)];
        if (!byte.present)
            return false;
        byte = ReferenceShadowByte{};
        --_population;
        if (--it->second.live == 0)
            _lines.erase(it);
        return true;
    }

    std::uint64_t population() const { return _population; }
    bool empty() const { return _population == 0; }

    std::vector<Addr>
    sampleResident(std::size_t max) const
    {
        std::vector<Addr> line_addrs;
        line_addrs.reserve(_lines.size());
        // fp-lint: allow(unordered-iteration) keys are sorted before use
        for (const auto &[line_addr, line] : _lines)
            line_addrs.push_back(line_addr);
        std::sort(line_addrs.begin(), line_addrs.end());

        std::vector<Addr> result;
        for (Addr line_addr : line_addrs) {
            const Line &line = _lines.at(line_addr);
            for (std::uint32_t i = 0; i < _line_bytes; ++i) {
                if (!line.bytes[i].present)
                    continue;
                result.push_back(line_addr + i);
                if (result.size() >= max)
                    return result;
            }
        }
        return result;
    }

  private:
    struct Line
    {
        std::vector<ReferenceShadowByte> bytes;
        std::uint32_t live = 0;
    };

    Addr lineOf(Addr addr) const { return addr & ~Addr{_line_bytes - 1}; }

    std::uint32_t _line_bytes;
    std::unordered_map<Addr, Line> _lines;
    std::uint64_t _population = 0;
};

/** Byte-exact reference model for one source GPU's FinePack egress. */
class ReferenceProtocolOracle : public finepack::RwqObserver,
                                public finepack::PacketizerObserver
{
  public:
    ReferenceProtocolOracle(GpuId src,
                            const finepack::FinePackConfig &config)
        : _src(src), _config(config)
    {
        _config.validate();
    }

    void
    storeBuffered(GpuId dst, const icn::Store &store) override
    {
        fp_assert(store.size > 0, "oracle observed a zero-size store");
        pendingFor(dst).write(store.addr, store.size, store.data);
        ++_stores_recorded;
    }

    void
    windowFlushed(const finepack::FlushedPartition &flushed,
                  finepack::FlushReason reason) override
    {
        ReferenceShadowMemory &pending = pendingFor(flushed.dst);

        ExpectedImage expected;
        expected.window_base = flushed.window_base;
        expected.image = ReferenceShadowMemory(_config.entry_bytes);
        expected.packed_store_count = flushed.packed_store_count;

        for (const finepack::QueueEntry &entry : flushed.entries) {
            for (std::uint32_t i = 0; i < _config.entry_bytes; ++i) {
                if (!entry.enabled(i))
                    continue;
                Addr addr = entry.line_addr + i;
                ReferenceShadowByte ref = pending.get(addr);
                if (!ref.present) {
                    fp_panic("oracle: flush (", toString(reason),
                             ") to GPU ", flushed.dst, " carries byte ",
                             addr, " that was never buffered");
                }
                if (ref.has_value && entry.hasData() &&
                    entry.data[i] != ref.value) {
                    fp_panic("oracle: flush to GPU ", flushed.dst,
                             " byte ", addr, " has value ",
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
    packetEmitted(const finepack::FinePackTransaction &txn,
                  const icn::WireMessage &msg) override
    {
        verifyMessage(msg, txn.unpack());
    }

    void
    verifyMessage(const icn::WireMessage &msg,
                  const std::vector<icn::Store> &stores)
    {
        fp_assert(msg.kind == icn::MessageKind::finepack_packet,
                  "oracle can only verify finepack_packet messages");
        fp_assert(msg.src == _src, "oracle attached to the wrong GPU");

        auto it = _outstanding.find(msg.dst);
        if (it == _outstanding.end() || it->second.empty()) {
            fp_panic("oracle: GPU ", _src,
                     " emitted a FinePack packet to ", msg.dst,
                     " with no recorded window flush");
        }
        ExpectedImage expected = std::move(it->second.front());
        it->second.pop_front();

        const Addr window_lo = expected.window_base;
        const Addr window_hi = window_lo + _config.addressableRange();
        std::uint64_t data_bytes = 0;

        _digest.updateU64(msg.dst);
        _digest.updateU64(expected.window_base);
        _digest.updateU64(stores.size());

        for (const icn::Store &store : stores) {
            _digest.updateU64(store.addr);
            _digest.updateU64(store.size);
            if (store.data)
                _digest.update(store.data, store.size);
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
                ReferenceShadowByte ref = expected.image.get(addr);
                if (!ref.present) {
                    fp_panic("oracle: de-packetized byte ", addr,
                             " was not in the flushed image (duplicate "
                             "coverage or offset-encoding bug)");
                }
                if (ref.has_value && store.data &&
                    store.data[i] != ref.value) {
                    fp_panic("oracle: de-packetized byte ", addr,
                             " has value ",
                             static_cast<unsigned>(store.data[i]),
                             " but the source stored ",
                             static_cast<unsigned>(ref.value));
                }
                if (ref.has_value && store.data)
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
    verifyDrained() const
    {
        std::vector<GpuId> dsts;
        // fp-lint: allow(unordered-iteration) keys are sorted before use
        for (const auto &[dst, pending] : _pending)
            dsts.push_back(dst);
        std::sort(dsts.begin(), dsts.end());
        for (GpuId dst : dsts) {
            const ReferenceShadowMemory &pending = _pending.at(dst);
            if (!pending.empty()) {
                fp_panic("oracle: GPU ", _src, " left ",
                         pending.population(), " byte(s) for GPU ", dst,
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
                fp_panic("oracle: GPU ", _src, " flushed ",
                         flushes.size(), " window(s) for GPU ", dst,
                         " that never packetized");
            }
        }
    }

    std::uint64_t storesRecorded() const { return _stores_recorded; }
    std::uint64_t transactionsVerified() const
    { return _transactions_verified; }
    std::uint64_t bytesVerified() const { return _bytes_verified; }
    std::uint64_t valueBytesVerified() const
    { return _value_bytes_verified; }
    std::uint64_t digest() const { return _digest.value(); }

  private:
    struct ExpectedImage
    {
        Addr window_base = 0;
        ReferenceShadowMemory image;
        std::uint64_t packed_store_count = 0;
    };

    static std::string
    residentSummary(const ReferenceShadowMemory &shadow)
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

    ReferenceShadowMemory &
    pendingFor(GpuId dst)
    {
        auto it = _pending.find(dst);
        if (it == _pending.end()) {
            it = _pending
                     .emplace(dst,
                              ReferenceShadowMemory(_config.entry_bytes))
                     .first;
        }
        return it->second;
    }

    GpuId _src;
    finepack::FinePackConfig _config;
    std::unordered_map<GpuId, ReferenceShadowMemory> _pending;
    std::unordered_map<GpuId, std::deque<ExpectedImage>> _outstanding;

    std::uint64_t _stores_recorded = 0;
    std::uint64_t _transactions_verified = 0;
    std::uint64_t _bytes_verified = 0;
    std::uint64_t _value_bytes_verified = 0;
    check::Digest _digest;
};

} // namespace fp::testing

#endif // FP_TESTS_SUPPORT_REFERENCE_ORACLE_HH
