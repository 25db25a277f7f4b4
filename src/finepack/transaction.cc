#include "finepack/transaction.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace fp::finepack {

void
FinePackTransaction::append(Addr addr, std::uint32_t length,
                            std::vector<std::uint8_t> data)
{
    fp_assert(length > 0, "empty sub-packet");
    fp_assert(length < (1u << _config.length_bits),
              "sub-packet length ", length, " exceeds the length field");
    fp_assert(addr >= _base, "sub-packet address below base");
    std::uint64_t offset = addr - _base;
    fp_assert(offset + length <= _config.addressableRange(),
              "sub-packet beyond the addressable range: offset=", offset,
              " len=", length);
    fp_assert(data.empty() || data.size() == length,
              "sub-packet data size mismatch");

    std::uint64_t cost = _config.subheader_bytes + length;
    fp_assert(_payload + cost <= _config.max_payload,
              "outer transaction payload overflow");

    _payload += cost;
    _data_bytes += length;
    _subs.push_back(SubPacket{offset, length, std::move(data)});
}

void
FinePackTransaction::reset(GpuId dst, Addr base)
{
    _dst = dst;
    _base = base;
    _subs.clear();
    _payload = 0;
    _data_bytes = 0;
}

bool
FinePackTransaction::carriesData() const
{
    return std::any_of(_subs.begin(), _subs.end(),
                       [](const SubPacket &sub) { return !sub.data.empty(); });
}

std::uint64_t
FinePackTransaction::wirePayloadBytes() const
{
    return common::alignUp(_payload, 4);
}

std::vector<icn::Store>
FinePackTransaction::unpack() const
{
    std::vector<icn::Store> stores;
    unpackInto(stores);
    return stores;
}

void
FinePackTransaction::unpackInto(std::vector<icn::Store> &stores) const
{
    stores.resize(_subs.size());
    for (std::size_t i = 0; i < _subs.size(); ++i) {
        icn::Store &store = stores[i];
        store.addr = _base + _subs[i].offset;
        store.size = _subs[i].length;
        store.src = _src;
        store.dst = _dst;
        store.data = _subs[i].data.empty() ? nullptr : _subs[i].data.data();
        store.is_atomic = false;
    }
}

} // namespace fp::finepack
