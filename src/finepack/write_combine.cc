#include "finepack/write_combine.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace fp::finepack {

WriteCombineBuffer::WriteCombineBuffer(GpuId src, GpuId dst,
                                       std::uint32_t num_lines)
    : _src(src), _dst(dst), _num_lines(num_lines)
{
    fp_assert(num_lines > 0, "write-combine buffer needs capacity");
    _slots.reserve(num_lines);
}

std::optional<WcLine>
WriteCombineBuffer::push(const icn::Store &store)
{
    constexpr std::uint32_t line_bytes = FinePackConfig::entry_bytes;
    fp_assert(store.dst == _dst, "store routed to wrong WC buffer");
    fp_assert(store.size > 0 && store.size <= line_bytes,
              "store size out of range");
    fp_assert(common::alignDown(store.begin(), line_bytes) ==
                  common::alignDown(store.end() - 1, line_bytes),
              "store crosses a line boundary");

    ++_stores_pushed;

    Addr line_addr = common::alignDown(store.addr, line_bytes);
    auto offset = static_cast<std::uint32_t>(store.addr - line_addr);

    std::optional<WcLine> evicted;

    auto slot = std::find_if(_slots.begin(), _slots.end(),
                             [line_addr](const Slot &s) {
                                 return s.line.entry.line_addr == line_addr;
                             });
    if (slot == _slots.end()) {
        if (_slots.size() >= _num_lines) {
            // Evict the least recently written line.
            slot = std::min_element(_slots.begin(), _slots.end(),
                                    [](const Slot &a, const Slot &b) {
                                        return a.stamp < b.stamp;
                                    });
            evicted = std::move(slot->line);
            slot->line = WcLine{};
        } else {
            slot = _slots.emplace(_slots.end());
        }
        slot->line.entry.line_addr = line_addr;
    }

    slot->stamp = _stores_pushed;
    _bytes_elided += slot->line.entry.merge(offset, store);
    ++slot->line.folded;

    return evicted;
}

std::vector<WcLine>
WriteCombineBuffer::flushAll()
{
    std::vector<WcLine> lines;
    lines.reserve(_slots.size());
    for (Slot &slot : _slots)
        lines.push_back(std::move(slot.line));
    _slots.clear();
    std::sort(lines.begin(), lines.end(),
              [](const WcLine &a, const WcLine &b) {
                  return a.entry.line_addr < b.entry.line_addr;
              });
    return lines;
}

icn::WireMessagePtr
WriteCombineBuffer::lineToMessage(const WcLine &line,
                                  const icn::PcieProtocol &protocol)
{
    auto msg = _messages.make();
    msg->kind = icn::MessageKind::write_combine_line;
    msg->src = _src;
    msg->dst = _dst;
    // The whole line travels as payload; unwritten bytes are waste.
    msg->payload_bytes = FinePackConfig::entry_bytes;
    msg->header_bytes = protocol.tlpOverhead();
    msg->data_bytes = line.entry.validBytes();
    msg->packed_store_count = line.folded;

    // The wire carries the whole line, but only the written bytes are
    // semantically delivered (the receiver applies byte enables): one
    // store per contiguous run, whose records a functional run needs.
    msg->delivered_stores = line.entry.runCount();
    if (!line.entry.hasData())
        return msg;
    line.entry.forEachRun([&](std::uint32_t start, std::uint32_t len) {
        icn::Store store(line.entry.line_addr + start, len, _src, _dst);
        store.data = line.entry.data.data() + start;
        msg->addStore(store);
    });
    return msg;
}

} // namespace fp::finepack
