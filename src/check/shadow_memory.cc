#include "check/shadow_memory.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace fp::check {

std::size_t
ShadowMemory::slotFor(Addr line_addr)
{
    const std::size_t slot = slotOf(line_addr);
    if (slot < _tags.size())
        return slot;
    _tags.push_back(line_addr);
    _lines.emplace_back();
    if (2 * _tags.size() > _index.size()) {
        const std::size_t buckets =
            std::max<std::size_t>(16, 2 * _index.size());
        _shift = 64 - static_cast<unsigned>(std::countr_zero(buckets));
        _index.assign(buckets, 0);
        for (std::size_t s = 0; s < _tags.size(); ++s)
            place(s);
    } else {
        place(slot);
    }
    return slot;
}

void
ShadowMemory::place(std::size_t slot)
{
    const std::size_t mask = _index.size() - 1;
    std::size_t b = home(_tags[slot]);
    while (_index[b] != 0)
        b = (b + 1) & mask;
    _index[b] = static_cast<std::uint32_t>(slot + 1);
}

std::size_t
ShadowMemory::bucketOf(std::size_t slot) const
{
    const std::size_t mask = _index.size() - 1;
    std::size_t b = home(_tags[slot]);
    while (_index[b] != slot + 1)
        b = (b + 1) & mask;
    return b;
}

void
ShadowMemory::write(Addr addr, std::uint32_t size, const std::uint8_t *data)
{
    while (size > 0) {
        const Addr line_addr = lineOf(addr);
        const auto offset = static_cast<std::uint32_t>(addr - line_addr);
        const std::uint32_t len = std::min(size, line_bytes - offset);
        const LineMask bytes = lineMask(offset, len);

        Line &line = _lines[slotFor(line_addr)];
        _population += popcount(without(bytes, line.present));
        for (std::uint32_t w = 0; w < 2; ++w) {
            line.present[w] |= bytes[w];
            if (data)
                line.has_value[w] |= bytes[w];
            else
                line.has_value[w] &= ~bytes[w];
        }
        if (data) {
            std::copy_n(data, len, line.value.begin() + offset);
            data += len;
        }
        addr += len;
        size -= len;
    }
}

void
ShadowMemory::writeLine(Addr line_addr, const LineMask &bytes,
                        const LineMask &valued,
                        const std::uint8_t *line_data)
{
    if (none(bytes))
        return;
    Line &line = _lines[slotFor(line_addr)];
    _population += popcount(without(bytes, line.present));
    for (std::uint32_t w = 0; w < 2; ++w) {
        line.present[w] |= bytes[w];
        line.has_value[w] = (line.has_value[w] & ~bytes[w]) | valued[w];
    }
    forEachByte(valued, [&](std::uint32_t i) {
        line.value[i] = line_data[i];
    });
}

void
ShadowMemory::erase(const Line &line, const LineMask &bytes)
{
    fp_assert(&line >= _lines.data() && &line < _lines.data() + _lines.size(),
              "erasing a line of another shadow");
    eraseInSlot(static_cast<std::size_t>(&line - _lines.data()), bytes);
}

void
ShadowMemory::eraseInSlot(std::size_t slot, const LineMask &bytes)
{
    Line &line = _lines[slot];
    _population -= popcount(intersect(bytes, line.present));
    line.present = without(line.present, bytes);
    line.has_value = without(line.has_value, bytes);
    if (!none(line.present))
        return;

    // Unindex the line, shifting later entries of its probe chain back
    // into the hole unless that would move one before its home bucket.
    const std::size_t mask = _index.size() - 1;
    std::size_t hole = bucketOf(slot);
    for (std::size_t b = (hole + 1) & mask; _index[b] != 0;
         b = (b + 1) & mask) {
        const std::size_t want = home(_tags[_index[b] - 1]);
        if (((b - want) & mask) >= ((b - hole) & mask)) {
            _index[hole] = _index[b];
            hole = b;
        }
    }
    _index[hole] = 0;

    // The last line takes the emptied slot.
    const std::size_t last = _tags.size() - 1;
    if (slot != last) {
        _index[bucketOf(last)] = static_cast<std::uint32_t>(slot + 1);
        _tags[slot] = _tags[last];
        _lines[slot] = _lines[last];
    }
    _tags.pop_back();
    _lines.pop_back();
}

ShadowByte
ShadowMemory::get(Addr addr) const
{
    const Line *line = find(lineOf(addr));
    if (!line)
        return {};
    const auto i = static_cast<std::uint32_t>(addr - lineOf(addr));
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (!(line->present[i / 64] & bit))
        return {};
    ShadowByte byte;
    byte.present = true;
    byte.has_value = (line->has_value[i / 64] & bit) != 0;
    byte.value = byte.has_value ? line->value[i] : 0;
    return byte;
}

bool
ShadowMemory::erase(Addr addr)
{
    const std::size_t slot = slotOf(lineOf(addr));
    if (slot == _lines.size())
        return false;
    const LineMask bytes =
        lineMask(static_cast<std::uint32_t>(addr - lineOf(addr)), 1);
    if (none(intersect(bytes, _lines[slot].present)))
        return false;
    eraseInSlot(slot, bytes);
    return true;
}

void
ShadowMemory::clear()
{
    _tags.clear();
    _lines.clear();
    std::fill(_index.begin(), _index.end(), 0);
    _population = 0;
}

std::vector<Addr>
ShadowMemory::sampleResident(std::size_t max) const
{
    std::vector<std::size_t> slots(_tags.size());
    for (std::size_t slot = 0; slot < slots.size(); ++slot)
        slots[slot] = slot;
    std::sort(slots.begin(), slots.end(),
              [this](std::size_t a, std::size_t b) {
                  return _tags[a] < _tags[b];
              });

    std::vector<Addr> result;
    for (std::size_t slot : slots) {
        const LineMask &present = _lines[slot].present;
        for (std::uint32_t i = 0; i < line_bytes; ++i) {
            if (!((present[i / 64] >> (i % 64)) & 1))
                continue;
            result.push_back(_tags[slot] + i);
            if (result.size() >= max)
                return result;
        }
    }
    return result;
}

} // namespace fp::check
