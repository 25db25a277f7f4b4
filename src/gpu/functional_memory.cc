#include "gpu/functional_memory.hh"

#include <cstring>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace fp::gpu {

FunctionalMemory::Page &
FunctionalMemory::pageFor(Addr addr)
{
    Addr page_addr = common::alignDown(addr, page_bytes);
    auto &slot = _pages[page_addr];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

const FunctionalMemory::Page *
FunctionalMemory::pageForConst(Addr addr) const
{
    Addr page_addr = common::alignDown(addr, page_bytes);
    auto it = _pages.find(page_addr);
    return it == _pages.end() ? nullptr : it->second.get();
}

void
FunctionalMemory::apply(const icn::Store &store)
{
    fp_assert(store.data != nullptr,
              "functional apply needs payload data (addr=", store.addr,
              ")");
    write(store.addr, store.data, store.size);
}

void
FunctionalMemory::write(Addr addr, const std::uint8_t *data,
                        std::uint64_t size)
{
    while (size > 0) {
        Page &page = pageFor(addr);
        std::uint64_t offset = addr % page_bytes;
        std::uint64_t chunk = std::min(size, page_bytes - offset);
        std::memcpy(page.data() + offset, data, chunk);
        addr += chunk;
        data += chunk;
        size -= chunk;
    }
}

std::vector<std::uint8_t>
FunctionalMemory::read(Addr addr, std::uint64_t size) const
{
    std::vector<std::uint8_t> result(size, 0);
    std::uint64_t done = 0;
    while (done < size) {
        std::uint64_t offset = (addr + done) % page_bytes;
        std::uint64_t chunk = std::min(size - done, page_bytes - offset);
        if (const Page *page = pageForConst(addr + done))
            std::memcpy(result.data() + done, page->data() + offset, chunk);
        done += chunk;
    }
    return result;
}

std::uint8_t
FunctionalMemory::readByte(Addr addr) const
{
    const Page *page = pageForConst(addr);
    return page ? (*page)[addr % page_bytes] : 0;
}

bool
FunctionalMemory::rangeEquals(const FunctionalMemory &other, Addr addr,
                              std::uint64_t size) const
{
    std::vector<std::uint8_t> mine = read(addr, size);
    std::vector<std::uint8_t> theirs = other.read(addr, size);
    return mine == theirs;
}

bool
FunctionalMemory::sameContents(const FunctionalMemory &other) const
{
    auto page_matches = [](const Page *a, const Page *b) {
        if (a && b)
            return *a == *b;
        const Page *present = a ? a : b;
        if (!present)
            return true;
        for (std::uint8_t byte : *present)
            if (byte != 0)
                return false;
        return true;
    };

    // fp-lint: allow(unordered-iteration) set equality is order-insensitive
    for (const auto &[addr, page] : _pages)
        if (!page_matches(page.get(), other.pageForConst(addr)))
            return false;
    // fp-lint: allow(unordered-iteration) set equality is order-insensitive
    for (const auto &[addr, page] : other._pages)
        if (!pageForConst(addr) && !page_matches(nullptr, page.get()))
            return false;
    return true;
}

} // namespace fp::gpu
