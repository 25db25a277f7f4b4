/**
 * @file
 * A sparse, page-backed functional byte store. Used by correctness tests
 * to check that coalesced / packetized delivery produces the same final
 * memory image as naive store-by-store delivery.
 */

#ifndef FP_GPU_FUNCTIONAL_MEMORY_HH
#define FP_GPU_FUNCTIONAL_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "interconnect/store.hh"

namespace fp::gpu {

/** Sparse byte-addressable memory with 4 KiB backing pages. */
class FunctionalMemory
{
  public:
    static constexpr std::uint64_t page_bytes = 4096;

    /** Apply one store's data (must carry payload bytes). */
    void apply(const icn::Store &store);

    /** Write raw bytes. */
    void write(Addr addr, const std::uint8_t *data, std::uint64_t size);

    /** Read bytes; untouched locations read as zero. */
    std::vector<std::uint8_t> read(Addr addr, std::uint64_t size) const;

    /** Read one byte. */
    std::uint8_t readByte(Addr addr) const;

    /** Number of backing pages allocated. */
    std::size_t pageCount() const { return _pages.size(); }

    /** Bitwise comparison over a range. */
    bool rangeEquals(const FunctionalMemory &other, Addr addr,
                     std::uint64_t size) const;

    /**
     * Whole-memory comparison by page map: pages absent on one side
     * compare equal when the other side's page is all zeroes. O(pages),
     * independent of the address-space span.
     */
    bool sameContents(const FunctionalMemory &other) const;

  private:
    using Page = std::array<std::uint8_t, page_bytes>;

    Page &pageFor(Addr addr);
    const Page *pageForConst(Addr addr) const;

    std::unordered_map<Addr, std::unique_ptr<Page>> _pages;
};

} // namespace fp::gpu

#endif // FP_GPU_FUNCTIONAL_MEMORY_HH
